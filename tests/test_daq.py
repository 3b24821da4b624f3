import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgehar.daq import (
    CATALOG,
    FIFO_WINDOWS,
    NS,
    TABLE_SENSORS,
    Recording,
    SensorFifo,
    SensorSpec,
    Source,
    WindowConfig,
    _class_pattern,
    bundle_arrays,
    gen_dataset,
    gen_timeline,
    load_dataset,
    count_until,
    recording_sources,
    sample_time_ns,
    save_dataset,
    start_sync,
    stream_frames,
)
from edgehar.seeding import substream

import oracles


def _stamps(spec, duration_s):
    """The sample grid of spec over [0, duration_s)."""
    return sample_time_ns(np.arange(count_until(int(Fraction(duration_s) * NS), spec.rate)),
                          spec.rate)


def _const_source(spec, duration_s, value=0.25):
    t = _stamps(spec, duration_s)
    return Source(spec, t, np.broadcast_to(value, (t.size, spec.channels)), duration_s)


def _ramp_source(spec, duration_s):
    """Sample k carries the value k on every channel."""
    t = _stamps(spec, duration_s)
    ramp = np.arange(t.size, dtype=np.float64)[:, None]
    return Source(spec, t, np.broadcast_to(ramp, (t.size, spec.channels)), duration_s)


class TestCatalog:
    def test_seven_modalities(self):
        assert set(CATALOG) == {
            "optical", "gas", "thermal", "baro", "motion", "magnetic", "tof"
        }
        assert CATALOG["thermal"].channels == 768
        assert CATALOG["thermal"].grid == (24, 32)
        assert CATALOG["thermal"].rate_hz == 32
        assert CATALOG["motion"].rate_hz == 119
        assert CATALOG["magnetic"].rate_hz == 20
        assert sum(s.channels for s in TABLE_SENSORS) == 791

    def test_six_physical_sensors(self):
        assert len(TABLE_SENSORS) == 6
        imu = [s for s in TABLE_SENSORS if s.name == "imu"][0]
        assert imu.channels == 9 and imu.rate_hz == 119


class TestStartSync:
    def test_shared_origin(self):
        a = _const_source(SensorSpec("a", 1, 100), 2)
        b = _const_source(SensorSpec("b", 1, 50), 2)
        sess = start_sync([a, b])
        sess.run_until(1)
        for fifo in (sess.fifos["a"], sess.fifos["b"]):
            first, _ = fifo.ranges[0]
            assert fifo.t_track[first] == 0

    def test_counts_after_one_second(self):
        a = _const_source(SensorSpec("a", 1, 100), 2)
        b = _const_source(SensorSpec("b", 1, 50), 2)
        sess = start_sync([a, b], fifo_depth={"a": 1000, "b": 1000})
        sess.run_until(NS)
        assert sess.fifos["a"].produced == 100
        assert sess.fifos["b"].produced == 50

    def test_zero_sources_rejected(self):
        with pytest.raises(ValueError):
            start_sync([])

    def test_double_start_rejected(self):
        a = _const_source(SensorSpec("a", 1, 10), 1)
        start_sync([a])
        with pytest.raises(RuntimeError, match="already started"):
            start_sync([a])

    def test_a_started_source_starts_none(self):
        a, b, c = (_const_source(SensorSpec(n, 1, 10), 1) for n in "abc")
        start_sync([b])
        with pytest.raises(RuntimeError, match="source 'b' already started"):
            start_sync([a, b])
        assert not a.started
        start_sync([a, c])
        assert a.started and c.started

    @pytest.mark.parametrize("fifo_depth, message", [
        ({"toff": 3}, r"fifo_depth names no sensor of the session: \['toff'\]"),
        ({"tof": 2.5}, "sensor 'tof': FIFO depth must be an integer >= 1, got 2.5"),
        ({"tof": 0}, "sensor 'tof': FIFO depth must be an integer >= 1, got 0"),
        ({"tof": True}, "sensor 'tof': FIFO depth must be an integer >= 1, got True"),
    ], ids=["unknown_name", "float", "zero", "bool"])
    def test_bad_fifo_depth_rejected_before_any_source_starts(self, fifo_depth, message):
        tof = _const_source(CATALOG["tof"], 1)
        with pytest.raises(ValueError, match=message):
            start_sync([tof], fifo_depth=fifo_depth)
        assert start_sync([tof], fifo_depth={"tof": 3}).fifos["tof"].depth == 3


class TestWindowing:
    def test_first_frame_latency_fast_sensor(self):
        # 20 timesteps at 119 Hz: the first frame closes at 20/119 s
        spec = SensorSpec("motion", 2, 119)
        cfg = WindowConfig(Fraction(20, 119), Fraction(20, 119))
        src = _const_source(spec, 1)
        frames = stream_frames(start_sync([src]), cfg)
        f = next(frames)
        assert f.t_end_ns == (20 * NS) // 119 == 168067226  # ~168.07 ms
        assert f.tensors["motion"].shape == (20, 2)

    def test_first_frame_latency_slow_sensor(self):
        spec = SensorSpec("slow", 1, 6)
        cfg = WindowConfig(Fraction(20, 6), Fraction(20, 6))
        src = _const_source(spec, 4)
        f = next(stream_frames(start_sync([src]), cfg))
        assert f.t_end_ns == (20 * NS) // 6 == 3333333333  # ~3.33 s

    def test_tumbling_window_disjoint_samples(self):
        spec = SensorSpec("r", 1, 40)
        cfg = WindowConfig(Fraction(1, 2), Fraction(1, 2))
        src = _ramp_source(spec, 3)
        frames = list(stream_frames(start_sync([src]), cfg))
        assert len(frames) == 6  # floor((3 - 0.5)/0.5) + 1
        seen = [f.tensors["r"][:, 0] for f in frames]
        for a, b in zip(seen, seen[1:]):
            assert a[-1] < b[0]  # ramp values never overlap across frames

    def test_overlapping_windows_step_half(self):
        spec = SensorSpec("r", 1, 40)
        cfg = WindowConfig(Fraction(1, 2), Fraction(1, 4))
        frames = list(stream_frames(start_sync([_ramp_source(spec, 2)]), cfg))
        assert len(frames) == 7  # floor((2 - 0.5)/0.25) + 1
        for f in frames:
            assert f.tensors["r"].shape[0] == 20

    def test_multirate_frames_aligned(self):
        fast = _const_source(SensorSpec("f", 1, 100), 3)
        slow = _const_source(SensorSpec("s", 1, 7), 3)
        cfg = WindowConfig(1, Fraction(1, 2))
        for f in stream_frames(start_sync([fast, slow]), cfg):
            assert f.tensors["f"].shape == (100, 1)
            assert f.tensors["s"].shape == (7, 1)
            assert f.t_end_ns - f.t_start_ns == NS

    def test_step_greater_than_window_rejected(self):
        with pytest.raises(ValueError):
            WindowConfig(1, 2)

    def test_conservation_short_run(self):
        srcs = [_const_source(SensorSpec(f"s{i}", 1, r), 5) for i, r in
                enumerate([100, 7, 33])]
        sess = start_sync(srcs)
        for _ in stream_frames(sess, WindowConfig(1, Fraction(1, 2))):
            pass
        for name, c in sess.conservation().items():
            assert c["ok"], (name, c)
            assert c["produced"] == c["consumed"] + c["occupancy"] + c["overflowed"]

    def test_overflow_event_names_sensor(self):
        src = _const_source(SensorSpec("tight", 1, 100), 2)
        sess = start_sync([src], fifo_depth={"tight": 5})
        sess.run_until(NS)  # 100 samples into a 5-deep FIFO, nobody draining
        f = sess.fifos["tight"]
        assert f.overflowed == 95
        assert f.occupancy == 5
        assert f.conservation_ok()

    def test_native_rates_fit_rows_under_and_overfill(self):
        # 1 s windows hold 6 rows at 6.4 Hz (6.4 rounds down) and 7 at 6.6 Hz
        # (6.6 rounds up), but a window sees 6 or 7 samples of either rate
        o, u = SensorSpec("o", 1, 6.4), SensorSpec("u", 1, 6.6)
        sess = start_sync([_ramp_source(o, 4), _ramp_source(u, 4)])
        frames = list(stream_frames(sess, WindowConfig(1, Fraction(1, 2))))
        assert len(frames) == 7
        for f in frames:
            assert f.tensors["o"].shape == (6, 1) and f.tensors["u"].shape == (7, 1)
        # overfill keeps the latest 6 of 7 samples
        assert frames[0].tensors["o"][:, 0].tolist() == [1, 2, 3, 4, 5, 6]
        # underfill holds the last of 6 samples
        assert frames[1].tensors["u"][:, 0].tolist() == [4, 5, 6, 7, 8, 9, 9]
        assert sess.overfill_events == [("o", NS), ("o", 3 * NS), ("o", 7 * NS // 2)]
        assert sess.underfill_events == [("u", 3 * NS // 2), ("u", 3 * NS)]
        assert all(type(t) is int for _, t in sess.overfill_events + sess.underfill_events)


class TestSourceTrack:
    def test_short_value_track_rejected(self):
        spec = SensorSpec("short", 2, 10)
        t = _stamps(spec, 1)
        with pytest.raises(ValueError, match="'short': 10 stamps but 9 value rows"):
            Source(spec, t, np.zeros((t.size - 1, 2)), 1)

    def test_decreasing_stamps_rejected(self):
        spec = SensorSpec("back", 1, 10)
        t = _stamps(spec, 1)
        Source(spec, np.repeat(t, 2), np.zeros((2 * t.size, 1)), 1)  # repeats are fine
        t[[3, 4]] = t[[4, 3]]
        with pytest.raises(ValueError, match="'back': stamp 4 of its track is below stamp 3"):
            Source(spec, t, np.zeros((t.size, 1)), 1)


def _drain(frames):
    """The frames a stream yields before it ends, and its RuntimeError, if any."""
    out = []
    try:
        for f in frames:
            out.append(f)
    except RuntimeError as e:
        return out, str(e)
    return out, None


def _fifo_calls(monkeypatch):
    """Per FIFO name, the count of its push_until, window and drop_before calls."""
    calls = Counter()
    for meth in ("push_until", "window", "drop_before"):
        def spy(self, *args, _real=getattr(SensorFifo, meth)):
            calls[self.name] += 1
            return _real(self, *args)
        monkeypatch.setattr(SensorFifo, meth, spy)
    return calls


class TestRangeFifoMatchesDeque:
    """The index-range FIFOs frame every stream exactly as a per-sample deque
    FIFO does, overflow gaps and repeated stamps included."""

    RATES = [4, 6.4, 6.6, 7.5, 20, 100 / 3, 119]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), window_ms=st.integers(300, 1500),
           seed=st.integers(0, 2**32 - 1))
    def test_frames_events_and_counters_bit_equal(self, data, n, window_ms, seed):
        step_ms = data.draw(st.integers(window_ms // 4, window_ms))
        cfg = WindowConfig(Fraction(window_ms, 1000), Fraction(step_ms, 1000))
        rng = np.random.default_rng(seed)
        sources, tracks, rows, depth, explicit = [], {}, {}, {}, {}
        for i in range(n):
            spec = SensorSpec(f"s{i}", data.draw(st.integers(1, 3)),
                              data.draw(st.sampled_from(self.RATES)))
            duration_s = Fraction(data.draw(st.integers(window_ms, 6000)), 1000)
            t = _stamps(spec, duration_s)
            if data.draw(st.booleans()):  # jittered: repeats, gaps, stamps past the end
                t = np.sort(rng.integers(0, int(duration_s * NS * 6 / 5), t.size))
            v = rng.standard_normal((t.size, spec.channels))
            sources.append(Source(spec, t, v, duration_s))
            tracks[spec.name] = (t, v, int(duration_s * NS))
            rows[spec.name] = cfg.timesteps(spec.rate)
            depth[spec.name] = FIFO_WINDOWS * rows[spec.name]
            if data.draw(st.booleans()):
                explicit[spec.name] = depth[spec.name] = data.draw(
                    st.integers(1, 3 * rows[spec.name]))

        sess = start_sync(sources, fifo_depth=explicit)
        frames, err = _drain(stream_frames(sess, cfg))
        ref = oracles.DequeStream(tracks, rows, depth)
        ref_frames, ref_err = _drain(ref.frames(cfg.window_ns, cfg.step_ns))

        assert err == ref_err
        assert len(frames) == len(ref_frames)
        assert [f.first_rows for f in frames] == ref.first_rows[: len(frames)]
        for f, (tensors, a, b) in zip(frames, ref_frames):
            assert (f.t_start_ns, f.t_end_ns) == (a, b)
            assert f.tensors.keys() == tensors.keys()
            for name, x in tensors.items():
                y = f.tensors[name]
                assert (y.dtype, y.shape, y.tobytes()) == (x.dtype, x.shape, x.tobytes())
                if f.first_rows is None:  # fitted: a copy, not a view
                    assert not np.shares_memory(y, tracks[name][1])
                else:  # exact: a read-only view of the track
                    assert np.shares_memory(y, tracks[name][1]) and not y.flags.writeable
                    with pytest.raises(ValueError):
                        y[0] = 0
        assert sess.underfill_events == ref.underfill_events
        assert sess.overfill_events == ref.overfill_events
        assert sess.conservation() == ref.conservation()
        assert all(v.flags.writeable for _, v, _ in tracks.values())  # the caller's arrays

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), window_ms=st.integers(300, 1500),
           seed=st.integers(0, 2**32 - 1))
    def test_counters_when_the_stream_stops(self, data, n, window_ms, seed):
        # the stream and the oracle's are closed after `stop` frames, unless
        # they end or raise first: the counters then are the oracle's, and the
        # FIFOs hold its buffered track indices. A drawn depth may let a FIFO
        # overflow, and a track may begin before the origin
        step_ms = data.draw(st.integers(window_ms // 4, window_ms))
        cfg = WindowConfig(Fraction(window_ms, 1000), Fraction(step_ms, 1000))
        rng = np.random.default_rng(seed)
        sources, tracks, rows, depth, explicit = [], {}, {}, {}, {}
        for i in range(n):
            spec = SensorSpec(f"s{i}", 1, data.draw(st.sampled_from(self.RATES)))
            duration_s = Fraction(data.draw(st.integers(window_ms, 6000)), 1000)
            t = _stamps(spec, duration_s)
            if data.draw(st.booleans()):  # jittered: repeats, gaps, stamps past the end
                t = np.sort(rng.integers(0, int(duration_s * NS * 6 / 5), t.size))
            t = t - data.draw(st.sampled_from([0, 0, NS // 10, NS // 2]))
            v = rng.standard_normal((t.size, 1))
            sources.append(Source(spec, t, v, duration_s))
            tracks[spec.name] = (t, v, int(duration_s * NS))
            rows[spec.name] = cfg.timesteps(spec.rate)
            depth[spec.name] = FIFO_WINDOWS * rows[spec.name]
            if data.draw(st.booleans()):
                explicit[spec.name] = depth[spec.name] = data.draw(
                    st.integers(1, 3 * rows[spec.name]))
        frames_in = (min(d for _, _, d in tracks.values()) - cfg.window_ns) // cfg.step_ns + 1
        stop = data.draw(st.integers(0, frames_in + 1))

        sess = start_sync(sources, fifo_depth=explicit)
        ref = oracles.DequeStream(tracks, rows, depth)
        drained = []
        for frames in (stream_frames(sess, cfg), ref.frames(cfg.window_ns, cfg.step_ns)):
            got, err = _drain(itertools.islice(frames, stop))
            frames.close()
            drained.append((len(got), err))
        assert drained[0] == drained[1]
        assert sess.underfill_events == ref.underfill_events
        assert sess.overfill_events == ref.overfill_events
        assert sess.conservation() == ref.conservation()
        # frames consumed: the windows start at the last one's cut
        done = drained[0][0] if drained[0][1] or stop > frames_in else max(0, stop - 1)
        for name, (t, _, _) in tracks.items():
            idx = np.array([i for _, _, i in ref.buf[name]], dtype=np.int64)
            runs = np.split(idx, np.flatnonzero(np.diff(idx) != 1) + 1) if idx.size else []
            assert sess.fifos[name].ranges == [(int(r[0]), int(r[-1]) + 1) for r in runs]
            assert sess.fifos[name].cut == (int(t.searchsorted(done * cfg.step_ns)) if stop else 0)

    def test_a_session_run_before_streaming_is_framed_per_frame(self, monkeypatch):
        # samples pushed by run_until before the stream leave nothing to prove
        # from the index arrays: every frame pushes, windows and cuts each FIFO,
        # exactly as the oracle run to the same time first
        calls = _fifo_calls(monkeypatch)
        specs = [SensorSpec("a", 2, 20), SensorSpec("b", 1, 100 / 3), SensorSpec("c", 3, 6.6)]
        sources = [_ramp_source(spec, 4) for spec in specs]
        cfg = WindowConfig(1, Fraction(1, 4))
        rows = {spec.name: cfg.timesteps(spec.rate) for spec in specs}
        sess = start_sync(sources)
        ref = oracles.DequeStream({s.spec.name: (s.t_track, s.v_track, s.duration_ns)
                                   for s in sources}, rows,
                                  {name: FIFO_WINDOWS * r for name, r in rows.items()})
        sess.run_until(600_000_000)
        ref._run_until(600_000_000)
        assert sess.conservation() == ref.conservation()
        frames, err = _drain(stream_frames(sess, cfg))
        ref_frames, ref_err = _drain(ref.frames(cfg.window_ns, cfg.step_ns))
        assert err == ref_err is None and len(frames) == len(ref_frames) == 13
        for f, (tensors, _, _) in zip(frames, ref_frames):
            assert {n: x.tobytes() for n, x in f.tensors.items()} == \
                {n: x.tobytes() for n, x in tensors.items()}
        assert [f.first_rows for f in frames] == ref.first_rows
        assert sess.underfill_events == ref.underfill_events != []
        assert sess.overfill_events == ref.overfill_events
        assert sess.conservation() == ref.conservation()
        # run_until's push, frame 0's cut, and a push, a window and a cut per frame
        assert calls == {name: 2 + 3 * 13 for name in rows}

    def test_an_overflow_free_stream_makes_no_fifo_call_per_frame(self, monkeypatch):
        # the stream workload's four sensors, windows and steps: each FIFO is
        # called once, to cut it at frame 0's start, and its counters are
        # written when the stream ends
        calls = _fifo_calls(monkeypatch)
        specs = [CATALOG[name] for name in ("optical", "motion", "magnetic", "tof")]
        rec, _ = gen_timeline(specs, [0, 1, 2], 2, seed=7)
        sess = start_sync(recording_sources(rec, specs))
        frames = list(stream_frames(sess, WindowConfig(1, Fraction(1, 10))))
        assert len(frames) == 51 and all(f.first_rows for f in frames)
        assert dict(calls) == {spec.name: 1 for spec in specs}
        for spec in specs:
            c = sess.conservation()[spec.name]
            assert c["ok"] and c["overflowed"] == 0
            assert c["produced"] == count_until(6 * NS, spec.rate)

    def test_a_push_past_a_frame_end_stays_out_of_its_window(self):
        # run_until(1.3 s) pushes a 10 Hz track up to its 1.2 s sample before
        # the stream: frame 0, [0, 1) s, still holds exactly samples 0-0.9 s
        spec = SensorSpec("r", 1, 10)
        src = _ramp_source(spec, 4)
        cfg = WindowConfig(1, Fraction(1, 2))
        rows = cfg.timesteps(spec.rate)
        sess = start_sync([src])
        ref = oracles.DequeStream({"r": (src.t_track, src.v_track, src.duration_ns)},
                                  {"r": rows}, {"r": FIFO_WINDOWS * rows})
        sess.run_until(1_300_000_000)
        ref._run_until(1_300_000_000)
        frames, err = _drain(stream_frames(sess, cfg))
        ref_frames, ref_err = _drain(ref.frames(cfg.window_ns, cfg.step_ns))
        assert err == ref_err is None and len(frames) == len(ref_frames) == 7
        for f, (tensors, a, b) in zip(frames, ref_frames):
            assert (f.t_start_ns, f.t_end_ns) == (a, b)
            assert f.tensors["r"].tobytes() == tensors["r"].tobytes()
        assert frames[0].tensors["r"][:, 0].tolist() == list(range(10))
        assert [f.first_rows for f in frames] == ref.first_rows
        assert frames[0].first_rows == {"r": 0}
        assert sess.underfill_events == ref.underfill_events == []
        assert sess.overfill_events == ref.overfill_events == []
        assert sess.conservation() == ref.conservation()

    def test_each_fifo_is_proven_on_its_own(self, monkeypatch):
        # the stream workload's four sensors, with motion's FIFO one sample
        # short of its window: motion overflows and is pushed, windowed and
        # cut per frame, while the others are framed as track slices, each
        # called once, to cut it at frame 0's start
        calls = _fifo_calls(monkeypatch)
        specs = [CATALOG[name] for name in ("optical", "motion", "magnetic", "tof")]
        rec, _ = gen_timeline(specs, [0, 1, 2], 2, seed=7)
        sources = recording_sources(rec, specs)
        cfg = WindowConfig(1, Fraction(1, 10))
        rows = {spec.name: cfg.timesteps(spec.rate) for spec in specs}
        depth = {name: FIFO_WINDOWS * r for name, r in rows.items()}
        depth["motion"] = rows["motion"] - 1
        sess = start_sync(sources, fifo_depth={"motion": depth["motion"]})
        frames, err = _drain(stream_frames(sess, cfg))
        ref = oracles.DequeStream({s.spec.name: (s.t_track, s.v_track, s.duration_ns)
                                   for s in sources}, rows, depth)
        ref_frames, ref_err = _drain(ref.frames(cfg.window_ns, cfg.step_ns))
        assert err == ref_err is None and len(frames) == len(ref_frames) == 51
        for f, (tensors, a, b) in zip(frames, ref_frames):
            assert (f.t_start_ns, f.t_end_ns) == (a, b)
            assert {n: x.tobytes() for n, x in f.tensors.items()} == \
                {n: x.tobytes() for n, x in tensors.items()}
        assert [f.first_rows for f in frames] == ref.first_rows
        assert sess.underfill_events == ref.underfill_events != []
        assert sess.overfill_events == ref.overfill_events
        assert sess.conservation() == ref.conservation()
        assert [c["overflowed"] > 0 for c in sess.conservation().values()] == \
            [False, True, False, False]
        assert dict(calls) == {"optical": 1, "motion": 1 + 3 * 51, "magnetic": 1, "tof": 1}

    def test_stamps_before_the_origin_stay_out_of_frame_0(self):
        # a replayed track may begin before t = 0: those samples are pushed
        # with frame 0's and counted as consumed after it, but lie in no window
        spec = SensorSpec("early", 2, 10)
        t = _stamps(spec, 3) - 250_000_000
        v = np.arange(2 * t.size, dtype=float).reshape(t.size, 2)
        cfg = WindowConfig(Fraction(1), Fraction(1, 2))
        rows = cfg.timesteps(spec.rate)
        sess = start_sync([Source(spec, t, v, 3)])
        frames, err = _drain(stream_frames(sess, cfg))
        ref = oracles.DequeStream({"early": (t, v, 3 * NS)}, {"early": rows},
                                  {"early": FIFO_WINDOWS * rows})
        ref_frames, ref_err = _drain(ref.frames(cfg.window_ns, cfg.step_ns))
        assert err == ref_err is None and len(frames) == len(ref_frames) == 5
        for f, (tensors, a, b) in zip(frames, ref_frames):
            assert f.tensors["early"].tobytes() == tensors["early"].tobytes()
        assert [f.first_rows for f in frames] == ref.first_rows
        assert frames[0].tensors["early"][0].tolist() == [6.0, 7.0]  # stamp 50 ms
        assert frames[0].first_rows == {"early": 3}
        assert sess.underfill_events == ref.underfill_events
        assert sess.overfill_events == ref.overfill_events == []
        assert sess.conservation() == ref.conservation()


    def test_empty_window_raises_after_every_fifo_is_pushed(self):
        # "e" has no sample in [1, 2) s, so frame 2 raises at "e". Every FIFO
        # was pushed for frame 2 before any window was fitted: "u" has logged
        # its underfill at 2 s, and "z", listed after "e", holds its samples
        # up to 2 s, exactly as in the oracle
        cfg = WindowConfig(1, Fraction(1, 2))
        u, e, z = SensorSpec("u", 1, 10), SensorSpec("e", 1, 10), SensorSpec("z", 2, 20)
        tu, te = _stamps(u, 4), _stamps(e, 4)
        sources, tracks = [], {}
        for spec, t in [(u, tu[tu != 3 * NS // 2]), (e, te[(te < NS) | (te >= 2 * NS)]),
                        (z, _stamps(z, 4))]:
            v = np.arange(t.size * spec.channels, dtype=float).reshape(t.size, spec.channels)
            sources.append(Source(spec, t, v, 4))
            tracks[spec.name] = (t, v, 4 * NS)
        rows = {s.name: cfg.timesteps(s.rate) for s in (u, e, z)}
        sess = start_sync(sources)
        frames, err = _drain(stream_frames(sess, cfg))
        ref = oracles.DequeStream(tracks, rows, {n: FIFO_WINDOWS * r for n, r in rows.items()})
        ref_frames, ref_err = _drain(ref.frames(cfg.window_ns, cfg.step_ns))
        assert err == ref_err == f"sensor 'e': no samples in window at t={2 * NS}"
        assert len(frames) == len(ref_frames) == 2
        assert [f.first_rows for f in frames] == ref.first_rows[:2]
        assert sess.underfill_events == ref.underfill_events == [("e", 3 * NS // 2), ("u", 2 * NS)]
        assert sess.overfill_events == ref.overfill_events == []
        assert sess.conservation() == ref.conservation()
        assert sess.fifos["z"].produced == 40


class TestBoundaryIndices:
    """stream_frames finds each track's push and cut indices once per stream;
    at the edges of that search it frames exactly as oracles.DequeStream."""

    @staticmethod
    def _framed(sources, cfg):
        """The frames of sources, checked bit for bit against the oracle's
        frames, first rows, events and counters; and the session."""
        sess = start_sync(sources)
        frames, err = _drain(stream_frames(sess, cfg))
        rows = {s.spec.name: cfg.timesteps(s.spec.rate) for s in sources}
        ref = oracles.DequeStream(
            {s.spec.name: (s.t_track, s.v_track, s.duration_ns) for s in sources}, rows,
            {n: FIFO_WINDOWS * r for n, r in rows.items()})
        ref_frames, ref_err = _drain(ref.frames(cfg.window_ns, cfg.step_ns))
        assert err == ref_err is None and len(frames) == len(ref_frames)
        for f, (tensors, a, b) in zip(frames, ref_frames):
            assert (f.t_start_ns, f.t_end_ns) == (a, b)
            assert {n: x.tobytes() for n, x in f.tensors.items()} == \
                {n: x.tobytes() for n, x in tensors.items()}
        assert [f.first_rows for f in frames] == ref.first_rows
        assert sess.underfill_events == ref.underfill_events
        assert sess.overfill_events == ref.overfill_events
        assert sess.conservation() == ref.conservation()
        assert all(c["ok"] for c in sess.conservation().values())
        return frames, sess

    def test_stream_shorter_than_a_window_yields_no_frame(self):
        sources = [_ramp_source(SensorSpec("a", 2, 20), Fraction(9, 10)),
                   _ramp_source(SensorSpec("b", 1, 100 / 3), 2)]
        frames, sess = self._framed(sources, WindowConfig(1, Fraction(1, 4)))
        assert frames == [] and sess.duration_ns == 9 * NS // 10
        assert all(c["produced"] == 0 for c in sess.conservation().values())

    def test_frame_ending_at_the_duration_is_emitted(self):
        # the session ends at 3 s, where the last frame ends; "late" has a
        # sample stamped at its 3 s end, which is never pushed, and "long"
        # samples past the session's end, which are not pushed either
        late = SensorSpec("late", 1, 10)
        t = np.append(_stamps(late, 3), 3 * NS)
        sources = [Source(late, t, np.arange(t.size, dtype=float)[:, None], 3),
                   _ramp_source(SensorSpec("long", 2, 20), 4)]
        frames, sess = self._framed(sources, WindowConfig(1, Fraction(1, 2)))
        assert [f.t_end_ns for f in frames] == [NS * k // 2 for k in range(2, 7)]
        assert frames[-1].t_end_ns == sess.duration_ns == 3 * NS
        assert frames[-1].first_rows == {"late": 20, "long": 40}
        assert (sess.fifos["late"].produced, sess.fifos["long"].produced) == (30, 60)

    def test_repeated_stamps_on_frame_bounds(self):
        # one more sample stamped at 0.5 s, frame 1's start, and one at 1 s,
        # frame 0's end and frame 2's start: a sample lies in every window
        # [a, b) that holds its stamp, and each overfilled window keeps its
        # latest 10 rows
        spec = SensorSpec("r", 1, 10)
        t = np.sort(np.concatenate([_stamps(spec, 4), [NS // 2, NS]]))
        sources = [Source(spec, t, np.arange(t.size, dtype=float)[:, None], 4)]
        frames, sess = self._framed(sources, WindowConfig(1, Fraction(1, 2)))
        assert [f.tensors["r"][:, 0].tolist() for f in frames[:4]] == \
            [list(range(1, 11)), list(range(7, 17)), list(range(12, 22)), list(range(17, 27))]
        assert [f.first_rows for f in frames[:4]] == [None, None, None, {"r": 17}]
        assert sess.overfill_events == [("r", NS), ("r", 3 * NS // 2), ("r", 2 * NS)]


class TestFirstRows:
    """A frame's first_rows index each tensor's first row in its sensor's
    track when every tensor is exactly its track's next rows samples."""

    @pytest.mark.parametrize("shift_ns", [0, 250_000_000], ids=["origin", "before_origin"])
    def test_recorded_rows_are_track_slices(self, shift_ns):
        # 6.4 Hz overfills and 6.6 Hz underfills 1 s windows; the others fit
        specs = [SensorSpec("a", 2, 20), SensorSpec("b", 3, 119), SensorSpec("o", 1, 6.4),
                 SensorSpec("u", 1, 6.6), SensorSpec("h", 1, 7.5)]
        rec, _ = gen_timeline(specs, [0, 1, 2], 2, seed=5)
        sources = [Source(src.spec, src.t_track - shift_ns, src.v_track, 6)
                   for src in recording_sources(rec, specs)]
        cfg = WindowConfig(1, Fraction(1, 10))
        rows = {s.name: cfg.timesteps(s.rate) for s in specs}
        sess = start_sync(sources)
        frames = list(stream_frames(sess, cfg))
        fitted = {t for _, t in sess.overfill_events + sess.underfill_events}
        tracks = {src.spec.name: src.v_track for src in sources}
        recorded = [f for f in frames if f.first_rows is not None]
        assert 0 < len(recorded) < len(frames)
        for f in frames:
            assert (f.first_rows is None) == (f.t_end_ns in fitted)
            for name, i in (f.first_rows or {}).items():
                assert f.tensors[name].tobytes() == tracks[name][i : i + rows[name]].tobytes()
        assert all(c["ok"] for c in sess.conservation().values())

    def test_overflow_gap_records_none(self):
        # a repeated stamp at 1.2 s puts 11 samples in [0.5, 1.5) s, and a
        # 10-deep FIFO overflows the 1.4 s sample: frame 1 keeps one slice of
        # 10 rows, frame 2's window [1, 2) s spans the gap
        spec = SensorSpec("g", 1, 10)
        t = np.insert(_stamps(spec, 4), 13, 1_200_000_000)
        v = np.arange(t.size, dtype=np.float64)[:, None]
        sess = start_sync([Source(spec, t, v, 4)], fifo_depth={"g": 10})
        frames = list(stream_frames(sess, WindowConfig(1, Fraction(1, 2))))
        assert [f.first_rows for f in frames[:4]] == [{"g": 0}, {"g": 5}, None, {"g": 16}]
        assert frames[2].tensors["g"][:, 0].tolist() == [10, 11, 12, 13, 14, 16, 17, 18, 19, 20]
        for f in frames:
            if f.first_rows:
                i = f.first_rows["g"]
                assert f.tensors["g"].tobytes() == v[i : i + 10].tobytes()
        assert sess.fifos["g"].overflowed == 1
        assert sess.overfill_events == sess.underfill_events == []
        assert sess.fifos["g"].conservation_ok()


class TestGenDataset:
    def _sensors(self):
        return [SensorSpec("u", 2, 24), SensorSpec("v", 1, 16)]

    def test_seed_determinism(self):
        a = gen_dataset(self._sensors(), 3, 4, seed=7)
        b = gen_dataset(self._sensors(), 3, 4, seed=7)
        for name in a.arrays:
            np.testing.assert_array_equal(a.arrays[name], b.arrays[name])

    def test_noise_free_centroid_oracle_is_perfect(self):
        sensors = self._sensors()
        tr = gen_dataset(sensors, 3, 6, noise_level=0.0, seed=1)
        te = gen_dataset(sensors, 3, 4, noise_level=0.0, seed=2)
        names = [s.name for s in sensors]
        Xtr, ytr = bundle_arrays(tr, names)
        Xte, yte = bundle_arrays(te, names, tr.norm_stats())
        pred = oracles.nearest_centroid(Xtr, ytr, Xte)
        assert np.mean(pred == yte) == 1.0

    def test_uninformative_modality_has_no_class_signal(self):
        from scipy import stats as sp_stats

        sensors = self._sensors()
        b = gen_dataset(sensors, 2, 250, informative={"u": True, "v": False},
                        noise_level=0.2, seed=3)
        v_means = np.array([rec.mean() for rec in b.arrays["v"]])
        labels = b.labels
        _, p = sp_stats.ttest_ind(v_means[labels == 0], v_means[labels == 1])
        assert p > 0.01

    def test_class_code_controls_pattern(self):
        sensors = self._sensors()
        code = {"u": lambda c: c % 2, "v": lambda c: c // 2}
        b = gen_dataset(sensors, 4, 1, noise_level=0.0, seed=0, class_code=code)
        u = dict(zip(b.labels.tolist(), b.arrays["u"]))
        np.testing.assert_array_equal(u[0], u[2])  # same u-code 0
        np.testing.assert_array_equal(u[1], u[3])
        assert not np.array_equal(u[0], u[1])

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            gen_dataset(self._sensors(), 1, 4)
        with pytest.raises(ValueError):
            gen_dataset(self._sensors(), 3, 0)

    def test_save_load_round_trip(self, tmp_path):
        b = gen_dataset(self._sensors(), 2, 2, seed=5)
        save_dataset(tmp_path / "ds", b, meta={"x": 1})
        b2 = load_dataset(tmp_path / "ds")
        assert b2.classes == 2 and b2.seed == 5
        np.testing.assert_array_equal(b.labels, b2.labels)
        assert b2.window_s == b.window_s and b2.specs == b.specs
        for name in b.arrays:
            np.testing.assert_array_equal(b.arrays[name], b2.arrays[name])

    @pytest.mark.parametrize("field, value", [
        ("channels", 2.5), ("channels", True), ("conv_dim", True), ("conv_dim", 1.0),
    ])
    def test_non_int_channels_and_conv_dim_rejected(self, tmp_path, field, value):
        # conv_dim True was taken as 1D; a manifest is input from outside
        msg = f"^sensor 'u': {field} must be an integer >= 1, got {value!r}$"
        with pytest.raises(ValueError, match=msg):
            SensorSpec(**{"name": "u", "channels": 2, "rate_hz": 24, field: value})
        save_dataset(tmp_path / "ds", gen_dataset(self._sensors(), 2, 1, seed=5))
        path = tmp_path / "ds" / "manifest.json"
        man = json.loads(path.read_text())
        man["sensors"][0][field] = value
        path.write_text(json.dumps(man))
        with pytest.raises(ValueError, match=msg):
            load_dataset(tmp_path / "ds")

    def test_round_trip_keeps_bit_patterns(self, tmp_path):
        b = gen_dataset(self._sensors(), 2, 2, seed=5)
        u = b.arrays["u"]
        u[0, :6, 0] = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                       -1e-300, 0.1 + 0.2]
        u[1, :2, 1] = [np.inf, -np.inf]
        save_dataset(tmp_path / "ds", b)
        b2 = load_dataset(tmp_path / "ds")
        for name in b.arrays:
            assert b2.arrays[name].dtype == np.float64
            np.testing.assert_array_equal(b.arrays[name].view(np.uint64),
                                          b2.arrays[name].view(np.uint64))
        assert np.signbit(b2.arrays["u"][0, 0, 0])


class TestTimeline:
    def test_segment_spans_and_replay(self):
        sensors = [SensorSpec("u", 1, 20)]
        rec, spans = gen_timeline(sensors, [0, 1, 0], 1, noise_level=0.0, seed=1,
                                  classes=2)
        assert spans == [(0, NS, 0), (NS, 2 * NS, 1), (2 * NS, 3 * NS, 0)]
        srcs = recording_sources(rec, sensors)
        frames = list(stream_frames(start_sync(srcs), WindowConfig(1, 1)))
        assert len(frames) == 3

    def test_segment_rows_match_the_mask_rule(self):
        # each segment's rows are those stamped in [start, end): a 20 Hz stamp
        # lands exactly on every 2 s edge, and 100/3 Hz stamps are not a whole
        # number of nanoseconds apart
        specs = [SensorSpec("u", 2, 20), SensorSpec("w", 3, 100 / 3)]
        seq, seg_ns = [0, 2, 1, 0], 2 * NS
        rec, _ = gen_timeline(specs, seq, 2, noise_level=0.1, seed=4, classes=3)
        rng = substream(4, "timeline")
        assert {2 * NS, 4 * NS, 6 * NS} <= set(rec.tracks["u"][0].tolist())
        for j, s in enumerate(specs):
            t = rec.tracks[s.name][0]
            v = np.empty((t.size, s.channels))
            for si, cls in enumerate(seq):
                m = (t >= si * seg_ns) & (t < (si + 1) * seg_ns)
                v[m] = _class_pattern(s, cls, 3, (t / NS)[m] - si * 2.0, j)
            v = v + 0.1 * rng.standard_normal(v.shape)
            assert rec.tracks[s.name][1].tobytes() == v.tobytes(), s.name


    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), segment_ms=st.integers(50, 2500), extra=st.integers(0, 2),
           noise_level=st.sampled_from([0.0, 0.1, 0.4]), seed=st.integers(0, 2**32 - 1))
    def test_rows_per_class_match_the_per_segment_rule(self, data, segment_ms, extra,
                                                       noise_level, seed):
        # the rule of test_segment_rows_match_the_mask_rule over drawn rates,
        # segments that mostly hold no whole number of samples, and class
        # sequences with repeated classes and classes that never occur
        rates = data.draw(st.lists(st.sampled_from(TestRowsRule.RATES), min_size=1,
                                   max_size=3, unique=True))
        seq = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=8))
        classes = max(seq) + 1 + extra
        specs = [SensorSpec(f"s{i}", 1 + i, r) for i, r in enumerate(rates)]
        segment_s = Fraction(segment_ms, 1000)
        seg_ns = int(segment_s * NS)
        rec, _ = gen_timeline(specs, seq, segment_s, noise_level=noise_level, seed=seed,
                              classes=classes)
        rng = substream(seed, "timeline")
        for j, s in enumerate(specs):
            t = rec.tracks[s.name][0]
            v = np.empty((t.size, s.channels))
            for si, cls in enumerate(seq):
                m = (t >= si * seg_ns) & (t < (si + 1) * seg_ns)
                v[m] = _class_pattern(s, cls, classes, (t / NS)[m] - si * float(segment_s), j)
            if noise_level:
                v = v + noise_level * rng.standard_normal(v.shape)
            assert rec.tracks[s.name][1].tobytes() == v.tobytes(), s.name


class TestRowsRule:
    """One rows-per-window rule for the dataset, the stream and its FIFOs,
    over integer, fractional and non-terminating rates."""

    RATES = [4, 6.5, 7.5, 20, 32, 100 / 3, 119]

    @settings(max_examples=30, deadline=None)
    @given(rates=st.lists(st.sampled_from(RATES), min_size=1, max_size=2, unique=True),
           window_ms=st.integers(300, 2500), data=st.data())
    def test_dataset_rows_and_stream_fifos(self, rates, window_ms, data):
        step_ms = data.draw(st.integers(window_ms // 4, window_ms))
        sensors = [SensorSpec(f"s{i}", 1 + i, r) for i, r in enumerate(rates)]
        window = WindowConfig(Fraction(window_ms, 1000), Fraction(step_ms, 1000))

        b = gen_dataset(sensors, 2, 1, seed=1, window_s=window.window_s)
        for s in sensors:
            rows = window.timesteps(s.rate)
            assert b.arrays[s.name].shape == (2, rows, s.channels)
            t = sample_time_ns(np.arange(rows), s.rate)
            assert t.tolist() == [math.floor(m * NS / s.rate) for m in range(rows)]
            assert t[-1] < window.window_ns

        rec, _ = gen_timeline(sensors, [0, 1, 0], window.window_s, seed=2)
        sess = start_sync(recording_sources(rec, sensors))
        frames = list(stream_frames(sess, window))
        assert frames
        for s in sensors:
            assert frames[0].tensors[s.name].shape == (window.timesteps(s.rate), s.channels)
            c = sess.conservation()[s.name]
            assert c["overflowed"] == 0 and c["ok"], (s.name, c)
            assert c["produced"] == np.sum(rec.tracks[s.name][0] < frames[-1].t_end_ns)
