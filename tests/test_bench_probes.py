"""The benchmark's probes name live API.

BENCHMARK.json's per-layer metrics are named after the functions the
outside-in tracer wraps (``<module>.<function>.…``), and its harness reads
a streamed session's FIFO counters and fill events. These tests read the
file without changing it, so removing or renaming any of that API fails
here instead of only in a traced benchmark run. The per-layer conv probes
take their branch and depth from the where= keyword of each
engine.qconv_layer call, so that keyword is checked here too.
"""

import importlib
import inspect
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from edgehar import engine
from edgehar.daq import (
    SensorSpec,
    WindowConfig,
    gen_timeline,
    recording_sources,
    start_sync,
    stream_frames,
)

from conftest import random_qmodel

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TRACED_MODULES = ("daq", "model", "train", "quantize", "engine", "persist")
METHODS = {("daq", "Session"): "run_until"}


def _probe_functions():
    """(name, module, attribute, next part) for every per-layer metric named
    after a function or method of a traced module."""
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    for name in names:
        mod, *rest = name.split(".")
        if mod in TRACED_MODULES and len(rest) >= 2:  # "daq.self_s" names a module
            yield name, mod, rest[0], rest[1]


def test_benchmark_names_functions_in_all():
    probes = list(_probe_functions())
    assert {mod for _, mod, _, _ in probes} == set(TRACED_MODULES)
    for name, mod, attr, nxt in probes:
        module = importlib.import_module(f"edgehar.{mod}")
        assert attr in module.__all__, f"{name}: {attr!r} not in edgehar.{mod}.__all__"
        obj = getattr(module, attr)
        meth = METHODS.get((mod, attr))
        if meth is None:
            assert inspect.isfunction(obj), f"{name}: {attr!r} is not a function"
        else:
            assert nxt == meth, name
            assert inspect.isfunction(inspect.getattr_static(obj, meth)), name


def test_streamed_session_exposes_counters():
    sensors = [SensorSpec("a", 2, 20), SensorSpec("b", 1, 6.5)]
    rec, _ = gen_timeline(sensors, [0, 1], 1, seed=3)
    sess = start_sync(recording_sources(rec, sensors))
    frames = list(stream_frames(sess, WindowConfig(1, Fraction(1, 2))))
    assert frames
    for fifo in sess.fifos.values():
        assert isinstance(fifo.produced, int) and fifo.produced > 0
        assert fifo.overflowed == 0
    assert isinstance(sess.underfill_events, list)
    assert isinstance(sess.overfill_events, list)
    assert sess.underfill_events  # 6.5 Hz rows round up past some windows' samples
    cons = sess.conservation()
    assert set(cons) == {"a", "b"} and all(c["ok"] for c in cons.values())
    assert sum(c["produced"] for c in cons.values()) == sum(
        int(np.sum(rec.tracks[s.name][0] < frames[-1].t_end_ns)) for s in sensors)


def test_qconv_calls_name_branch_and_layer(monkeypatch):
    # the tracer reads where= only as a keyword; a call that passes it by
    # position, or in another form, leaves its per-layer probes at 0
    real, wheres = engine.qconv_layer, []

    def spy(*args, **kwargs):
        assert len(args) <= 4 and "where" in kwargs, (len(args), kwargs)
        wheres.append(kwargs["where"])
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "qconv_layer", spy)
    for seed in range(4):
        qm, qframe = random_qmodel(np.random.default_rng(seed), 8)
        want = [f"branch {b.name!r} layer {d}" for b in qm.spec.branches for d in range(3)]
        wheres.clear()
        engine.qinfer(qm, qframe)
        assert wheres == want
        wheres.clear()
        engine.qinfer_batch(qm, {k: np.stack([v, v // 2]) / 2.0**8 for k, v in qframe.items()})
        assert wheres == want
