"""Deterministic event-driven acquisition simulation.

There is one acquisition path, sampled synchronously at each sensor's own
rate. Each Source replays one (timestamps, values) track stamped on an exact
integer-nanosecond grid in virtual time (never wall-clock), so sample counts
over whole-period durations are exact and runs are bit-reproducible. A
start-sync begins every source at the same t = 0 origin; samples flow through
bounded data-level FIFOs into a stream controller that emits sliding-window
frames with each sensor's native-rate rows. A FIFO copies no sample: it holds
index ranges into its source's track, and a window's rows are slices of it.
A stream searches each track once, for the index every frame end pushes it
to and the index every frame start cuts it at. One frame loop frames every
sensor, and each FIFO is proven on its own: one that cannot overflow is
framed as track slices with no FIFO call, its counters written when the
stream stops; any other is pushed, windowed and cut per frame. A frame whose
every window is one slice of exactly its rows is exact: its tensors are those
slices, read-only views of the tracks, and it records their first track
indices, so that frames sharing samples can be told apart from ones that do
not. Every other frame is fitted, and owns copies of its rows. Overflow and
underfill are explicit, counted events; no sample is ever silently dropped.

Also hosts the synthetic labeled-activity generator that stands in for a
real multi-sensor recording rig, and the built-in sensor catalog.

Each concept of the acquisition layer is defined once, here:
- sample_time_ns is the sample grid: sample m at rate r is stamped
  floor(m * 1e9 / r), exactly. gen_dataset and gen_timeline stamp with it,
  and so the tracks that sources replay; count_until, its inverse, counts
  the stamps before a time and so sizes a timeline.
- WindowConfig.timesteps is the rows-per-window rule (window x rate, rounded
  half up); it rejects a window shorter than the grid's widest gap, which
  may hold no sample. It sets the rows gen_dataset writes, the rows
  bundle_arrays checks, the rows stream_frames emits and the window check
  at config load, so the model's input size; FIFO_WINDOWS times it is the
  depth of each FIFO a stream drains.
- A dataset split is stored as the model's input tensors: one
  (recordings, rows, channels) array per sensor. bundle_arrays only checks
  their rows against the window and normalizes them into model inputs.
"""

from __future__ import annotations

import shutil
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .model import Frame, check_layout, normalize_inputs
from .persist import (SchemaError, check_array, check_value, labelled, read_json_checked,
                      write_json_atomic, write_npy_atomic)
from .seeding import substream

__all__ = [
    "NS",
    "SensorSpec",
    "CATALOG",
    "TABLE_SENSORS",
    "SensorFifo",
    "WindowConfig",
    "Source",
    "Session",
    "FIFO_WINDOWS",
    "start_sync",
    "stream_frames",
    "Recording",
    "DatasetBundle",
    "gen_dataset",
    "gen_timeline",
    "save_dataset",
    "load_dataset",
    "bundle_arrays",
    "DATASET_SCHEMA",
]

NS = 10**9
DATASET_SCHEMA = "edgehar.dataset/v2"
FIFO_WINDOWS = 2  # a stream's FIFO holds two windows of its sensor's samples


def _as_frac(x) -> Fraction:
    """Exact rational from int/str/Fraction; floats go through their decimal repr."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def sample_time_ns(m: np.ndarray, rate) -> np.ndarray:
    """Int64 stamps of the samples m >= 0, an integer array, at rate Hz:
    floor(m * 1e9 / rate), exact. They are computed in int64 only when no
    product m * 1e9 * denominator can wrap, else in Python ints.
    """
    r = _as_frac(rate)
    scale = NS * r.denominator
    fits64 = (int(m.max(initial=0)) + 1) * scale < 2**63 and r.numerator < 2**63
    m = m.astype(np.int64 if fits64 else object)
    return (m * scale // r.numerator).astype(np.int64)


def count_until(t_ns: int, rate) -> int:
    """Number of samples stamped before t_ns: the inverse of sample_time_ns."""
    if t_ns <= 0:
        return 0
    r = _as_frac(rate)
    # floor(m * NS / r) < t  <=>  m < t * r / NS, as t is an integer
    return -(-(t_ns * r.numerator) // (NS * r.denominator))


@dataclass(frozen=True)
class SensorSpec:
    """One modality: channel count, native rate (an int or a float) and conv
    dimensionality. Every field is checked, each error naming the sensor; the
    layout (channels, conv_dim, grid) is model.check_layout's, as a BranchSpec's."""

    name: str
    channels: int
    rate_hz: float
    conv_dim: int = 1
    grid: tuple[int, int] | None = None
    model: str = ""

    def __post_init__(self) -> None:
        label = f"sensor {self.name!r}"
        check_value(f"{label}: name", self.name, str)
        check_value(f"{label}: model", self.model, str)
        check_value(f"{label}: rate_hz", self.rate_hz, float, 0, ">")
        object.__setattr__(self, "grid",
                           check_layout(label, self.channels, self.conv_dim, self.grid))

    @property
    def rate(self) -> Fraction:
        return _as_frac(self.rate_hz)


# Built-in modality catalog: the seven feature branches of the reference rig.
CATALOG: dict[str, SensorSpec] = {
    s.name: s
    for s in [
        SensorSpec("optical", 10, 20, model="AS7431"),
        SensorSpec("gas", 2, 4, model="CCS811"),
        SensorSpec("thermal", 768, 32, conv_dim=2, grid=(24, 32), model="MLX90640"),
        SensorSpec("baro", 1, 75, model="LPS22HB"),
        SensorSpec("motion", 6, 119, model="LSM9DS1"),
        SensorSpec("magnetic", 3, 20, model="LSM9DS1"),
        SensorSpec("tof", 1, 50, model="VL53L0X"),
    ]
}

# The six physical packages (the IMU carries motion + magnetics together).
TABLE_SENSORS: list[SensorSpec] = [
    CATALOG["optical"],
    CATALOG["gas"],
    CATALOG["thermal"],
    CATALOG["baro"],
    SensorSpec("imu", 9, 119, model="LSM9DS1"),
    CATALOG["tof"],
]


# ---------------------------------------------------------------------------
# FIFO and sources
# ---------------------------------------------------------------------------

class SensorFifo:
    """Bounded FIFO of one source's samples, held as ascending (lo, hi) index
    ranges into its t_track/v_track: usually one, with a gap where samples
    overflowed. Samples enter and leave by track index: produced is the index
    of the next sample to push, and cut, set by the last drop_before, is where
    the next window starts. occupancy counts the samples held, kept by push
    and drop. Conservation: produced == consumed + occupancy + overflowed.
    A FIFO that its stream proves cannot overflow is not called per frame:
    the stream writes its counters once, when it stops, so read them once
    the stream has stopped.

    A FIFO built without a depth is unbounded until stream_frames sizes it
    for the window it drains.
    """

    def __init__(self, name: str, t_track: np.ndarray, v_track: np.ndarray,
                 depth: int | None = None):
        if depth is not None:
            check_value(f"sensor {name!r}: FIFO depth", depth, int, 1)
        self.name = name
        self.depth = depth
        self.t_track = t_track
        self.v_track = v_track
        self.ranges: list[tuple[int, int]] = []
        self.cut = 0
        self.produced = 0
        self.consumed = 0
        self.occupancy = 0
        self.overflowed = 0

    def push_until(self, hi: int) -> None:
        """Push track samples produced..hi-1 in order: the FIFO takes as many
        as it has room for, and the rest overflow."""
        lo, n = self.produced, hi - self.produced
        if n <= 0:
            return
        take = n if self.depth is None else max(0, min(n, self.depth - self.occupancy))
        self.produced = hi
        self.overflowed += n - take
        self.occupancy += take
        if take and self.ranges and self.ranges[-1][1] == lo:
            self.ranges[-1] = (self.ranges[-1][0], lo + take)
        elif take:
            self.ranges.append((lo, lo + take))

    def drop_before(self, cut: int) -> None:
        """Drop the samples of track index below cut; windows start at cut
        from now on."""
        self.cut, ranges = cut, self.ranges
        while ranges and ranges[0][0] < cut:
            lo, hi = ranges[0]
            if hi > cut:
                ranges[0] = (cut, hi)
            else:
                del ranges[0]
            gone = min(hi, cut) - lo
            self.consumed += gone
            self.occupancy -= gone

    def window(self, hi: int) -> tuple[np.ndarray, int | None]:
        """Values of the buffered samples of track index in [cut, hi), in
        order, and the track index of the first when they are one slice of the
        track: a view of v_track. Across an overflow gap they are a new array,
        and the index is None. With hi the index of the first sample stamped
        at b or later, once all before b are pushed, they are the window
        [cut, b), however far past b the FIFO was pushed."""
        clipped = ((max(lo, self.cut), min(top, hi)) for lo, top in self.ranges)
        spans = [(lo, top) for lo, top in clipped if lo < top]
        if len(spans) == 1:
            return self.v_track[slice(*spans[0])], spans[0][0]
        return np.concatenate([self.v_track[:0], *(self.v_track[lo:top] for lo, top in spans)]), None

    def conservation_ok(self) -> bool:
        return self.produced == self.consumed + self.occupancy + self.overflowed


class Source:
    """Replays one (timestamps, values) track: sample k is stamped t_ns[k],
    and the track ends at its last stamp before duration_s. The stamps must
    never decrease, and there must be one value row per stamp. v_track is a
    read-only view of values, so that an exact frame's tensors, slices of
    it, cannot be written; values itself stays writable."""

    def __init__(self, spec: SensorSpec, t_ns: np.ndarray, values: np.ndarray, duration_s):
        self.spec = spec
        self.t_track = np.asarray(t_ns)
        self.v_track = np.asarray(values).view()
        self.v_track.flags.writeable = False
        if len(self.t_track) != len(self.v_track):
            raise ValueError(f"sensor {spec.name!r}: {len(self.t_track)} stamps but "
                             f"{len(self.v_track)} value rows")
        down = np.flatnonzero(self.t_track[1:] < self.t_track[:-1])
        if down.size:
            raise ValueError(f"sensor {spec.name!r}: stamp {down[0] + 1} of its track "
                             f"is below stamp {down[0]}")
        self.duration_ns = int(_as_frac(duration_s) * NS)
        self.started = False

    def start(self) -> None:
        if self.started:
            raise RuntimeError(f"source {self.spec.name!r} already started")
        self.started = True


# ---------------------------------------------------------------------------
# Session: synchronized start + event loop
# ---------------------------------------------------------------------------

class Session:
    """Started sources, each feeding its own FIFO. fifo_depth overrides the
    depth of the named FIFOs; the others are sized by stream_frames. A FIFO
    that run_until pushed is framed per frame, each window ending at its
    frame's end. Counters and events are final once the stream has stopped."""

    def __init__(self, sources: list[Source], fifo_depth: dict[str, int] | None = None):
        unknown = set(fifo_depth or {}) - {s.spec.name for s in sources}
        if unknown:
            raise ValueError(f"fifo_depth names no sensor of the session: {sorted(unknown)}")
        self.sources = sources
        self.underfill_events: list[tuple[str, int]] = []
        self.overfill_events: list[tuple[str, int]] = []
        self.fifos: dict[str, SensorFifo] = {
            s.spec.name: SensorFifo(s.spec.name, s.t_track, s.v_track,
                                    (fifo_depth or {}).get(s.spec.name))
            for s in sources
        }

    def run_until(self, t_ns: int) -> None:
        """Push every sample stamped before t_ns and its source's end."""
        for src in self.sources:
            self.fifos[src.spec.name].push_until(
                int(src.t_track.searchsorted(min(t_ns, src.duration_ns))))

    @property
    def duration_ns(self) -> int:
        return min(s.duration_ns for s in self.sources)

    def conservation(self) -> dict[str, dict[str, int]]:
        return {
            name: {
                "produced": f.produced,
                "consumed": f.consumed,
                "occupancy": f.occupancy,
                "overflowed": f.overflowed,
                "ok": f.conservation_ok(),
            }
            for name, f in self.fifos.items()
        }


def start_sync(sources: list[Source],
               fifo_depth: dict[str, int] | None = None) -> Session:
    """Begin every source at the shared virtual-time origin t = 0."""
    if not sources:
        raise ValueError("start_sync needs at least one source")
    names = [s.spec.name for s in sources]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate sensor names: {names}")
    session = Session(sources, fifo_depth)  # checks fifo_depth before any source starts
    # started sources first: one raises on its double start before any other starts
    for s in sorted(sources, key=lambda s: not s.started):
        s.start()
    return session


# ---------------------------------------------------------------------------
# Sliding-window framing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowConfig:
    """Sliding window: frame k covers [k*step, k*step + window) seconds.

    Window and step are exact rationals; each sensor keeps its own rate, so
    a frame holds timesteps(rate) rows per branch.
    """

    window_s: Fraction
    step_s: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "window_s", _as_frac(self.window_s))
        object.__setattr__(self, "step_s", _as_frac(self.step_s))
        if self.window_s <= 0 or self.step_s <= 0:
            raise ValueError("window and step must be positive")
        if self.step_s > self.window_s:
            raise ValueError(f"step {self.step_s} s must be <= window {self.window_s} s")

    @property
    def window_ns(self) -> int:
        return int(self.window_s * NS)

    @property
    def step_ns(self) -> int:
        return int(self.step_s * NS)

    def timesteps(self, rate_hz) -> int:
        """Rows of one window at rate_hz: window x rate, rounded half up.

        Raises ValueError when a window can hold no sample: when window_ns is
        below ceil(1e9 / rate), the widest gap between two stamps of the
        sample grid.
        """
        r = _as_frac(rate_hz)
        gap = -(-NS * r.denominator // r.numerator)
        if self.window_ns < gap:
            raise ValueError(f"a {self.window_ns} ns window may hold no sample: stamps "
                             f"at {rate_hz} Hz are up to {gap} ns apart")
        return int(self.window_s * r + Fraction(1, 2))


def _fit_rows(name, rows, want, t_emit, session):
    """One tensor of a fitted frame: its window's rows as a new array forced to
    exactly `want` rows, keeping the latest on overfill and holding the last
    on underfill. Both are logged events."""
    n = len(rows)
    if n == want:
        return rows.copy()
    if n > want:
        session.overfill_events.append((name, t_emit))
        return rows[-want:].copy()
    if not n:
        raise RuntimeError(f"sensor {name!r}: no samples in window at t={t_emit}")
    session.underfill_events.append((name, t_emit))
    return rows[np.minimum(np.arange(want), n - 1)]


def stream_frames(session: Session, cfg: WindowConfig):
    """Yield one Frame per step once every sensor's window is full.

    Frame k covers [a_k, b_k) = [k*step, k*step + window) and is emitted at
    virtual time b_k, the last when b_k reaches the session's duration.
    Tensors hold raw (un-normalized) sensor values. A frame is exact when
    every window is one slice of exactly its track's next rows samples: its
    tensors are those slices, read-only views of the tracks, and its
    first_rows give each one's first track index. Any overfill trim,
    underfill hold or overflow gap makes the frame fitted: every tensor is
    then a new array (_fit_rows), and first_rows is None. Each FIFO without
    an explicit depth is sized to FIFO_WINDOWS windows of its sensor's rows.

    Each track is searched once per stream, not once per frame: one
    searchsorted over every frame end min(b_k, the source's end) gives the
    index push[k] its FIFO is pushed to before frame k, and one over every
    frame start a_0 .. a_n the index cut[k] it is cut at after frame k - 1:
    window k is the samples the FIFO holds in [cut[k], push[k]). Each FIFO
    is proven on its own. From none pushed before the stream, it holds
    push[k] - held[k] samples after frame k's push, held = [0, cut[1], ..,
    cut[n-1]] (frame 0 also holds the samples stamped before the origin).
    When that never exceeds its depth, it cannot overflow: its windows are
    track slices, and its counters are written once, as the per-frame calls
    would leave them, when the stream stops (it ends, raises or is closed).
    Every other FIFO is pushed and windowed for each frame, before any window
    is fitted, and cut once the frame is consumed; push_until counts its
    overflow. Either way the session's counters are final once its stream
    has stopped.
    """
    step_ns, window_ns = cfg.step_ns, cfg.window_ns
    n = max(0, (session.duration_ns - window_ns) // step_ns + 1)
    starts = np.arange(n + 1, dtype=np.int64) * step_ns
    whole = np.ones(n, dtype=bool)  # frames whose every proven slice is exactly its rows
    fifos = []  # (fifo, rows, push index per frame, cut index per frame start, proven)
    for src in session.sources:
        fifo, rows = session.fifos[src.spec.name], cfg.timesteps(src.spec.rate)
        if fifo.depth is None:
            fifo.depth = FIFO_WINDOWS * rows
        push = src.t_track.searchsorted(np.minimum(starts[:n] + window_ns, src.duration_ns))
        cut = src.t_track.searchsorted(starts)
        proven = not fifo.produced and bool((push - np.append(0, cut[1:n]) <= fifo.depth).all())
        if proven:
            whole &= push - cut[:n] == rows
        fifo.drop_before(int(cut[0]))  # frame 0's window starts at 0
        fifos.append((fifo, rows, push.tolist(), cut.tolist(), proven))
    looped = [(fifo, cut) for fifo, _, _, cut, proven in fifos if not proven]
    pushed = done = 0  # frames pushed, and frames consumed and cut
    try:
        for k, exact in enumerate(whole.tolist()):
            a = k * step_ns
            b, pushed = a + window_ns, k + 1
            tensors, first = {}, {}
            for fifo, rows, p, c, proven in fifos:
                if proven:
                    tensors[fifo.name], first[fifo.name] = fifo.v_track[c[k]:p[k]], c[k]
                else:
                    fifo.push_until(p[k])
                    x, i = tensors[fifo.name], first[fifo.name] = fifo.window(p[k])
                    exact = exact and i is not None and len(x) == rows
            if not exact:
                tensors = {fifo.name: _fit_rows(fifo.name, tensors[fifo.name], rows, b, session)
                           for fifo, rows, _, _, _ in fifos}
            yield Frame(tensors, a, b, first if exact else None)
            done = k + 1
            for fifo, cut in looped:
                fifo.drop_before(cut[k + 1])
    finally:  # each proven FIFO's counters, as pushing and cutting it per frame leaves them
        for fifo, _, push, cut, proven in fifos:
            if proven:
                fifo.produced = push[pushed - 1] if pushed else 0
                fifo.consumed = cut[done] if done else 0
                fifo.cut, fifo.occupancy = cut[done], fifo.produced - fifo.consumed
                fifo.ranges = [(fifo.consumed, fifo.produced)] if fifo.occupancy else []


# ---------------------------------------------------------------------------
# Synthetic labeled dataset
# ---------------------------------------------------------------------------

@dataclass
class Recording:
    """One continuous multi-sensor capture: per-sensor timestamp/value tracks."""

    tracks: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (t_ns, values)
    duration_ns: int


@dataclass
class DatasetBundle:
    """One split: per sensor a (recordings, rows, channels) array holding one
    window per recording on the sample grid, and one label per recording."""

    specs: list[SensorSpec]
    arrays: dict[str, np.ndarray]
    labels: np.ndarray
    classes: int
    informative: dict[str, bool]
    noise_level: float
    seed: int
    window_s: Fraction

    def norm_stats(self) -> dict[str, tuple[float, float]]:
        stats = {}
        for s in self.specs:
            lo, hi = float(self.arrays[s.name].min()), float(self.arrays[s.name].max())
            if hi <= lo:
                hi = lo + 1.0
            stats[s.name] = (lo, hi)
        return stats


def _class_pattern(spec: SensorSpec, code: int, n_codes: int, t_s: np.ndarray,
                   sensor_idx: int) -> np.ndarray:
    """Deterministic per-(code, sensor) signal: a two-tone mixture whose
    fundamental is a code-dependent fraction of the sensor's Nyquist rate,
    so every modality sees resolvable, well-separated patterns."""
    ch = np.arange(spec.channels)
    phase = 2.0 * np.pi * ch / max(2, spec.channels)
    nyq = float(spec.rate_hz) / 2.0
    frac = (code + 1.0) / (n_codes + 1.0)
    f1 = 0.8 * nyq * frac * (1.0 + 0.03 * sensor_idx)
    f2 = min(1.7 * f1, 0.9 * nyq)
    amp = 0.6 + 0.4 * code / max(1, n_codes - 1)
    base = np.sin(2 * np.pi * f1 * t_s[:, None] + phase[None, :])
    tone = 0.4 * np.sin(2 * np.pi * f2 * t_s[:, None] + 0.7 * phase[None, :])
    return amp * (base + tone)


def gen_dataset(
    specs: list[SensorSpec],
    classes: int,
    n_per_class: int,
    informative: dict[str, bool] | None = None,
    noise_level: float = 0.1,
    seed: int = 0,
    window_s=1.0,
    class_code=None,
) -> DatasetBundle:
    """Per class, informative modalities carry a class-dependent deterministic
    pattern plus noise; uninformative modalities carry pure unit noise.
    Each recording spans exactly one window.

    class_code optionally maps sensor name -> fn(class) -> code, making a
    modality see only an aspect of the label (e.g. one bit of it); modalities
    then complement instead of duplicating each other.
    """
    check_value("classes", classes, int, 2)
    check_value("n_per_class", n_per_class, int, 1)
    window = WindowConfig(window_s, window_s)
    informative = dict(informative or {s.name: True for s in specs})
    for s in specs:
        informative.setdefault(s.name, True)
    class_code = class_code or {}
    n_codes = {
        s.name: len({class_code[s.name](c) for c in range(classes)})
        if s.name in class_code
        else classes
        for s in specs
    }
    t_s = {s.name: sample_time_ns(np.arange(window.timesteps(s.rate)), s.rate) / NS
           for s in specs}
    arrays = {s.name: np.empty((classes * n_per_class, t_s[s.name].size, s.channels))
              for s in specs}
    for cls in range(classes):
        patterns = {
            s.name: _class_pattern(s, class_code.get(s.name, lambda c: c)(cls),
                                   n_codes[s.name], t_s[s.name], j)
            for j, s in enumerate(specs) if informative[s.name]
        }
        for inst in range(n_per_class):
            rng = substream(seed, f"rec:c{cls}:i{inst}")
            for s in specs:
                out = arrays[s.name][cls * n_per_class + inst]
                if s.name not in patterns:
                    out[:] = rng.standard_normal(out.shape)
                elif noise_level:
                    out[:] = patterns[s.name] + noise_level * rng.standard_normal(out.shape)
                else:
                    out[:] = patterns[s.name]
    labels = np.repeat(np.arange(classes, dtype=np.int64), n_per_class)
    return DatasetBundle(list(specs), arrays, labels, classes, informative,
                         float(noise_level), int(seed), window.window_s)


def gen_timeline(
    specs: list[SensorSpec],
    class_seq: list[int],
    segment_s,
    noise_level: float = 0.1,
    seed: int = 0,
    classes: int | None = None,
) -> tuple[Recording, list[tuple[int, int, int]]]:
    """A long continuous recording cycling through class_seq, one segment per
    entry. Returns the recording and (t_start_ns, t_end_ns, label) truth spans.
    A row stamped in segment si takes its class's pattern at local time
    t_s - si * segment_s, made by one _class_pattern call per sensor and class."""
    if not class_seq:
        raise ValueError("class_seq is empty")
    segment_s = _as_frac(segment_s)
    classes = classes if classes is not None else max(class_seq) + 1
    seg_ns = int(segment_s * NS)
    total_ns = seg_ns * len(class_seq)
    rng = substream(seed, "timeline")
    tracks = {}
    for j, s in enumerate(specs):
        t = sample_time_ns(np.arange(count_until(total_ns, s.rate)), s.rate)
        edges = t.searchsorted(np.arange(len(class_seq) + 1) * seg_ns)
        seg = np.repeat(np.arange(len(class_seq)), np.diff(edges))  # each row's segment
        local = t / NS - seg * float(segment_s)
        row_cls = np.asarray(class_seq)[seg]
        order = row_cls.argsort(kind="stable")  # the rows, grouped by class
        bounds = [0, *np.bincount(row_cls, minlength=max(class_seq) + 1).cumsum().tolist()]
        v = np.empty((t.size, s.channels))
        for cls in set(class_seq):
            rows = order[bounds[cls]:bounds[cls + 1]]
            v[rows] = _class_pattern(s, cls, classes, local[rows], j)
        if noise_level:
            v += noise_level * rng.standard_normal(v.shape)
        tracks[s.name] = (t, v)
    spans = [(i * seg_ns, (i + 1) * seg_ns, c) for i, c in enumerate(class_seq)]
    return Recording(tracks, total_ns), spans


def recording_sources(rec: Recording, specs: list[SensorSpec]) -> list[Source]:
    return [
        Source(s, rec.tracks[s.name][0], rec.tracks[s.name][1], Fraction(rec.duration_ns, NS))
        for s in specs
    ]


def bundle_arrays(bundle: DatasetBundle, names, stats=None):
    """Model inputs of a split: the arrays of the sensors in names, normalized
    with stats (the bundle's own by default), and the labels. Every array
    must hold one window's rows."""
    if not bundle.labels.size:
        raise ValueError("dataset has no recordings")
    window = WindowConfig(bundle.window_s, bundle.window_s)
    specs = {s.name: s for s in bundle.specs}
    for name in names:
        rows, want = bundle.arrays[name].shape[1], window.timesteps(specs[name].rate)
        if rows != want:
            raise RuntimeError(f"sensor {name!r}: recording rows {rows} "
                               f"!= window timesteps {want}")
    raw = {name: bundle.arrays[name] for name in names}
    return normalize_inputs(raw, stats or bundle.norm_stats()), bundle.labels


# ---------------------------------------------------------------------------
# Dataset persistence: manifest + one (recordings, rows, channels) .npy per sensor
# ---------------------------------------------------------------------------

def save_dataset(out_dir, bundle: DatasetBundle, meta: dict | None = None) -> None:
    """Write a split as manifest.json plus <sensor>.npy for each sensor. Plain
    .npy, not .npz, whose zip entries carry write times: reruns stay
    byte-identical. Timestamps are not stored; the sample grid gives them."""
    out = Path(out_dir)
    manifest = {
        "schema": DATASET_SCHEMA,
        "classes": bundle.classes,
        "informative": bundle.informative,
        "noise_level": bundle.noise_level,
        "seed": bundle.seed,
        "window_s": str(bundle.window_s),
        "labels": bundle.labels.tolist(),
        "sensors": [asdict(s) for s in bundle.specs],
        "meta": meta or {},
    }
    for s in bundle.specs:
        write_npy_atomic(out / f"{s.name}.npy", bundle.arrays[s.name])
    write_json_atomic(out / "manifest.json", manifest)
    # a v1 split kept each recording as rec_NNNN/<sensor>.csv; nothing reads them now
    for d in out.glob("rec_[0-9]*"):
        files = list(d.iterdir()) if d.is_dir() else []
        if files and all(f.is_file() and f.suffix == ".csv" for f in files):
            shutil.rmtree(d)


def load_dataset(in_dir) -> DatasetBundle:
    """A split saved by save_dataset. A sensor entry SensorSpec rejects fails
    naming the sensor; bad labels (check_array's rule, one list), a badly
    shaped manifest or a .npy of the wrong dtype or shape names its file."""
    root = Path(in_dir)
    path = root / "manifest.json"
    man = read_json_checked(path, DATASET_SCHEMA)
    with labelled(path, values=False):
        specs = [SensorSpec(**d) for d in man["sensors"]]
    with labelled(path):
        labels = check_array("labels", man["labels"], int)
        if labels.ndim != 1:
            raise ValueError(f"labels must be a list of integers, got shape {labels.shape}")
        info = (man["classes"], man["informative"], man["noise_level"], man["seed"],
                Fraction(man["window_s"]))
    arrays = {}
    for s in specs:
        npy = root / f"{s.name}.npy"
        v = np.load(npy, allow_pickle=False)
        if v.dtype != np.float64 or v.ndim != 3 or v.shape[::2] != (labels.size, s.channels):
            raise SchemaError(f"{npy}: {v.dtype} array of shape {v.shape}, expected "
                              f"float64 ({labels.size}, rows, {s.channels})")
        arrays[s.name] = v
    return DatasetBundle(specs, arrays, labels, *info)
