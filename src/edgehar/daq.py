"""Deterministic event-driven acquisition simulation.

Sensors sample on exact integer-nanosecond grids in virtual time (never
wall-clock), so sample counts over whole-period durations are exact and runs
are bit-reproducible. A start-sync begins every source at the same t = 0
origin; samples flow through bounded data-level FIFOs into a stream
controller that emits sliding-window frames. Overflow and underfill are
explicit, counted events; no sample is ever silently dropped.

Also hosts the synthetic labeled-activity generator that stands in for a
real multi-sensor recording rig, and the built-in sensor catalog.

Each concept of the acquisition layer is defined once, here:
- sample_time_ns is the sample grid: sample m at rate r is stamped
  floor(m * 1e9 / r), exactly. Sources, gen_dataset, gen_timeline and
  resample's target grid all stamp with it; count_until, its inverse, counts
  the stamps before a time and so bounds resample's grid and sizes a
  timeline.
- WindowConfig.timesteps is the rows-per-window rule (window x rate, rounded
  half up). It sets the rows gen_dataset writes, the rows bundle_arrays
  checks, the rows stream_frames emits and the window check at config load,
  so the model's input size; FIFO_WINDOWS times it is the depth of each FIFO
  a stream drains.
- bundle_arrays is the one path from stored recordings to model inputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .seeding import substream

__all__ = [
    "NS",
    "SensorSpec",
    "CATALOG",
    "TABLE_SENSORS",
    "SensorFifo",
    "WindowConfig",
    "Source",
    "SignalSource",
    "RecordingSource",
    "Session",
    "FIFO_WINDOWS",
    "start_sync",
    "stream_frames",
    "resample",
    "jitter_model",
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
DATASET_SCHEMA = "edgehar.dataset/v1"
FIFO_WINDOWS = 2  # a stream's FIFO holds two windows of its sensor's samples


def _as_frac(x) -> Fraction:
    """Exact rational from int/str/Fraction; floats go through their decimal repr."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def sample_time_ns(m, rate):
    """Stamp of sample m >= 0 at rate Hz: floor(m * 1e9 / rate), exact.

    m is an int or an integer array. An array is computed in int64 only when
    no product m * 1e9 * denominator can wrap, else in Python ints.
    """
    r = _as_frac(rate)
    scale = NS * r.denominator
    if isinstance(m, np.ndarray):
        fits64 = (int(m.max(initial=0)) + 1) * scale < 2**63 and r.numerator < 2**63
        m = m.astype(np.int64 if fits64 else object)
        return (m * scale // r.numerator).astype(np.int64)
    return m * scale // r.numerator


def count_until(t_ns: int, rate) -> int:
    """Number of samples stamped before t_ns: the inverse of sample_time_ns."""
    if t_ns <= 0:
        return 0
    r = _as_frac(rate)
    # floor(m * NS / r) < t  <=>  m < t * r / NS, as t is an integer
    return -(-(t_ns * r.numerator) // (NS * r.denominator))


@dataclass(frozen=True)
class SensorSpec:
    """One modality: channel count, native rate, and conv dimensionality."""

    name: str
    channels: int
    rate_hz: float
    conv_dim: int = 1
    grid: tuple[int, int] | None = None
    model: str = ""

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError(f"sensor {self.name!r} needs channels >= 1")
        if not self.rate_hz > 0:
            raise ValueError(f"sensor {self.name!r} needs a positive rate")
        if self.conv_dim == 2 and (
            self.grid is None or self.grid[0] * self.grid[1] != self.channels
        ):
            raise ValueError(f"sensor {self.name!r}: 2D sensors need a matching grid")

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
    """Bounded FIFO of (timestamp, channel vector) samples with conservation
    counters: produced == consumed + occupancy + overflowed at all times.

    A FIFO built without a depth is unbounded until stream_frames sizes it
    for the window it drains.
    """

    def __init__(self, name: str, depth: int | None = None):
        if depth is not None and depth < 1:
            raise ValueError("FIFO depth must be >= 1")
        self.name = name
        self.depth = depth
        self.buf: deque = deque()
        self.produced = 0
        self.consumed = 0
        self.overflowed = 0

    @property
    def occupancy(self) -> int:
        return len(self.buf)

    def push(self, t_ns: int, values: np.ndarray) -> bool:
        self.produced += 1
        if self.depth is not None and len(self.buf) >= self.depth:
            self.overflowed += 1
            return False
        self.buf.append((t_ns, values))
        return True

    def drop_older_than(self, t_ns: int) -> None:
        while self.buf and self.buf[0][0] < t_ns:
            self.buf.popleft()
            self.consumed += 1

    def window(self, a_ns: int, b_ns: int) -> list[tuple[int, np.ndarray]]:
        return [s for s in self.buf if a_ns <= s[0] < b_ns]

    def conservation_ok(self) -> bool:
        return self.produced == self.consumed + self.occupancy + self.overflowed


class Source:
    """Base sampler: exact nominal grid, optional deterministic interval jitter."""

    def __init__(self, spec: SensorSpec, duration_s, jitter_ppm: float = 0.0,
                 jitter_seed: int = 0):
        self.spec = spec
        self.duration_ns = int(_as_frac(duration_s) * NS)
        self.jitter_ppm = float(jitter_ppm)
        self.jitter_seed = jitter_seed
        self.started = False
        self._k = 0
        self._t = 0
        self._rng = None
        self._period = Fraction(NS) / spec.rate

    def start(self) -> None:
        if self.started:
            raise RuntimeError(f"source {self.spec.name!r} already started")
        self.started = True
        self._k = 0
        self._t = 0
        if self.jitter_ppm:
            self._rng = substream(self.jitter_seed, f"jitter:{self.spec.name}")

    def _advance(self) -> None:
        self._k += 1
        if self.jitter_ppm:
            u = self._rng.uniform(-1.0, 1.0)
            step = float(self._period) * (1.0 + u * self.jitter_ppm * 1e-6)
            self._t += max(1, int(round(step)))
        else:
            self._t = sample_time_ns(self._k, self.spec.rate)

    def peek_time(self) -> int | None:
        return self._t if self._t < self.duration_ns else None

    def emit(self) -> tuple[int, np.ndarray]:
        t, k = self._t, self._k
        self._advance()
        return t, self.values(k, t)

    def values(self, k: int, t_ns: int) -> np.ndarray:
        raise NotImplementedError


class SignalSource(Source):
    """Samples a deterministic function of (sample index, timestamp)."""

    def __init__(self, spec, duration_s, fn, **kw):
        super().__init__(spec, duration_s, **kw)
        self.fn = fn

    def values(self, k, t_ns):
        return np.asarray(self.fn(k, t_ns), dtype=np.float64).reshape(self.spec.channels)


class RecordingSource(Source):
    """Replays a stored (timestamps, values) track through the live pipeline."""

    def __init__(self, spec, t_ns: np.ndarray, values: np.ndarray, duration_s):
        super().__init__(spec, duration_s)
        self.t_track = np.asarray(t_ns)
        self.v_track = np.asarray(values)

    def peek_time(self) -> int | None:
        if self._k >= self.t_track.shape[0]:
            return None
        t = int(self.t_track[self._k])
        return t if t < self.duration_ns else None

    def emit(self):
        k = self._k
        self._k += 1
        return int(self.t_track[k]), self.v_track[k]


# ---------------------------------------------------------------------------
# Session: synchronized start + event loop
# ---------------------------------------------------------------------------

class Session:
    """Started sources, each feeding its own FIFO. fifo_depth overrides the
    depth of the named FIFOs; the others are sized by stream_frames."""

    def __init__(self, sources: list[Source], fifo_depth: dict[str, int] | None = None):
        self.sources = sources
        self.underfill_events: list[tuple[str, int]] = []
        self.overfill_events: list[tuple[str, int]] = []
        self.fifos: dict[str, SensorFifo] = {
            s.spec.name: SensorFifo(s.spec.name, (fifo_depth or {}).get(s.spec.name))
            for s in sources
        }

    def run_until(self, t_ns: int) -> None:
        """Push every sample stamped before t_ns. The FIFOs do not interact,
        so each source's samples go in order, one source after another."""
        for src in self.sources:
            fifo = self.fifos[src.spec.name]
            t = src.peek_time()
            while t is not None and t < t_ns:
                fifo.push(*src.emit())
                t = src.peek_time()

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
    for s in sources:
        s.start()  # raises on double start
    return Session(sources, fifo_depth)


# ---------------------------------------------------------------------------
# Sliding-window framing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowConfig:
    """Sliding window: frame k covers [k*step, k*step + window) seconds.

    Window and step are exact rationals; alignment "native" keeps each
    sensor's own rate (timesteps(rate) rows per branch), "common"
    resamples every sensor onto target_hz inside the window.
    """

    window_s: Fraction
    step_s: Fraction
    mode: str = "native"
    target_hz: float | None = None
    method: str = "linear"

    def __post_init__(self) -> None:
        object.__setattr__(self, "window_s", _as_frac(self.window_s))
        object.__setattr__(self, "step_s", _as_frac(self.step_s))
        if self.window_s <= 0 or self.step_s <= 0:
            raise ValueError("window and step must be positive")
        if self.step_s > self.window_s:
            raise ValueError("step must be <= window")
        if self.mode not in ("native", "common"):
            raise ValueError(f"unknown alignment mode {self.mode!r}")
        if self.mode == "common" and not self.target_hz:
            raise ValueError("common-rate mode needs target_hz")

    @property
    def window_ns(self) -> int:
        return int(self.window_s * NS)

    @property
    def step_ns(self) -> int:
        return int(self.step_s * NS)

    def timesteps(self, rate_hz) -> int:
        """Rows of one window at rate_hz: window x rate, rounded half up."""
        n = self.window_s * _as_frac(rate_hz)
        rows = int(n + Fraction(1, 2))
        if rows < 1:
            raise ValueError(f"window {self.window_s}s too short at {rate_hz} Hz")
        return rows

    @classmethod
    def for_timesteps(cls, n: int, rate_hz, step_s=None, **kw) -> "WindowConfig":
        """Window sized to hold exactly n samples of a rate_hz sensor."""
        w = Fraction(n) / _as_frac(rate_hz)
        return cls(w, _as_frac(step_s) if step_s is not None else w, **kw)


def _fit_rows(name, samples, want, t_emit, session):
    """Force a window's sample list to exactly `want` rows: keep the latest on
    overfill, hold the last sample on underfill. Both are logged events."""
    if len(samples) == want:
        return samples
    if len(samples) > want:
        session.overfill_events.append((name, t_emit))
        return samples[-want:]
    if not samples:
        raise RuntimeError(f"sensor {name!r}: no samples in window at t={t_emit}")
    session.underfill_events.append((name, t_emit))
    return samples + [samples[-1]] * (want - len(samples))


def stream_frames(session: Session, cfg: WindowConfig):
    """Yield one Frame per step once every sensor's window is full.

    Frame k covers [k*step, k*step + window) and is emitted at virtual time
    k*step + window. Tensors hold raw (un-normalized) sensor values. Each
    FIFO without an explicit depth is sized to FIFO_WINDOWS windows of its
    sensor's rows.
    """
    from .model import Frame

    rows = {s.spec.name: cfg.timesteps(s.spec.rate) for s in session.sources}
    for name, fifo in session.fifos.items():
        if fifo.depth is None:
            fifo.depth = FIFO_WINDOWS * rows[name]
    want = (dict.fromkeys(rows, cfg.timesteps(cfg.target_hz)) if cfg.mode == "common"
            else rows)
    k = 0
    while True:
        a = k * cfg.step_ns
        b = a + cfg.window_ns
        if b > session.duration_ns:
            return
        session.run_until(b)
        tensors = {}
        for name, fifo in session.fifos.items():
            samples = fifo.window(a, b)
            if cfg.mode == "common":
                t = np.array([s[0] for s in samples], dtype=np.int64)
                v = np.stack([s[1] for s in samples])
                tg, vg = resample(t, v, cfg.target_hz, cfg.method,
                                  t_min=a, t_max=b - 1, clamp=True)
                samples = list(zip(tg.tolist(), vg))
            samples = _fit_rows(name, samples, want[name], b, session)
            tensors[name] = np.array([s[1] for s in samples])
        yield Frame(tensors, a, b)
        k += 1
        for fifo in session.fifos.values():
            fifo.drop_older_than(k * cfg.step_ns)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def resample(
    t_ns: np.ndarray,
    values: np.ndarray,
    target_hz,
    method: str = "linear",
    t_min: int | None = None,
    t_max: int | None = None,
    clamp: bool = False,
):
    """Re-time a sampled stream onto the target rate's sample grid.

    The grid is sample_time_ns at target_hz, anchored at the acquisition
    origin t = 0. Without clamp,
    asking for grid points outside [t_ns[0], t_ns[-1]] is an extrapolation
    error; with clamp, boundary values hold.
    """
    if method not in ("nearest", "linear"):
        raise ValueError(f"unknown resampling method {method!r}")
    r = _as_frac(target_hz)
    if r <= 0:
        raise ValueError("target rate must be positive")
    t_ns = np.asarray(t_ns, dtype=np.int64)
    if t_ns.size == 0:
        raise ValueError("cannot resample an empty stream")
    values = np.asarray(values, dtype=np.float64)
    lo = int(t_ns[0]) if t_min is None else t_min
    hi = int(t_ns[-1]) if t_max is None else t_max
    ms = np.arange(count_until(lo, r), count_until(hi + 1, r))  # stamps in [lo, hi]
    if ms.size == 0:
        raise ValueError("target grid has no points inside the stream span")
    grid = sample_time_ns(ms, r)
    if not clamp and (grid[0] < t_ns[0] or grid[-1] > t_ns[-1]):
        raise ValueError(
            f"extrapolation: grid spans [{grid[0]}, {grid[-1]}] ns but samples "
            f"cover [{t_ns[0]}, {t_ns[-1]}] ns"
        )
    if method == "nearest":
        pos = np.searchsorted(t_ns, grid)
        pos = np.clip(pos, 0, t_ns.size - 1)
        left = np.clip(pos - 1, 0, t_ns.size - 1)
        d_right = np.abs(t_ns[pos] - grid)
        d_left = np.abs(grid - t_ns[left])
        pick = np.where(d_left <= d_right, left, pos)  # ties take the earlier sample
        out = values[pick]
    else:
        ts = t_ns.astype(np.float64)
        gs = grid.astype(np.float64)
        out = np.stack(
            [np.interp(gs, ts, values[:, c]) for c in range(values.shape[1])], axis=1
        )
    return grid.astype(np.int64), out


def jitter_model(source: Source, jitter_ppm: float, seed: int = 0) -> Source:
    """Return a copy of a signal source with bounded deterministic rate jitter."""
    if jitter_ppm < 0:
        raise ValueError("jitter_ppm must be >= 0")
    if not isinstance(source, SignalSource):
        raise TypeError("jitter applies to signal sources")
    return SignalSource(
        source.spec,
        Fraction(source.duration_ns, NS),
        source.fn,
        jitter_ppm=jitter_ppm,
        jitter_seed=seed,
    )


# ---------------------------------------------------------------------------
# Synthetic labeled dataset
# ---------------------------------------------------------------------------

@dataclass
class Recording:
    """One labeled multi-sensor capture: per-sensor timestamp/value tracks."""

    tracks: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (t_ns, values)
    duration_ns: int
    label: int


@dataclass
class DatasetBundle:
    specs: list[SensorSpec]
    recordings: list[Recording]
    classes: int
    informative: dict[str, bool]
    noise_level: float
    seed: int
    window_s: Fraction

    @property
    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.recordings], dtype=np.int64)

    def norm_stats(self) -> dict[str, tuple[float, float]]:
        stats = {}
        for s in self.specs:
            lo = min(float(r.tracks[s.name][1].min()) for r in self.recordings)
            hi = max(float(r.tracks[s.name][1].max()) for r in self.recordings)
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
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
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
    times = {s.name: sample_time_ns(np.arange(window.timesteps(s.rate)), s.rate)
             for s in specs}
    recordings = []
    for cls in range(classes):
        for inst in range(n_per_class):
            rng = substream(seed, f"rec:c{cls}:i{inst}")
            tracks = {}
            for j, s in enumerate(specs):
                t = times[s.name]
                if informative[s.name]:
                    code = class_code.get(s.name, lambda c: c)(cls)
                    v = _class_pattern(s, code, n_codes[s.name], t / NS, j)
                    if noise_level:
                        v = v + noise_level * rng.standard_normal(v.shape)
                else:
                    v = rng.standard_normal((t.size, s.channels))
                tracks[s.name] = (t, v)
            recordings.append(Recording(tracks, window.window_ns, cls))
    return DatasetBundle(list(specs), recordings, classes, informative,
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
    entry. Returns the recording and (t_start_ns, t_end_ns, label) truth spans."""
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
        t_s = t / NS
        v = np.empty((t.size, s.channels))
        for si, cls in enumerate(class_seq):
            m = (t >= si * seg_ns) & (t < (si + 1) * seg_ns)
            v[m] = _class_pattern(s, cls, classes, t_s[m] - si * float(segment_s), j)
        if noise_level:
            v = v + noise_level * rng.standard_normal(v.shape)
        tracks[s.name] = (t, v)
    spans = [(i * seg_ns, (i + 1) * seg_ns, c) for i, c in enumerate(class_seq)]
    return Recording(tracks, total_ns, -1), spans


def recording_sources(rec: Recording, specs: list[SensorSpec]) -> list[Source]:
    return [
        RecordingSource(s, rec.tracks[s.name][0], rec.tracks[s.name][1],
                        Fraction(rec.duration_ns, NS))
        for s in specs
    ]


def bundle_arrays(bundle: DatasetBundle, names, stats=None):
    """Model inputs of a dataset: {name: (recordings, rows, channels)} for each
    sensor in names, normalized with stats (the bundle's own by default), and
    the labels. Every track must hold one window's rows."""
    from .model import normalize_inputs

    if not bundle.recordings:
        raise ValueError("dataset has no recordings")
    stats = stats or bundle.norm_stats()
    window = WindowConfig(bundle.window_s, bundle.window_s)
    specs = {s.name: s for s in bundle.specs}
    raw = {}
    for name in names:
        want = window.timesteps(specs[name].rate)
        tracks = [rec.tracks[name][1] for rec in bundle.recordings]
        for v in tracks:
            if v.shape[0] != want:
                raise RuntimeError(f"sensor {name!r}: recording rows {v.shape[0]} "
                                   f"!= window timesteps {want}")
        raw[name] = np.stack(tracks)
    return normalize_inputs(raw, stats).tensors, bundle.labels


# ---------------------------------------------------------------------------
# Dataset persistence: manifest + one CSV per sensor per recording
# ---------------------------------------------------------------------------

def save_dataset(out_dir, bundle: DatasetBundle, meta: dict | None = None) -> None:
    from .persist import write_json_atomic, write_text_atomic

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema": DATASET_SCHEMA,
        "classes": bundle.classes,
        "informative": bundle.informative,
        "noise_level": bundle.noise_level,
        "seed": bundle.seed,
        "window_s": str(bundle.window_s),
        "labels": bundle.labels.tolist(),
        "sensors": [
            {
                "name": s.name, "channels": s.channels, "rate_hz": s.rate_hz,
                "conv_dim": s.conv_dim, "grid": list(s.grid) if s.grid else None,
                "model": s.model,
            }
            for s in bundle.specs
        ],
        "meta": meta or {},
    }
    for i, rec in enumerate(bundle.recordings):
        rec_dir = out / f"rec_{i:04d}"
        rec_dir.mkdir(exist_ok=True)
        for s in bundle.specs:
            t, v = rec.tracks[s.name]
            header = "timestamp_ns," + ",".join(f"ch{c}" for c in range(s.channels))
            lines = [header]
            for row_t, row_v in zip(t.tolist(), v.tolist()):
                lines.append(str(row_t) + "," + ",".join(repr(x) for x in row_v))
            write_text_atomic(rec_dir / f"{s.name}.csv", "\n".join(lines) + "\n")
    write_json_atomic(out / "manifest.json", manifest)


def load_dataset(in_dir) -> DatasetBundle:
    from .persist import read_json_checked

    root = Path(in_dir)
    man = read_json_checked(root / "manifest.json", DATASET_SCHEMA)
    specs = [
        SensorSpec(d["name"], d["channels"], d["rate_hz"], d["conv_dim"],
                   tuple(d["grid"]) if d["grid"] else None, d.get("model", ""))
        for d in man["sensors"]
    ]
    window_s = Fraction(man["window_s"])
    duration_ns = int(window_s * NS)
    recordings = []
    for i, label in enumerate(man["labels"]):
        rec_dir = root / f"rec_{i:04d}"
        tracks = {}
        for s in specs:
            rows = (rec_dir / f"{s.name}.csv").read_text().strip().split("\n")[1:]
            t = np.empty(len(rows), dtype=np.int64)
            v = np.empty((len(rows), s.channels))
            for r, line in enumerate(rows):
                parts = line.split(",")
                t[r] = int(parts[0])
                v[r] = [float(x) for x in parts[1:]]
            tracks[s.name] = (t, v)
        recordings.append(Recording(tracks, duration_ns, int(label)))
    return DatasetBundle(specs, recordings, man["classes"], man["informative"],
                         man["noise_level"], man["seed"], window_s)
