"""The benchmark's probes name live API.

BENCHMARK.json's per-layer metrics are named after the functions the
outside-in tracer wraps (``<module>.<function>.…``), and its harness reads
a streamed session's FIFO counters and fill events. These tests read the
file without changing it, so removing or renaming any of that API fails
here instead of only in a traced benchmark run. The per-layer conv probes
take their branch and depth from the where= keyword of each
engine.qconv_layer call, so that keyword is checked here too.

The tracer keeps one span stack for the whole process, not one per thread,
so every traced function must run on the main thread, also when the model's
block map runs a convolution on its pool; and the smoke and stream workloads
must not start that pool at all.
"""

import functools
import importlib
import inspect
import json
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np

from edgehar import cli, engine, model, quantize, train
from edgehar.daq import (
    CATALOG,
    SensorSpec,
    Session,
    WindowConfig,
    gen_timeline,
    recording_sources,
    start_sync,
    stream_frames,
)

from conftest import random_qmodel

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
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
        batch = {k: np.stack([v, v // 2]) / 2.0**8 for k, v in qframe.items()}
        # simulate's runs of overlapping frames take windows
        for windows in (None, ([1, 0], {k: [0, 0] for k in qframe})):
            wheres.clear()
            engine.qinfer_batch(qm, batch, windows)
            assert wheres == want


def _wrap_traced(monkeypatch, record):
    """Wrap what the tracer wraps, in every edgehar namespace that holds it:
    each __all__ function of the traced modules and Session.run_until. Each
    call records its name and whether it ran on the main thread."""

    def wrap(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return wrapper

    targets = {}
    for mod in TRACED_MODULES:
        module = importlib.import_module(f"edgehar.{mod}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__.rsplit(".", 1)[-1] in TRACED_MODULES:
                targets[id(obj)] = obj
    for fn in targets.values():
        new = wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}", fn)
        for name, holder in list(sys.modules.items()):
            if name.startswith("edgehar."):
                for attr, obj in list(vars(holder).items()):
                    if obj is fn:
                        monkeypatch.setattr(holder, attr, new)
    monkeypatch.setattr(Session, "run_until", wrap("daq.Session.run_until", Session.run_until))


def test_traced_functions_run_on_the_main_thread(monkeypatch):
    # two frames of the rig's 768-channel thermal grid fill several blocks per
    # worker, so the block map runs them on its pool
    monkeypatch.setattr(model, "_WORKERS", 2)
    calls, blocks, real = [], [], model._run_blocks

    def run_blocks(*args):
        blocks.append(threading.current_thread() is threading.main_thread())
        return real(*args)

    monkeypatch.setattr(model, "_run_blocks", run_blocks)
    _wrap_traced(monkeypatch, calls)
    sensors = [CATALOG["thermal"], CATALOG["motion"]]
    spec = model.feature_fusion_spec(sensors, filters=8, kernel=5, hidden=16, classes=3)
    params = train.init_params(spec, seed=0)
    rng = np.random.default_rng(0)
    X = {s.name: rng.uniform(-1, 1, size=(2, int(s.rate_hz), s.channels)) for s in sensors}
    train.backward(spec, params, X, np.array([0, 2]))
    model.forward_batch(spec, params, X)
    qm = quantize.quantize(spec, params, quantize.calibrate(spec, params, X), 8)
    engine.qinfer_batch(qm, X)
    assert not all(blocks)  # the pool ran some blocks
    names = {name for name, _ in calls}
    assert {"train.backward", "model.forward_batch", "quantize.calibrate",
            "engine.qinfer_batch", "engine.qconv_layer"} <= names
    assert [name for name, main in calls if not main] == []


def test_smoke_and_stream_start_no_thread(tmp_path, monkeypatch):
    # every call of the stream workload (the smoke model, then a long
    # simulate) holds under two blocks per worker, so it runs on the caller's
    # thread: a started pool would add its threads and buffers to peak RSS
    monkeypatch.setattr(model, "_WORKERS", 2)
    monkeypatch.setattr(model, "_POOL", None)
    cfg = json.loads((ROOT / "perfbench" / "workloads" / "stream.json").read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, out=str(tmp_path / "out"))))
    before = set(threading.enumerate())
    try:
        for stage in ("gen-data", "train", "select", "quantize", "sweep", "infer",
                      "simulate", "report"):
            assert cli.main([stage, "--config", str(path)]) == 0, stage
        assert model._POOL is None
        assert set(threading.enumerate()) <= before
    finally:
        if model._POOL is not None:
            model._POOL.shutdown()
