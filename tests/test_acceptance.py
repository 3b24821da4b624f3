"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured numbers (run with -s to see them).

Run: pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from edgehar.cli import main as cli_main
from edgehar.daq import (
    NS,
    TABLE_SENSORS,
    SensorSpec,
    Source,
    WindowConfig,
    bundle_arrays,
    count_until,
    gen_dataset,
    sample_time_ns,
    start_sync,
    stream_frames,
)
from edgehar.engine import estimate_resources, model_cycles, schedule_latency, _q_forward
from edgehar.model import data_fusion_spec, feature_fusion_spec, count_params
from edgehar.quantize import calibrate, quantize, sweep_bits
from edgehar.train import (
    TrainConfig,
    backward,
    evaluate,
    init_params,
    train,
    train_importance,
    _iter_tensors,
)

import oracles
from conftest import random_inputs, random_qmodel, tiny_spec


def _report(name: str, detail: str) -> None:
    print(f"\n[PASS] {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for trial in range(20):
        kind = trial % 4
        spec = tiny_spec(
            rng,
            with_2d=kind in (1, 3),
            alpha=kind == 0,
            pools=kind in (0, 2),
        )
        if kind == 3:
            spec = data_fusion_spec(total_channels=int(rng.integers(3, 6)),
                                    window_rows=9, filters=2, kernel=2,
                                    hidden=3, classes=3)
        params = init_params(spec, seed=trial, dtype=np.float64)
        X = random_inputs(spec, rng, batch=2) if spec.fusion == "feature" else {
            "fused": rng.normal(size=(2, 9, spec.branches[0].grid[1]))
        }
        y = rng.integers(0, spec.classes, size=2)
        _, grads = backward(spec, params, X, y)

        def loss_fn():
            return backward(spec, params, X, y)[0]

        numeric = oracles.finite_diff_grads(loss_fn, list(_iter_tensors(params)))
        worst = max(worst, oracles.max_rel_error(list(_iter_tensors(grads)), numeric))
    elapsed = time.time() - t0
    assert worst < 1e-4, f"max relative gradient error {worst}"
    assert elapsed < 60.0
    _report("criterion 1 (gradients)",
            f"20 models, max rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. Integer-oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_integer_oracle_equivalence():
    rng = np.random.default_rng(202)
    t0 = time.time()
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(4, 15))
        if trial % 10 == 0:
            # route some cases through the real quantizer; a random model with
            # a dead layer is rejected by contract, so resample until valid
            from edgehar.engine import quantize_frame

            for attempt in range(20):
                spec = tiny_spec(rng)
                params = init_params(spec, seed=trial * 100 + attempt)
                X = random_inputs(spec, rng, batch=4)
                try:
                    qm = quantize(spec, params, calibrate(spec, params, X), n)
                    break
                except ValueError:
                    continue
            else:
                pytest.fail("could not sample a valid model in 20 attempts")
            qframe = quantize_frame({k: v[0] for k, v in X.items()}, n)
        else:
            qm, qframe = random_qmodel(rng, n)
        got = _q_forward(qm, {k: v[None] for k, v in qframe.items()})[0]
        ref_logits, ref_cls = oracles.qinfer(qm, qframe)
        assert got.tolist() == ref_logits, f"trial {trial}: logits diverge"
        assert int(np.argmax(got)) == ref_cls
        checked += 1
    elapsed = time.time() - t0
    assert checked == 1000
    assert elapsed < 120.0
    _report("criterion 2 (integer oracle)",
            f"1000 random (model, frame, n) triples bit-identical, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 3. Accuracy-ratio-vs-bits curve (qualitative reproduction)
# ---------------------------------------------------------------------------

def test_criterion_3_bit_sweep_curve():
    t0 = time.time()
    sensors = [SensorSpec("acc", 3, 32), SensorSpec("mag", 2, 25),
               SensorSpec("light", 4, 40)]
    tr_b = gen_dataset(sensors, classes=8, n_per_class=30, noise_level=1.0,
                       seed=11, window_s=1.0)
    te_b = gen_dataset(sensors, classes=8, n_per_class=40, noise_level=1.0,
                       seed=99, window_s=1.0)
    stats = tr_b.norm_stats()
    spec = feature_fusion_spec(sensors, filters=6, kernel=5, hidden=24, classes=8)
    names = [s.name for s in sensors]
    X, y = bundle_arrays(tr_b, names)
    Xt, yt = bundle_arrays(te_b, names, stats)
    params, _ = train(spec, (X, y), TrainConfig(epochs=40, batch_size=16,
                                                lr=3e-3, seed=3))
    curve = dict(sweep_bits(spec, params, (Xt, yt), range(4, 16), calib_X=X))
    elapsed = time.time() - t0

    high = {n: r for n, r in curve.items() if n >= 12}
    for n, r in high.items():
        assert abs(r - 1.0) <= 0.01, f"ratio at n={n} is {r}, not 1.00 +/- 0.01"
    low = min(curve[n] for n in range(4, 8))
    assert low <= 0.97, f"no >=3% degradation below 8 bits (min ratio {low})"
    assert elapsed < 600.0
    _report("criterion 3 (bit sweep)",
            f"ratio at n>=12 all within {max(abs(r - 1) for r in high.values()):.3f} "
            f"of 1.0; min ratio below 8 bits = {low:.3f} <= 0.97; {elapsed:.1f}s < 600s")


# ---------------------------------------------------------------------------
# 4. Modality selection
# ---------------------------------------------------------------------------

BENCH_SENSORS = [
    SensorSpec("acc", 3, 32),
    SensorSpec("mag", 2, 25),
    SensorSpec("light", 4, 40),
    SensorSpec("press", 1, 16),
    SensorSpec("dist", 2, 50),
]
BENCH_INFORMATIVE = {"acc": True, "mag": True, "light": True,
                     "press": False, "dist": False}
BENCH_CODES = {"acc": lambda c: c & 1, "mag": lambda c: (c >> 1) & 1,
               "light": lambda c: (c >> 2) & 1}


def test_criterion_4_modality_selection():
    t0 = time.time()
    tr_b = gen_dataset(BENCH_SENSORS, classes=8, n_per_class=24,
                       informative=BENCH_INFORMATIVE, noise_level=0.2,
                       seed=42, window_s=1.0, class_code=BENCH_CODES)
    te_b = gen_dataset(BENCH_SENSORS, classes=8, n_per_class=24,
                       informative=BENCH_INFORMATIVE, noise_level=0.2,
                       seed=777, window_s=1.0, class_code=BENCH_CODES)
    spec_a = feature_fusion_spec(BENCH_SENSORS, filters=4, kernel=3, hidden=16,
                                 classes=8, alpha_enabled=True)
    names = [s.name for s in BENCH_SENSORS]
    X, y = bundle_arrays(tr_b, names)
    Xt, yt = bundle_arrays(te_b, names, tr_b.norm_stats())

    hits = 0
    for seed in range(10):
        cfg = TrainConfig(epochs=35, batch_size=16, lr=3e-3, seed=seed)
        _, _, rep = train_importance(spec_a, (X, y), cfg)
        hits += set(rep.ranking[-2:]) == {"press", "dist"}
    assert hits >= 9, f"noise modalities ranked bottom-two in only {hits}/10 seeds"

    cfg = TrainConfig(epochs=35, batch_size=16, lr=3e-3, seed=1)
    spec_full = feature_fusion_spec(BENCH_SENSORS, filters=4, kernel=3,
                                    hidden=16, classes=8)
    pf, _ = train(spec_full, (X, y), cfg)
    _, acc_full = evaluate(spec_full, pf, Xt, yt)
    kept = [s for s in BENCH_SENSORS if BENCH_INFORMATIVE[s.name]]
    spec_sel = feature_fusion_spec(kept, filters=4, kernel=3, hidden=16, classes=8)
    Xs = {k: v for k, v in X.items() if BENCH_INFORMATIVE[k]}
    Xts = {k: v for k, v in Xt.items() if BENCH_INFORMATIVE[k]}
    ps, _ = train(spec_sel, (Xs, y), cfg)
    _, acc_sel = evaluate(spec_sel, ps, Xts, yt)
    assert acc_sel >= acc_full - 0.02, (
        f"retrained accuracy {acc_sel} lost more than 2% vs {acc_full}"
    )
    _report("criterion 4 (modality selection)",
            f"noise bottom-two in {hits}/10 seeds (>=9); retrain acc {acc_sel:.3f} "
            f"vs full {acc_full:.3f} (loss <= 2%); {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 5. Schedule structure
# ---------------------------------------------------------------------------

def test_criterion_5_schedule_structure():
    rng = np.random.default_rng(505)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        branches = [int(c) for c in rng.integers(1, 10**6, size=k)]
        dense = int(rng.integers(0, 10**5))
        s = schedule_latency(branches, dense, "serial")
        p = schedule_latency(branches, dense, "parallel")
        assert s.total_cycles == sum(branches) + dense  # oracle: direct sum
        assert p.total_cycles == max(branches) + dense  # oracle: direct max

    four = [SensorSpec(f"s{i}", 4, 20) for i in range(4)]
    spec = feature_fusion_spec(four, filters=8, kernel=5, hidden=32, classes=10)
    rows = {s.name: 20 for s in four}
    rs = model_cycles(spec, rows, "serial", 100e6)
    rp = model_cycles(spec, rows, "parallel", 100e6)
    totals = list(rs.branch_totals.values())
    assert len(set(totals)) == 1, "branches are not equal-cost"
    ratio = rs.total_cycles / rp.total_cycles
    assert 2.0 < ratio < 4.0, f"serial/parallel ratio {ratio} outside (2, 4)"
    _report("criterion 5 (schedule structure)",
            f"sum/max exact on 100 random vectors; 4-equal-branch ratio "
            f"{ratio:.2f} in (2.0, 4.0)")


# ---------------------------------------------------------------------------
# 6. Resource model anchors
# ---------------------------------------------------------------------------

def test_criterion_6_resource_anchors():
    rng = np.random.default_rng(606)
    spec = tiny_spec(rng)
    params = init_params(spec, seed=0)
    X = random_inputs(spec, rng, batch=6)
    qm = quantize(spec, params, calibrate(spec, params, X), 10)

    for mode in ("serial", "parallel"):
        u9 = estimate_resources(qm, mode, stored_width=9).multiplier_units
        u11 = estimate_resources(qm, mode, stored_width=11).multiplier_units
        assert u11 == 2 * u9, f"{mode}: {u9} -> {u11} is not an exact doubling"

    m9 = estimate_resources(qm, "serial", stored_width=9).memory_bits
    m11 = estimate_resources(qm, "serial", stored_width=11).memory_bits
    assert m11 * 9 == m9 * 11, "memory ratio is not exactly 11/9"
    model_ratio = 11.0 / 9.0
    measured = 11440.0 / 9306.0
    rel = abs(model_ratio - measured) / measured
    assert rel <= 0.02, f"11/9 deviates {rel:.4f} from the measured 11440/9306"
    _report("criterion 6 (resources)",
            f"multipliers double exactly at the 9-bit boundary; memory(11)/memory(9) "
            f"= 11/9 exactly, {rel*100:.2f}% from the 11440/9306 reference (<2%)")


# ---------------------------------------------------------------------------
# 7. DAQ timing and conservation
# ---------------------------------------------------------------------------

def test_criterion_7_daq_timing_and_conservation():
    # first-frame latency, exact in integer-nanosecond virtual time
    fast = SensorSpec("motion", 2, 119)
    cfg = WindowConfig(Fraction(20, 119), Fraction(20, 119))
    f = next(stream_frames(start_sync([_zero_source(fast, 1)]), cfg))
    assert f.t_end_ns == (20 * NS) // 119 == 168067226  # 168.07 ms

    slow = SensorSpec("slow", 1, 6)
    cfg = WindowConfig(Fraction(20, 6), Fraction(20, 6))
    f = next(stream_frames(start_sync([_zero_source(slow, 4)]), cfg))
    assert f.t_end_ns == (20 * NS) // 6 == 3333333333  # 3333 ms

    # ten simulated minutes across the six-sensor catalog, zero tolerance
    t0 = time.time()
    duration = 600
    sess = start_sync([_zero_source(s, duration) for s in TABLE_SENSORS])
    n_frames = 0
    for _ in stream_frames(sess, WindowConfig(1, 1)):
        n_frames += 1
    assert n_frames == duration  # tumbling 1 s windows over 600 s
    expected = {"optical": 12000, "gas": 2400, "thermal": 19200, "baro": 45000,
                "imu": 71400, "tof": 30000}
    for name, c in sess.conservation().items():
        assert c["produced"] == expected[name]
        assert c["produced"] == c["consumed"] + c["occupancy"] + c["overflowed"]
        assert c["overflowed"] == 0
    _report("criterion 7 (DAQ timing)",
            f"first-frame latencies 168067226 ns and 3333333333 ns exact; "
            f"conservation exact over 10 min x 6 sensors ({time.time()-t0:.1f}s)")


def _zero_source(spec: SensorSpec, duration_s: int) -> Source:
    """A track of zeros on spec's sample grid; its zero-stride values
    allocate no rows, however long the run."""
    t = sample_time_ns(np.arange(count_until(duration_s * NS, spec.rate)), spec.rate)
    return Source(spec, t, np.broadcast_to(0.0, (t.size, spec.channels)), duration_s)


# ---------------------------------------------------------------------------
# 8. Parameter-count contrast
# ---------------------------------------------------------------------------

def test_criterion_8_parameter_count_contrast():
    sensors = [
        SensorSpec("thermal", 768, 32, conv_dim=2, grid=(24, 32)),
        SensorSpec("optical", 10, 20),
        SensorSpec("motion", 6, 119),
        SensorSpec("tof", 1, 50),
    ]
    ff = feature_fusion_spec(sensors, filters=8, kernel=5, hidden=32, classes=10)
    df = data_fusion_spec(sum(s.channels for s in sensors), window_rows=20,
                          filters=8, kernel=5, hidden=32, classes=10)
    ratio = count_params(df) / count_params(ff)
    assert ratio > 5.0, f"data/feature parameter ratio {ratio} not > 5"
    _report("criterion 8 (parameter contrast)",
            f"data-fusion {count_params(df)} vs feature-fusion {count_params(ff)} "
            f"params, ratio {ratio:.1f} > 5")


# ---------------------------------------------------------------------------
# 9. End-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_9_end_to_end_determinism(tmp_path):
    cfg = {
        "seed": 5,
        "out": str(tmp_path / "run"),
        "sensors": [
            {"name": "a", "channels": 2, "rate_hz": 25},
            {"name": "b", "channels": 1, "rate_hz": 40},
            {"name": "c", "channels": 3, "rate_hz": 16},
        ],
        "classes": 3,
        "n_per_class": 6,
        "n_per_class_test": 4,
        "noise_level": 0.3,
        "window_ms": 1000,
        "step_ms": 1000,
        "model": {"filters": 4, "kernel": 3, "hidden": 12},
        "train": {"epochs": 6, "batch_size": 8, "lr": 0.003, "val_fraction": 0.0},
        "bits": [8, 10],
        "keep": 2,
        "calib_frames": 18,
        "sim": {"n_segments": 4, "segment_ms": 2000},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    steps = [("gen-data",), ("train",), ("select",), ("quantize",),
             ("sweep",), ("simulate",), ("report",)]

    def run_all():
        for s in steps:
            rc = cli_main([*s, "--config", str(cfg_path)])
            assert rc == 0, f"{s} exited {rc}"

    def digest():
        out = Path(cfg["out"])
        return {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    run_all()
    first = digest()
    run_all()
    second = digest()
    assert first == second, "artifacts differ between identical runs"
    for required in ("model.json", "qmodel_n10.json", "labels.csv", "report.csv",
                     "cycles.json", "sweep.csv"):
        assert any(k.endswith(required) for k in first), f"missing {required}"
    _report("criterion 9 (determinism)",
            f"{len(first)} artifacts byte-identical across two full pipeline runs")
