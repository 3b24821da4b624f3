#!/usr/bin/env python3
"""Self-test of the benchmark, on reduced-size runs of each workload.

Run from the repository root (about a minute on 2 cores):

    python3 perfbench/selftest.py

Each workload runs once with tracing off and once with it on, on a reduced
config: fewer recordings, epochs and frames, but the same sensors, window and
model, so the modelled statistics keep their reference values. The test
asserts that the checks pass, that every metric named in BENCHMARK.json is
printed, and that every per-layer metric is non-zero on some workload. It then
shows that the checks fail on a corrupted artifact, an altered modelled
statistic, a raised accuracy floor and a changed repeat, and that the
benchmark exits non-zero without printing a result when src/ is missing.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

# The sweep stage rejects a zero FP accuracy, which the one-epoch reduced
# rig can reach on some seeds; this seed trains it above zero.
SEED = 3
REDUCE = {
    "smoke": {"n_per_class": 6, "n_per_class_test": 2, "calib_frames": 8,
              "train": {"epochs": 10}},
    "rig": {"n_per_class": 2, "n_per_class_test": 2, "calib_frames": 4,
            "train": {"epochs": 1}, "sim": {"n_segments": 2}},
    "stream": {"n_per_class": 6, "n_per_class_test": 2, "calib_frames": 8,
               "train": {"epochs": 10}, "sim": {"n_segments": 3}},
}
# Waste counters of the DAQ, zero on every workload while nothing overflows.
MAY_BE_ZERO = {"daq.overflowed", "daq.underfill", "daq.overfill"}


def reduced(wl: run.Workload) -> run.Workload:
    small = copy.deepcopy(wl)
    for key, value in REDUCE[wl.name].items():
        if isinstance(value, dict):
            small.config[key].update(value)
        else:
            small.config[key] = value
    cfg = small.config
    sim_ms = cfg["sim"]["n_segments"] * cfg["sim"]["segment_ms"]
    small.reference["frames"] = (sim_ms - cfg["window_ms"]) // cfg["step_ms"] + 1
    small.reference["floors"] = {}
    return small


def printed_metrics(wl, res, metrics) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_result(wl, SEED, False, res, metrics, {})
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0, last
    for name, m in last["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    return last["metrics"]


def check_failures(wl: run.Workload, res: run.Result, work: Path) -> None:
    """Every kind of damage the checks must catch turns a passing pass into a failure."""
    cfg = json.loads((work / "config.json").read_text())
    last = res.passes[-1]
    out = last.dir / "out"
    assert run.check_pass(wl, cfg, out, last) == []

    bad = copy.deepcopy(wl)
    bad.reference["cycles"]["total_cycles"] += 1
    assert run.check_pass(bad, cfg, out, last), "altered total_cycles not caught"
    bad = copy.deepcopy(wl)
    bad.reference["report"][0]["memory_bits"] -= 1
    assert run.check_pass(bad, cfg, out, last), "altered memory_bits not caught"
    bad = copy.deepcopy(wl)
    bad.reference["floors"]["sim_agreement"] = 1.01
    assert run.check_pass(bad, cfg, out, last), "raised floor not caught"

    report = out / "report.csv"
    text = report.read_text()
    header, first, *rest = text.splitlines()
    col = header.split(",").index("total_cycles")
    cells = first.split(",")
    cells[col] = str(int(cells[col]) + 1)
    report.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert run.check_pass(wl, cfg, out, last), "corrupted report.csv not caught"
    report.write_text(text)

    digest = run.tree_digest(out)
    labels = out / "labels.csv"
    labels.write_bytes(labels.read_bytes() + b"\n")
    assert run.check_identity(digest, run.tree_digest(out)), "changed repeat not caught"
    labels.unlink()
    assert run.check_pass(wl, cfg, out, last), "missing labels.csv not caught"


def check_bare_directory() -> None:
    """Without src/, the benchmark exits non-zero and prints no result."""
    run.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    specs = run.load_metric_specs()
    e2e_names = {m["name"] for m in specs["end_to_end"]}
    layer_names = {m["name"] for m in specs["per_layer"]}
    nonzero = set()
    run.WORK_ROOT.mkdir(exist_ok=True)
    for wl in run.load_workloads().values():
        small = reduced(wl)
        for trace in (False, True):
            work = Path(tempfile.mkdtemp(prefix=f"selftest-{wl.name}-", dir=run.WORK_ROOT))
            try:
                res = run.run_workload(small, SEED, 0, trace, work)
                assert res.correct, res.failures
                computed = run.end_to_end(res, small)
                if trace:
                    computed |= run.per_layer(res)
                    metrics = printed_metrics(
                        small, res, run.pick_metrics(computed, specs["per_layer"], default=0))
                    assert set(metrics) == layer_names, layer_names - set(metrics)
                    nonzero |= {k for k, (v, _) in computed.items() if v}
                else:
                    metrics = printed_metrics(
                        small, res, run.pick_metrics(computed, specs["end_to_end"]))
                    assert set(metrics) == e2e_names, e2e_names - set(metrics)
                    check_failures(small, res, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
        print(f"{wl.name}: reduced runs pass, all metrics printed, damage caught")
    missing = layer_names - nonzero - MAY_BE_ZERO
    assert not missing, f"per-layer metrics zero on every workload: {sorted(missing)}"
    check_bare_directory()
    print("bare directory: exits non-zero without a result")
    with contextlib.suppress(OSError):
        run.WORK_ROOT.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
