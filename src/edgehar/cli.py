"""Command-line pipeline harness.

Subcommands wire the library end to end: gen-data, train, select, quantize,
sweep, infer, simulate, report. Every command is a pure function of
(config, seed, input artifacts): one JSON config file provides settings,
flags override it (flags win), and every artifact embeds the resolved config
for provenance. CSV artifacts carry a sibling .meta.json with the same echo.

Exit codes: 0 success, 1 usage, 2 validation (bad config/schema/arguments),
3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import daq, engine, model as mdl, quantize as qz, train as tr
from .persist import SchemaError, write_csv_atomic, write_json_atomic
from .seeding import substream

__all__ = ["main", "DEFAULT_CONFIG"]

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "out": "runs/default",
    "sensors": ["optical", "gas", "thermal", "baro", "motion", "magnetic", "tof"],
    "informative": {},
    "classes": 10,
    "n_per_class": 8,
    "n_per_class_test": 4,
    "noise_level": 0.3,
    # 3.25 s gives the slowest sensor (gas, 4 Hz) the 13 rows that three
    # k=5 convolutions need
    "window_ms": 3250,
    "step_ms": 1000,
    "model": {"filters": 8, "kernel": 5, "hidden": 32, "fusion": "feature"},
    "train": {"epochs": 30, "batch_size": 16, "lr": 1e-3, "val_fraction": 0.2},
    "bits": [10],
    "keep": 4,
    "schedule": "serial",
    "clock_hz": 100_000_000,
    "kappa": 0,
    "calib_frames": 64,
    "sim": {"n_segments": 6, "segment_ms": 2000},
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _load_config(args) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = _merge(cfg, json.load(fh))
    for key in ("seed", "out", "schedule", "keep"):
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    if getattr(args, "clock_hz", None) is not None:
        cfg["clock_hz"] = args.clock_hz
    if getattr(args, "window_ms", None) is not None:
        cfg["window_ms"] = args.window_ms
    if getattr(args, "step_ms", None) is not None:
        cfg["step_ms"] = args.step_ms
    if getattr(args, "bits", None):
        cfg["bits"] = [int(b) for b in args.bits.split(",")]
    return cfg


def _sensors(cfg) -> list[daq.SensorSpec]:
    out = []
    for entry in cfg["sensors"]:
        if isinstance(entry, str):
            if entry not in daq.CATALOG:
                raise ValueError(
                    f"unknown catalog sensor {entry!r}; known: {sorted(daq.CATALOG)}"
                )
            out.append(daq.CATALOG[entry])
        else:
            out.append(
                daq.SensorSpec(
                    entry["name"], entry["channels"], entry["rate_hz"],
                    entry.get("conv_dim", 1),
                    tuple(entry["grid"]) if entry.get("grid") else None,
                    entry.get("model", ""),
                )
            )
    return out


def _window(cfg) -> daq.WindowConfig:
    return daq.WindowConfig(
        Fraction(int(cfg["window_ms"]), 1000), Fraction(int(cfg["step_ms"]), 1000)
    )


def _echo(cfg) -> dict:
    return {"config": cfg, "seed": cfg["seed"]}


def _out(cfg) -> Path:
    return Path(cfg["out"])


def _model_spec(cfg, sensors, classes) -> mdl.ModelSpec:
    m = cfg["model"]
    return mdl.feature_fusion_spec(
        sensors, m["filters"], m["kernel"], m["hidden"], classes,
        alpha_enabled=m.get("alpha_enabled", False),
    )


def _check_config(cfg) -> None:
    """Reject a config that cannot run before any stage does work: an unwired
    fusion mode, no calibration frames, a clock that does not tick, or a
    window too short for some branch's layers."""
    if not (isinstance(cfg["calib_frames"], int) and cfg["calib_frames"] >= 1):
        raise ValueError(f"calib_frames must be an integer >= 1, got {cfg['calib_frames']!r}")
    if not (isinstance(cfg["clock_hz"], (int, float)) and cfg["clock_hz"] > 0):
        raise ValueError(f"clock_hz must be a number > 0, got {cfg['clock_hz']!r}")
    fusion = cfg["model"].get("fusion", "feature")
    if fusion != "feature":
        raise ValueError(f"model.fusion {fusion!r} is not available in the CLI; "
                         f"only 'feature' fusion is wired through the pipeline")
    sensors = _sensors(cfg)
    spec = _model_spec(cfg, sensors, cfg["classes"])
    window = _window(cfg)
    for s, branch in zip(sensors, spec.branches):
        rows = window.timesteps(s.rate_hz)
        try:
            spec.layer_dims(branch, rows)
        except mdl.ShapeError as ex:
            raise mdl.ShapeError(f"window_ms {cfg['window_ms']} gives sensor {s.name!r} "
                                 f"{rows} rows at {s.rate_hz} Hz: {ex}") from None


def _load_bundle_arrays(cfg, spec, stats=None, limit=None, test=False):
    ds_dir = _out(cfg) / ("dataset_test" if test else "dataset")
    try:
        bundle = daq.load_dataset(ds_dir)
    except SchemaError as ex:
        raise SchemaError(f"{ex}; rerun gen-data to write this split again") from None
    window = _window(cfg)
    if bundle.window_s != window.window_s:
        made, s = daq.WindowConfig(bundle.window_s, bundle.window_s), bundle.specs[0]
        raise ValueError(f"{ds_dir} was made at {bundle.window_s} s windows, but window_ms "
                         f"{cfg['window_ms']} asks for {window.window_s} s: sensor {s.name!r} "
                         f"has {made.timesteps(s.rate_hz)} rows there, "
                         f"{window.timesteps(s.rate_hz)} here")
    stats = stats or bundle.norm_stats()
    X, y = daq.bundle_arrays(bundle, [b.name for b in spec.branches], stats)
    if limit is not None:
        X, y = {k: v[:limit] for k, v in X.items()}, y[:limit]
    return X, y, stats


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_data(cfg) -> int:
    sensors = _sensors(cfg)
    window_s = Fraction(int(cfg["window_ms"]), 1000)
    informative = {k: bool(v) for k, v in cfg.get("informative", {}).items()}
    for split, n, salt in (
        ("dataset", cfg["n_per_class"], "datagen"),
        ("dataset_test", cfg["n_per_class_test"], "datagen-test"),
    ):
        seed = int(substream(cfg["seed"], salt).integers(2**31))
        bundle = daq.gen_dataset(
            sensors, cfg["classes"], n, informative or None,
            cfg["noise_level"], seed, window_s,
        )
        daq.save_dataset(_out(cfg) / split, bundle, meta=_echo(cfg))
    print(f"wrote {_out(cfg)/'dataset'} and {_out(cfg)/'dataset_test'}")
    return 0


def cmd_train(cfg) -> int:
    sensors = _sensors(cfg)
    spec = _model_spec(cfg, sensors, cfg["classes"])
    X, y, stats = _load_bundle_arrays(cfg, spec)
    tc = tr.TrainConfig(seed=cfg["seed"], **cfg["train"])
    params, history = tr.train(spec, (X, y), tc)
    meta = _echo(cfg) | {"norm_stats": {k: list(v) for k, v in stats.items()}}
    mdl.save_model(_out(cfg) / "model.json", spec, params, meta=meta)
    tr.history_to_csv(history, _out(cfg) / "history.csv")
    write_json_atomic(_out(cfg) / "history.meta.json", _echo(cfg))
    print(f"trained {len(history)} epochs; final "
          f"train_acc={history[-1]['train_acc']:.4f}" if history else "0 epochs")
    return 0


def cmd_select(cfg) -> int:
    sensors = _sensors(cfg)
    cfg_a = dict(cfg)
    cfg_a["model"] = dict(cfg["model"], alpha_enabled=True)
    spec_a = _model_spec(cfg_a, sensors, cfg["classes"])
    X, y, stats = _load_bundle_arrays(cfg, spec_a)
    tc = tr.TrainConfig(seed=cfg["seed"], **cfg["train"])
    _, _, report = tr.train_importance(spec_a, (X, y), tc)
    kept = tr.select_modalities(report, int(cfg["keep"]))
    write_json_atomic(
        _out(cfg) / "importance.json",
        {"schema": "edgehar.importance/v1", **report.to_dict(), "kept": kept}
        | _echo(cfg),
    )

    kept_sensors = [s for s in sensors if s.name in kept]
    spec_sel = _model_spec(cfg, kept_sensors, cfg["classes"])
    Xs = {k: v for k, v in X.items() if k in kept}
    params, history = tr.train(spec_sel, (Xs, y), tc)
    meta = _echo(cfg) | {
        "norm_stats": {k: list(v) for k, v in stats.items() if k in kept},
        "kept_sensors": kept,
    }
    mdl.save_model(_out(cfg) / "model_selected.json", spec_sel, params, meta=meta)
    tr.history_to_csv(history, _out(cfg) / "history_selected.csv")
    write_json_atomic(_out(cfg) / "history_selected.meta.json", _echo(cfg))
    print(f"kept {kept}; retrained model at {_out(cfg)/'model_selected.json'}")
    return 0


def _check_qmodel_rows(cfg, qm, path) -> None:
    """Reject an integer model quantized at other window rows than the config's."""
    window = _window(cfg)
    for s in _sensors(cfg):
        rows = qm.input_rows.get(s.name)
        if rows is not None and rows != window.timesteps(s.rate_hz):
            raise ValueError(f"{path} was quantized at {rows} rows for sensor {s.name!r}, "
                             f"but window_ms {cfg['window_ms']} gives it "
                             f"{window.timesteps(s.rate_hz)} rows at {s.rate_hz} Hz")


def _load_model_for(cfg, args):
    path = getattr(args, "model", None) or _out(cfg) / "model.json"
    spec, params, meta = mdl.load_model(path)
    stats = {k: tuple(v) for k, v in meta.get("norm_stats", {}).items()}
    return spec, params, stats


def cmd_quantize(cfg, args) -> int:
    spec, params, stats = _load_model_for(cfg, args)
    X, _, _ = _load_bundle_arrays(cfg, spec, stats, limit=cfg["calib_frames"])
    calib = qz.calibrate(spec, params, X)
    for n in cfg["bits"]:
        qm = qz.quantize(spec, params, calib, int(n))
        qz.save_qmodel(_out(cfg) / f"qmodel_n{n}.json", qm, meta=_echo(cfg))
    print(f"quantized at bits {cfg['bits']}")
    return 0


def cmd_sweep(cfg, args) -> int:
    spec, params, stats = _load_model_for(cfg, args)
    Xc, _, _ = _load_bundle_arrays(cfg, spec, stats, limit=cfg["calib_frames"])
    Xt, yt, _ = _load_bundle_arrays(cfg, spec, stats, test=True)
    curve = qz.sweep_bits(spec, params, (Xt, yt), cfg["bits"], calib_X=Xc)
    write_csv_atomic(_out(cfg) / "sweep.csv", ["n_bits", "accuracy_ratio"],
                     [(n, repr(r)) for n, r in curve])
    write_json_atomic(_out(cfg) / "sweep.meta.json", _echo(cfg))
    for n, r in curve:
        print(f"n={n:3d}  ratio={r:.4f}")
    return 0


def cmd_infer(cfg, args) -> int:
    spec, params, stats = _load_model_for(cfg, args)
    Xt, yt, _ = _load_bundle_arrays(cfg, spec, stats, test=True)
    if getattr(args, "qmodel", None):
        qm, _ = qz.load_qmodel(args.qmodel)
        _check_qmodel_rows(cfg, qm, args.qmodel)
        preds = engine.qinfer_batch(qm, Xt)
        kind = f"integer n={qm.n_bits}"
    else:
        preds = np.argmax(mdl.forward_batch(spec, params, Xt), axis=1)
        kind = "fp32"
    acc = float(np.mean(preds == yt))
    write_csv_atomic(_out(cfg) / "predictions.csv", ["index", "label", "predicted"],
                     ((i, int(l), int(p)) for i, (l, p) in enumerate(zip(yt, preds))))
    write_json_atomic(_out(cfg) / "predictions.meta.json",
                      _echo(cfg) | {"accuracy": acc, "engine": kind})
    print(f"{kind} accuracy {acc:.4f} over {len(yt)} frames")
    return 0


def cmd_simulate(cfg, args) -> int:
    spec, params, stats = _load_model_for(cfg, args)
    qpath = getattr(args, "qmodel", None) or _out(cfg) / f"qmodel_n{cfg['bits'][0]}.json"
    qm, _ = qz.load_qmodel(qpath)
    _check_qmodel_rows(cfg, qm, qpath)
    sensors = [s for s in _sensors(cfg) if s.name in {b.name for b in spec.branches}]
    sim = cfg["sim"]
    rng = substream(cfg["seed"], "sim")
    class_seq = [int(c) for c in rng.integers(0, cfg["classes"], sim["n_segments"])]
    rec, spans = daq.gen_timeline(
        sensors, class_seq, Fraction(int(sim["segment_ms"]), 1000),
        cfg["noise_level"], cfg["seed"], classes=cfg["classes"],
    )
    session = daq.start_sync(daq.recording_sources(rec, sensors))
    window = _window(cfg)
    rows_out = []
    report = None
    for frame in daq.stream_frames(session, window):
        norm = mdl.normalize_inputs(frame.tensors, stats)
        qframe = engine.quantize_frame(norm, qm.n_bits)
        cls, report = engine.qinfer(qm, qframe, cfg["schedule"], cfg["clock_hz"],
                                    cfg["kappa"])
        rows_out.append((frame.t_end_ns, cls))
    if report is None:
        raise ValueError("simulation produced no frames; widen the timeline")
    write_csv_atomic(_out(cfg) / "labels.csv", ["t_ns", "class"], rows_out)
    write_json_atomic(_out(cfg) / "labels.meta.json",
                      _echo(cfg) | {"truth_spans": spans})
    write_json_atomic(_out(cfg) / "cycles.json",
                      {"schema": "edgehar.cycles/v1", **report.to_dict()} | _echo(cfg))
    conserved = session.conservation()
    if not all(c["ok"] for c in conserved.values()):
        raise RuntimeError(f"sample conservation violated: {conserved}")
    print(f"emitted {len(rows_out)} labels; "
          f"latency {report.latency_s*1e3:.3f} ms per frame ({cfg['schedule']})")
    return 0


def cmd_report(cfg, args) -> int:
    spec, params, stats = _load_model_for(cfg, args)
    X, _, _ = _load_bundle_arrays(cfg, spec, stats, limit=cfg["calib_frames"])
    calib = qz.calibrate(spec, params, X)
    window = _window(cfg)
    rows = []
    for n in cfg["bits"]:
        qm = qz.quantize(spec, params, calib, int(n))
        for mode in ("serial", "parallel"):
            cyc = engine.model_cycles(spec, qm.input_rows, mode, cfg["clock_hz"],
                                      cfg["kappa"])
            res = engine.estimate_resources(qm, mode)
            rows.append([
                n, qm.storage_bits, mode, cyc.total_cycles,
                repr(cyc.latency_s * 1e3), repr(cyc.throughput_lps),
                res.memory_bits, res.weight_bits, res.mac_lanes,
                res.multiplier_units,
            ])
    header = ["n_bits", "storage_bits", "schedule", "total_cycles", "latency_ms",
              "throughput_labels_per_s", "memory_bits", "weight_bits",
              "mac_lanes", "multiplier_units"]
    write_csv_atomic(_out(cfg) / "report.csv", header, rows)
    write_json_atomic(_out(cfg) / "report.meta.json", _echo(cfg))
    print(f"wrote {_out(cfg)/'report.csv'} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="edgehar", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, model_flag=False, qmodel_flag=False):
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--bits", type=str, default=None,
                        help="comma-separated magnitude-bit list, e.g. 8,10,12")
        sp.add_argument("--schedule", choices=["serial", "parallel"], default=None)
        sp.add_argument("--clock-hz", dest="clock_hz", type=float, default=None)
        sp.add_argument("--window-ms", dest="window_ms", type=int, default=None)
        sp.add_argument("--step-ms", dest="step_ms", type=int, default=None)
        sp.add_argument("--keep", type=int, default=None)
        if model_flag:
            sp.add_argument("--model", type=str, default=None)
        if qmodel_flag:
            sp.add_argument("--qmodel", type=str, default=None)

    common(sub.add_parser("gen-data", help="generate the synthetic dataset"))
    common(sub.add_parser("train", help="train the fp32 model"))
    common(sub.add_parser("select", help="rank modalities and retrain on the top ones"))
    common(sub.add_parser("quantize", help="post-training quantize at each bit width"),
           model_flag=True)
    common(sub.add_parser("sweep", help="accuracy-ratio curve over bit widths"),
           model_flag=True)
    common(sub.add_parser("infer", help="run inference over the test dataset"),
           model_flag=True, qmodel_flag=True)
    common(sub.add_parser("simulate", help="stream a timeline through the engine"),
           model_flag=True, qmodel_flag=True)
    common(sub.add_parser("report", help="latency/resource table over bits x schedule"),
           model_flag=True)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 1
    try:
        cfg = _load_config(args)
        _check_config(cfg)
        handlers = {
            "gen-data": lambda: cmd_gen_data(cfg),
            "train": lambda: cmd_train(cfg),
            "select": lambda: cmd_select(cfg),
            "quantize": lambda: cmd_quantize(cfg, args),
            "sweep": lambda: cmd_sweep(cfg, args),
            "infer": lambda: cmd_infer(cfg, args),
            "simulate": lambda: cmd_simulate(cfg, args),
            "report": lambda: cmd_report(cfg, args),
        }
        return handlers[args.command]()
    except (SchemaError, ValueError, KeyError, json.JSONDecodeError) as ex:
        print(f"validation error: {ex}", file=sys.stderr)
        return 2
    except FileNotFoundError as ex:
        print(f"validation error: missing input: {ex}", file=sys.stderr)
        return 2
    except Exception as ex:  # noqa: BLE001 - runtime failures exit 3
        print(f"runtime error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
