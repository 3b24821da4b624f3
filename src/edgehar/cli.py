"""Command-line pipeline harness.

Subcommands wire the library end to end: gen-data, train, select, quantize,
sweep, infer, simulate, report. Every command is a pure function of
(config, seed, input artifacts): one JSON config file provides settings,
flags override it (flags win), and every artifact embeds the resolved config
for provenance. CSV artifacts carry a sibling .meta.json with the same echo.
report reads the config and the model's spec only: its cycle and resource
tables need no dataset, no calibration and no quantized model. simulate's
cycles.json is the same static count, made from the spec before the stream
starts. infer --qmodel and simulate take a qmodel only when it quantizes the
--model file's network.

simulate classifies the stream's frames through qinfer_batch and writes the
labels in frame order, grouping them in one pass (_sim_calls). Consecutive
exact frames, whose tensors are read-only views of exactly their sensor
tracks' rows, overlap or abut, and form a run: its union of rows is read
from the tracks as a view, normalized into one copy and convolved once, and
each frame reads its features from its own window of the conv outputs (see
engine._q_forward). A run spans at most SIM_CHUNK_FRAMES windows of each
sensor's rows (engine._run_rows), so it holds no more than a chunk of that
many frames; how far each sensor's first row may reach is found once per
run. Frames the DAQ fitted (a window it trimmed, held or split around an
overflow) own their tensors, and are stacked SIM_CHUNK_FRAMES to a call,
one lead row each.
Grouping cannot change a label: a label never feeds back into acquisition,
the DAQ's virtual time does not read the wall clock, and the integer path is
exact, so a frame's logits do not depend on the frames classified with it.

The whole config is checked at load, before any stage runs: an unknown key,
a bad type or range, or a config that cannot run exits 2 naming the key and
its value. A rule is written once, by the class that owns the field:
TrainConfig checks train (as train.<field>), SensorSpec a custom sensor,
ConvSpec and ModelSpec model.filters, model.kernel, model.hidden and classes,
storage_format each bits entry, and _SCHEMA the rest. model.fusion is fixed
to "feature" and model.alpha_enabled to false (select trains its own
importance model). A stage writes all of its outputs or none.

A stage takes a result from out instead of computing it only when the files
holding it say they were made from the stage's own inputs (_trusted), and a
file it cannot use, missing, unreadable, malformed or of other inputs, is
recomputed, never an error. Each computation is deterministic, so a taken
result writes the bytes a recomputed one would:
- select retrains on the sensors it keeps, unless it keeps every sensor and
  out holds exactly what train writes for the run: that model is the one a
  retrain would make, and select takes its weights and history instead.
- quantize and sweep calibrate the same model on the same calib_frames
  frames, and sweep and infer without --qmodel run the same FP pass over
  the test split. Whichever stage runs first writes the result as a record
  (_reuse): calib.json holds every CalibStats field, and fp_test.json each
  test frame's FP32 argmax class. A record's key is the sha256 of the model
  file's bytes, the sha256 of the frames it was computed from and the config
  echo; the later stage takes the result when all three are its own.

Exit codes: 0 success, 1 usage, 2 validation (bad config/schema/arguments,
or a malformed artifact, whose loader names the file), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import sys
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import daq, engine, model as mdl, quantize as qz, train as tr
from .fxp import storage_format
from .persist import (SchemaError, check_array, check_value, labelled, read_json_checked,
                      write_csv_atomic, write_json_atomic, write_text_atomic)
from .seeding import substream

__all__ = ["main", "DEFAULT_CONFIG", "Config", "parse_config"]

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

# Every key of the config by section ("sensors" is a custom sensor entry), with
# the persist.check_value rule of each scalar the CLI owns. None marks a key
# that is not a scalar, or whose class checks it: TrainConfig's fields but
# seed (train.*), SensorSpec's (sensors.*), ConvSpec's (model.filters,
# model.kernel) and ModelSpec's (model.hidden, classes).
_SCHEMA = {
    "seed": (int, 0), "out": (str,), "sensors": None, "informative": None,
    "classes": None, "n_per_class": (int, 1), "n_per_class_test": (int, 1),
    "noise_level": (float, 0), "window_ms": (int, 1), "step_ms": (int, 1), "model": None,
    "train": None, "bits": None, "keep": (int, 1), "schedule": (str,),
    "clock_hz": (float, 0, ">"), "kappa": (int, 0), "calib_frames": (int, 1), "sim": None,
    "model.filters": None, "model.kernel": None, "model.hidden": None,
    "model.fusion": (str,), "model.alpha_enabled": (bool,),
    "sim.n_segments": (int, 1), "sim.segment_ms": (int, 1),
}
_SCHEMA |= {f"train.{f.name}": None for f in fields(tr.TrainConfig) if f.name != "seed"}
_SCHEMA |= {f"sensors.{f.name}": None for f in fields(daq.SensorSpec)}
# Keys that stay in the schema but have one value the pipeline runs
_FIXED = {"fusion": "feature", "alpha_enabled": False}
# Fitted frames simulate stacks per qinfer_batch call, and the windows of each
# sensor's rows, 1D or 2D, a run of exact frames may span. A call's int64 layer
# outputs grow with its rows (a thermal frame's are megabytes), so they are
# bounded rather than the whole stream. No benchmark workload stacks a frame:
# smoke's 10 adjacent frames and the rig's 8 are one run call each, and the
# stream's 1,191 (1 s windows, 100 ms steps) 8 run calls, whose engine time was
# 12-18 ms against 102-125 ms for stacks of 16 (2 vCPUs, BLAS at 1 thread).
SIM_CHUNK_FRAMES = 16


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


@dataclass(frozen=True)
class Config:
    """A checked config: the resolved dict, echoed into every artifact, and
    the objects the stages run on."""

    raw: dict
    echo: dict  # the provenance every artifact carries
    out: Path
    sensors: tuple[daq.SensorSpec, ...]
    window: daq.WindowConfig
    rows: dict[str, int]  # each sensor's window rows at its own rate
    spec: mdl.ModelSpec  # feature fusion over every sensor
    train: tr.TrainConfig


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _load_config(args) -> dict:
    doc = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: a config must be a JSON object")
    flags = {k: getattr(args, k) for k in
             ("seed", "out", "schedule", "keep", "clock_hz", "window_ms", "step_ms", "bits")
             if getattr(args, k) is not None}
    if "bits" in flags:
        try:
            flags["bits"] = [int(b) for b in flags["bits"].split(",")]
        except ValueError:
            raise ValueError(f"--bits must be a comma-separated list of integers, "
                             f"got {flags['bits']!r}") from None
    return _merge(doc, flags)


def _rules(section: str) -> dict:
    return {k.rpartition(".")[2]: r for k, r in _SCHEMA.items()
            if k.rpartition(".")[0] == section}


def _check_object(d, where: str, rules: dict) -> None:
    """Reject a key of d that rules lacks; check each scalar against its rule."""
    if type(d) is not dict:
        raise ValueError(f"{where or 'config'} must be an object, got {d!r}")
    for k, v in d.items():
        key = f"{where}.{k}" if where else k
        if k not in rules:
            raise ValueError(f"unknown config key {key!r}; known: {sorted(rules)}")
        if rules[k]:
            check_value(key, v, *rules[k])


def _sensors(entries) -> list[daq.SensorSpec]:
    if not (type(entries) is list and entries):
        raise ValueError(f"sensors must be a non-empty list, got {entries!r}")
    out = []
    for i, e in enumerate(entries):
        if type(e) is str and e not in daq.CATALOG:
            raise ValueError(f"unknown catalog sensor {e!r}; known: {sorted(daq.CATALOG)}")
        if type(e) is not str:
            _check_object(e, f"sensors[{i}]", _rules("sensors"))
        with labelled(f"sensors[{i}]", values=False):  # a required field is missing
            out.append(daq.CATALOG[e] if type(e) is str else daq.SensorSpec(**e))
    names = [s.name for s in out]
    dup = next((n for n in names if names.count(n) > 1), None)
    if dup:
        raise ValueError(f"sensors: name {dup!r} appears {names.count(dup)} times")
    return out


def parse_config(doc: dict) -> Config:
    """Resolve a config over DEFAULT_CONFIG, check it against _SCHEMA and build
    the objects every stage uses, which check their own fields. Raises
    ValueError naming the key and value."""
    _check_object(doc, "", _rules(""))
    for section in ("model", "train", "sim"):
        _check_object(doc.get(section, {}), section, _rules(section))
    raw = _merge(DEFAULT_CONFIG, doc)
    m, sim, bits = raw["model"], raw["sim"], raw["bits"]
    for k, v in _FIXED.items():
        if m.get(k, v) != v:
            raise ValueError(f"model.{k} is fixed to {v!r} in the pipeline, got {m[k]!r}")
    bad_bits = f"bits must be a non-empty list of integers in [1, 15], got {bits!r}"
    if not (type(bits) is list and bits):
        raise ValueError(bad_bits)
    for b in bits:
        try:
            storage_format(b)  # the width rule
        except ValueError:
            raise ValueError(bad_bits) from None
    if raw["schedule"] not in engine._SCHEDULES:
        raise ValueError(f"schedule must be one of {engine._SCHEDULES}, got {raw['schedule']!r}")
    sensors = _sensors(raw["sensors"])
    _check_object(raw["informative"], "informative", {s.name: (bool,) for s in sensors})
    if raw["keep"] > len(sensors):
        raise ValueError(f"keep must be in [1, {len(sensors)}], got {raw['keep']}")
    try:  # each message starts with the field's name: classes, or a model.* key
        spec = mdl.feature_fusion_spec(sensors, m["filters"], m["kernel"], m["hidden"],
                                       raw["classes"])
    except ValueError as ex:
        raise ValueError(("" if str(ex).startswith("classes") else "model.") + str(ex)) from None
    try:  # each message starts with the field's name
        train = tr.TrainConfig(seed=raw["seed"], **raw["train"])
        train.n_val(raw["classes"] * raw["n_per_class"])
    except ValueError as ex:
        raise ValueError(f"train.{ex}") from None
    window = daq.WindowConfig(Fraction(raw["window_ms"], 1000), Fraction(raw["step_ms"], 1000))
    rows = {}
    for s, branch in zip(sensors, spec.branches):
        try:
            rows[s.name] = window.timesteps(s.rate_hz)
        except ValueError as ex:
            raise ValueError(f"window_ms {raw['window_ms']} for sensor {s.name!r} at "
                             f"{s.rate_hz} Hz: {ex}") from None
        try:
            spec.layer_dims(branch, rows[s.name])
        except mdl.ShapeError as ex:
            raise mdl.ShapeError(f"window_ms {raw['window_ms']} gives sensor {s.name!r} "
                                 f"{rows[s.name]} rows at {s.rate_hz} Hz: {ex}") from None
    if sim["n_segments"] * sim["segment_ms"] < raw["window_ms"]:
        raise ValueError(f"sim: {sim['n_segments']} x {sim['segment_ms']} ms is shorter "
                         f"than window_ms {raw['window_ms']}: no frame to simulate")
    return Config(raw, {"config": raw, "seed": raw["seed"]}, Path(raw["out"]),
                  tuple(sensors), window, rows, spec, train)


def _load_bundle_arrays(cfg: Config, spec, stats=None, limit=None, test=False):
    ds_dir = cfg.out / ("dataset_test" if test else "dataset")
    try:
        bundle = daq.load_dataset(ds_dir)
    except SchemaError as ex:
        raise SchemaError(f"{ex}; rerun gen-data to write this split again") from None
    window = cfg.window
    if bundle.window_s != window.window_s:
        made, s = daq.WindowConfig(bundle.window_s, bundle.window_s), bundle.specs[0]
        raise ValueError(f"{ds_dir} was made at {bundle.window_s} s windows, but window_ms "
                         f"{cfg.raw['window_ms']} asks for {window.window_s} s: sensor "
                         f"{s.name!r} has {made.timesteps(s.rate_hz)} rows there, "
                         f"{window.timesteps(s.rate_hz)} here")
    stats = stats or bundle.norm_stats()
    X, y = daq.bundle_arrays(bundle, [b.name for b in spec.branches], stats)
    if limit is not None and limit < len(y):
        # The split is stored in class order, so an even stride covers every class.
        idx = np.arange(limit) * len(y) // limit
        X, y = {k: v[idx] for k, v in X.items()}, y[idx]
    return X, y, stats


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_data(cfg: Config, args) -> int:
    splits = {"dataset": (cfg.raw["n_per_class"], "datagen"),
              "dataset_test": (cfg.raw["n_per_class_test"], "datagen-test")}
    bundles = {split: daq.gen_dataset(list(cfg.sensors), cfg.raw["classes"], n,
                                      cfg.raw["informative"] or None, cfg.raw["noise_level"],
                                      substream(cfg.raw["seed"], salt).integers(2**31),
                                      cfg.window.window_s)
               for split, (n, salt) in splits.items()}
    for split, bundle in bundles.items():
        daq.save_dataset(cfg.out / split, bundle, meta=cfg.echo)
    print(f"wrote {cfg.out/'dataset'} and {cfg.out/'dataset_test'}")
    return 0


def _train_meta(cfg: Config, stats) -> dict:
    return cfg.echo | {"norm_stats": {k: list(v) for k, v in stats.items()}}


def cmd_train(cfg: Config, args) -> int:
    X, y, stats = _load_bundle_arrays(cfg, cfg.spec)
    params, history = tr.train(cfg.spec, (X, y), cfg.train)
    meta = _train_meta(cfg, stats)
    mdl.save_model(cfg.out / "model.json", cfg.spec, params, meta=meta)
    tr.history_to_csv(history, cfg.out / "history.csv")
    write_json_atomic(cfg.out / "history.meta.json", cfg.echo)
    print(f"trained {len(history)} epochs; final "
          f"batch_acc={history[-1]['batch_acc']:.4f}" if history else "0 epochs")
    return 0


def _same_json(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _trusted(read, key):
    """The one rule by which a stage takes a result from out instead of
    computing it: read() returns (result, the provenance stored with it), and
    the result is taken when that provenance is key, compared as JSON. None
    when read raises, as a missing, unreadable or malformed file makes it, or
    the files were made from other inputs."""
    try:
        result, found = read()
        return result if _same_json(found, key) else None
    except Exception:  # noqa: BLE001 - a file a stage cannot use is recomputed, never an error
        return None


def _trained(cfg: Config, stats):
    """(params, history.csv text) of train's model in out, when model.json,
    history.csv and history.meta.json are what cmd_train writes for this
    config and the dataset's stats; None otherwise (_trusted)."""
    def read():
        spec, params, meta = mdl.load_model(cfg.out / "model.json")
        history = (cfg.out / "history.csv").read_text(encoding="utf-8")
        history_meta = json.loads((cfg.out / "history.meta.json").read_text(encoding="utf-8"))
        return (params, history), [asdict(spec), meta, history_meta]

    return _trusted(read, [asdict(cfg.spec), _train_meta(cfg, stats), cfg.echo])


def _record_key(cfg: Config, args, X: dict) -> dict:
    """What a record's result is a function of: the model file's bytes, the
    model input frames X (each sensor's name, dtype, shape and bytes) and the
    config."""
    frames = hashlib.sha256()
    for name, x in X.items():
        frames.update(f"{name} {x.dtype.str} {x.shape}".encode())
        frames.update(np.ascontiguousarray(x))
    model = hashlib.sha256(_model_path(cfg, args).read_bytes())
    return {"model_sha256": model.hexdigest(), "frames_sha256": frames.hexdigest()} | cfg.echo


def _reuse(path: Path, schema: str, key: dict, decode, compute, encode):
    """(result, save) of a record, a file in out holding one result under
    schema and key. The result is decode(doc)'s when _trusted takes the
    record at path, and compute()'s otherwise; then save writes the record,
    {"schema", "key"} | encode(result), and else it does nothing. The stage
    calls save with its other outputs, so a failed stage writes no record."""
    def read():
        doc = read_json_checked(path, schema)
        return decode(doc), doc["key"]

    found = _trusted(read, key)
    if found is not None:
        return found, lambda: None
    result = compute()
    return result, lambda: write_json_atomic(path, {"schema": schema, "key": key}
                                             | encode(result))


def _calibration(cfg: Config, args, spec, params, X: dict):
    """(CalibStats over the calibration frames X, save): quantize and sweep
    calibrate once per run, through calib.json (_reuse)."""
    names = [b.name for b in spec.branches]
    return _reuse(cfg.out / "calib.json", "edgehar.calib/v1", _record_key(cfg, args, X),
                  lambda doc: qz.CalibStats.from_dict(doc["stats"], names),
                  lambda: qz.calibrate(spec, params, X), lambda stats: {"stats": asdict(stats)})


def _fp_test(cfg: Config, args, spec, params, Xt: dict):
    """(the FP32 argmax class of each test frame Xt, save): sweep and infer
    run the FP pass over the test split once per run, through fp_test.json
    (_reuse)."""
    def decode(doc):
        classes = check_array("classes", doc["classes"], int)
        n = len(next(iter(Xt.values())))
        if classes.shape != (n,) or not ((classes >= 0) & (classes < spec.classes)).all():
            raise ValueError(f"classes must be {n} classes in [0, {spec.classes})")
        return classes

    return _reuse(cfg.out / "fp_test.json", "edgehar.fp_test/v1", _record_key(cfg, args, Xt),
                  decode, lambda: np.argmax(mdl.forward_batch(spec, params, Xt), axis=1),
                  lambda classes: {"classes": classes.tolist()})


def cmd_select(cfg: Config, args) -> int:
    """Rank the sensors by a jointly trained importance vector, keep the
    config's keep highest-ranked ones and write the model of those sensors.

    When every sensor is kept, the kept model is train's: same spec, data,
    seed and settings. select then trusts train's files in out, as quantize,
    sweep and infer trust model.json: it takes model.json's weights and
    history.csv's text when _trained finds them made for this run, and
    retrains otherwise. Training is deterministic, so both give the same
    bytes."""
    spec_a = replace(cfg.spec, alpha_enabled=True)
    X, y, stats = _load_bundle_arrays(cfg, spec_a)
    _, _, report = tr.train_importance(spec_a, (X, y), cfg.train)
    kept = tr.select_modalities(report, cfg.raw["keep"])
    spec_sel = replace(cfg.spec, branches=tuple(b for b in cfg.spec.branches if b.name in kept))
    reused = _trained(cfg, stats) if spec_sel == cfg.spec else None
    if reused:
        params, history_csv = reused
    else:
        Xs = {k: v for k, v in X.items() if k in kept}
        params, history = tr.train(spec_sel, (Xs, y), cfg.train)
    importance = {"schema": "edgehar.importance/v1", **report.to_dict(), "kept": kept}
    write_json_atomic(cfg.out / "importance.json", importance | cfg.echo)
    meta = cfg.echo | {
        "norm_stats": {k: list(v) for k, v in stats.items() if k in kept},
        "kept_sensors": kept,
    }
    mdl.save_model(cfg.out / "model_selected.json", spec_sel, params, meta=meta)
    if reused:
        write_text_atomic(cfg.out / "history_selected.csv", history_csv)
    else:
        tr.history_to_csv(history, cfg.out / "history_selected.csv")
    write_json_atomic(cfg.out / "history_selected.meta.json", cfg.echo)
    how = "reused train's model" if reused else "retrained model"
    print(f"kept {kept}; {how} at {cfg.out/'model_selected.json'}")
    return 0


def _load_qmodel(cfg: Config, args, spec: mdl.ModelSpec):
    """The --qmodel file (the first width's by default), rejected unless it
    quantizes spec, the --model file's network, at the config's window rows."""
    path = args.qmodel or cfg.out / f"qmodel_n{cfg.raw['bits'][0]}.json"
    qm, _ = qz.load_qmodel(path)
    if qm.spec != spec:
        have, want = ([b.name for b in s.branches] for s in (qm.spec, spec))
        raise ValueError(f"{path} (branches {have}) does not quantize the network of "
                         f"{args.model or cfg.out / 'model.json'} (branches {want})")
    sensors = {s.name: s for s in cfg.sensors}
    for b in spec.branches:
        s, rows = sensors[b.name], qm.input_rows.get(b.name)
        if rows is None:
            raise ValueError(f"{path} has no input_rows entry for sensor {s.name!r}")
        if rows != cfg.rows[s.name]:
            raise ValueError(f"{path} was quantized at {rows} rows for sensor {s.name!r}, "
                             f"but window_ms {cfg.raw['window_ms']} gives it "
                             f"{cfg.rows[s.name]} rows at {s.rate_hz} Hz")
    return qm


def _model_path(cfg: Config, args) -> Path:
    return Path(getattr(args, "model", None) or cfg.out / "model.json")


def _load_model_for(cfg: Config, args):
    """The --model file (model.json by default), checked against the config's
    sensors, and its meta's norm_stats: an object of (lo, hi) number pairs."""
    path = _model_path(cfg, args)
    spec, params, meta = mdl.load_model(path)
    stats = {}
    with labelled(path):
        for k, v in meta.get("norm_stats", {}).items():
            lo_hi = check_array(f"norm_stats[{k!r}]", v, float)
            if lo_hi.shape != (2,):
                raise ValueError(f"norm_stats[{k!r}] must be two numbers (lo, hi), got {v!r}")
            stats[k] = tuple(lo_hi.tolist())
    inputs = {b.name: (b.channels, b.conv_dim, b.grid) for b in cfg.spec.branches}
    for b in spec.branches:
        if inputs.get(b.name) != (b.channels, b.conv_dim, b.grid):
            have = {s.name: s.channels for s in cfg.sensors}
            raise ValueError(f"{path} has a branch for sensor {b.name!r} of {b.channels} "
                             f"channels, which the config lacks; config sensors: {have}")
    return spec, params, stats


def cmd_quantize(cfg: Config, args) -> int:
    spec, params, stats = _load_model_for(cfg, args)
    X, _, _ = _load_bundle_arrays(cfg, spec, stats, limit=cfg.raw["calib_frames"])
    calib, save_calib = _calibration(cfg, args, spec, params, X)
    qms = [qz.quantize(spec, params, calib, n) for n in cfg.raw["bits"]]
    for qm in qms:
        qz.save_qmodel(cfg.out / f"qmodel_n{qm.n_bits}.json", qm, meta=cfg.echo)
    save_calib()
    print(f"quantized at bits {cfg.raw['bits']}")
    return 0


def cmd_sweep(cfg: Config, args) -> int:
    spec, params, stats = _load_model_for(cfg, args)
    Xc, _, _ = _load_bundle_arrays(cfg, spec, stats, limit=cfg.raw["calib_frames"])
    Xt, yt, _ = _load_bundle_arrays(cfg, spec, stats, test=True)
    calib, save_calib = _calibration(cfg, args, spec, params, Xc)
    fp_pred, save_fp = _fp_test(cfg, args, spec, params, Xt)
    curve = qz.sweep_bits(spec, params, (Xt, yt), cfg.raw["bits"], calib, fp_pred)
    write_csv_atomic(cfg.out / "sweep.csv", ["n_bits", "accuracy_ratio"],
                     [(n, repr(r)) for n, r in curve])
    write_json_atomic(cfg.out / "sweep.meta.json", cfg.echo)
    save_calib()
    save_fp()
    for n, r in curve:
        print(f"n={n:3d}  ratio={'undefined (FP32 accuracy 0)' if math.isnan(r) else f'{r:.4f}'}")
    return 0


def cmd_infer(cfg: Config, args) -> int:
    spec, params, stats = _load_model_for(cfg, args)
    qm = _load_qmodel(cfg, args, spec) if args.qmodel else None
    Xt, yt, _ = _load_bundle_arrays(cfg, spec, stats, test=True)
    if qm is not None:
        preds, save_fp = engine.qinfer_batch(qm, Xt), lambda: None
        kind = f"integer n={qm.n_bits}"
    else:
        preds, save_fp = _fp_test(cfg, args, spec, params, Xt)
        kind = "fp32"
    acc = float(np.mean(preds == yt))
    write_csv_atomic(cfg.out / "predictions.csv", ["index", "label", "predicted"],
                     ((i, int(l), int(p)) for i, (l, p) in enumerate(zip(yt, preds))))
    write_json_atomic(cfg.out / "predictions.meta.json",
                      cfg.echo | {"accuracy": acc, "engine": kind})
    save_fp()
    print(f"{kind} accuracy {acc:.4f} over {len(yt)} frames")
    return 0


def _sim_calls(frames, tracks: dict[str, np.ndarray], limits: dict[str, int]):
    """(frame end stamps, raw lead rows, windows) of each qinfer_batch call
    over simulate's frames, made in one pass over them in frame order.
    Consecutive exact frames (first_rows set), which abut or overlap since
    WindowConfig keeps step <= window, form a run while each sensor's span
    from the run's first row stays within limits[sensor]. That bounds each
    sensor's first row, the run's reach, found once per run. A run's lead row
    is a view of the value rows the DAQ replays, tracks[sensor], over the
    span, with a window per frame at its offset. Fitted frames are stacked,
    SIM_CHUNK_FRAMES at most, one lead row each of their own tensors."""
    ends, held = [], []  # the open call's end stamps, and its first rows or tensors
    start = None  # the open run's first rows per sensor; None for a stack
    rows = reach = None  # the open run's rows per window and reach, per sensor

    def call():
        if start is None:
            return ends, {n: np.stack([x[n] for x in held]) for n in held[0]}, None
        return ends, {n: tracks[n][start[n]:held[-1][n] + rows[n]][None] for n in start}, (
            [0] * len(ends), {n: [f[n] - start[n] for f in held] for n in start})

    for f in frames:
        first = f.first_rows
        joins = (start is None and len(ends) < SIM_CHUNK_FRAMES if first is None else
                 start is not None and all(map(operator.le, first.values(), reach)))
        if ends and not joins:
            yield call()
            ends, held = [], []
        if not ends:
            start = first
            if first is not None:
                rows = {n: len(x) for n, x in f.tensors.items()}
                reach = [first[n] + limits[n] - rows[n] for n in first]
        ends.append(f.t_end_ns)
        held.append(f.tensors if first is None else first)
    if ends:
        yield call()


def cmd_simulate(cfg: Config, args) -> int:
    spec, params, stats = _load_model_for(cfg, args)
    qm = _load_qmodel(cfg, args, spec)
    report = engine.model_cycles(spec, cfg.rows, cfg.raw["schedule"], cfg.raw["clock_hz"],
                                 cfg.raw["kappa"])
    sensors = [s for s in cfg.sensors if s.name in {b.name for b in spec.branches}]
    sim = cfg.raw["sim"]
    rng = substream(cfg.raw["seed"], "sim")
    class_seq = [int(c) for c in rng.integers(0, cfg.raw["classes"], sim["n_segments"])]
    rec, spans = daq.gen_timeline(
        sensors, class_seq, Fraction(sim["segment_ms"], 1000),
        cfg.raw["noise_level"], cfg.raw["seed"], classes=cfg.raw["classes"],
    )
    session = daq.start_sync(daq.recording_sources(rec, sensors))
    limits = {b.name: engine._run_rows(spec, b, cfg.rows[b.name], SIM_CHUNK_FRAMES)
              for b in spec.branches}
    rows_out = []
    tracks = {n: v for n, (_, v) in rec.tracks.items()}
    for ends, X, windows in _sim_calls(daq.stream_frames(session, cfg.window), tracks, limits):
        preds = engine.qinfer_batch(qm, mdl.normalize_inputs(X, stats), windows)
        rows_out += [(t, int(c)) for t, c in zip(ends, preds)]
    conserved = session.conservation()
    if not all(c["ok"] for c in conserved.values()):
        raise RuntimeError(f"sample conservation violated: {conserved}")
    write_csv_atomic(cfg.out / "labels.csv", ["t_ns", "class"], rows_out)
    write_json_atomic(cfg.out / "labels.meta.json",
                      cfg.echo | {"truth_spans": spans})
    write_json_atomic(cfg.out / "cycles.json",
                      {"schema": "edgehar.cycles/v1", **report.to_dict()} | cfg.echo)
    print(f"emitted {len(rows_out)} labels; "
          f"latency {report.latency_s*1e3:.3f} ms per frame ({cfg.raw['schedule']})")
    return 0


def cmd_report(cfg: Config, args) -> int:
    spec, _, _ = _load_model_for(cfg, args)
    rows = []
    for n in cfg.raw["bits"]:
        width = storage_format(n).n_bits
        for mode in ("serial", "parallel"):
            cyc = engine.model_cycles(spec, cfg.rows, mode, cfg.raw["clock_hz"],
                                      cfg.raw["kappa"])
            res = engine.estimate_resources(spec, cfg.rows, mode, width)
            rows.append([
                n, width, mode, cyc.total_cycles,
                repr(cyc.latency_s * 1e3), repr(cyc.throughput_lps),
                res.memory_bits, res.weight_bits, res.mac_lanes,
                res.multiplier_units,
            ])
    header = ["n_bits", "storage_bits", "schedule", "total_cycles", "latency_ms",
              "throughput_labels_per_s", "memory_bits", "weight_bits",
              "mac_lanes", "multiplier_units"]
    write_csv_atomic(cfg.out / "report.csv", header, rows)
    write_json_atomic(cfg.out / "report.meta.json", cfg.echo)
    print(f"wrote {cfg.out/'report.csv'} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="edgehar", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(name, run, help, *artifact_flags):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--bits", type=str, default=None,
                        help="comma-separated magnitude-bit list, e.g. 8,10,12")
        sp.add_argument("--schedule", choices=engine._SCHEDULES, default=None)
        sp.add_argument("--clock-hz", dest="clock_hz", type=float, default=None)
        sp.add_argument("--window-ms", dest="window_ms", type=int, default=None)
        sp.add_argument("--step-ms", dest="step_ms", type=int, default=None)
        sp.add_argument("--keep", type=int, default=None)
        for flag in artifact_flags:
            sp.add_argument(f"--{flag}", type=str, default=None)

    common("gen-data", cmd_gen_data, "generate the synthetic dataset")
    common("train", cmd_train, "train the fp32 model")
    common("select", cmd_select, "rank modalities and retrain on the top ones, or reuse "
           "train's model when all are kept")
    common("quantize", cmd_quantize, "post-training quantize at each bit width", "model")
    common("sweep", cmd_sweep, "accuracy-ratio curve over bit widths", "model")
    common("infer", cmd_infer, "run inference over the test dataset", "model", "qmodel")
    common("simulate", cmd_simulate, "stream a timeline through the engine", "model", "qmodel")
    common("report", cmd_report, "latency/resource table over bits x schedule", "model")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 1
    try:
        return args.run(parse_config(_load_config(args)), args)
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
