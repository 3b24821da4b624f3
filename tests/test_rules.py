"""Each input field's rule is kept by the class that owns the field.

A config, a manifest, a model.json and a qmodel file are input from outside:
any JSON value may stand where a count, a rate or a flag belongs. Every
owner rejects a bool, a fractional number for an integer field, a non-finite
number for a float field and a string, naming the field; and through the
CLI each file kind fails at load with exit 2, naming the file or key.
"""

import json
import math
import shutil
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_qmodel
from edgehar.cli import main
from edgehar.daq import SensorFifo, SensorSpec, load_dataset
from edgehar.fxp import storage_format
from edgehar.model import BranchSpec, ConvSpec, ModelSpec, load_model
from edgehar.quantize import QLayer, QuantizedModel, load_qmodel
from edgehar.train import TrainConfig

LAYERS = (ConvSpec(2, 2),) * 3


def _qmodel(**kw):
    qm, _ = random_qmodel(np.random.default_rng(0), 8)
    args = dict(spec=qm.spec, n_bits=qm.n_bits, rescales=qm.rescales,
                dense_scales=qm.dense_scales, branches=qm.branches, dense=qm.dense,
                input_rows=qm.input_rows)
    if "rows" in kw:  # one sensor's input_rows value
        kw["input_rows"] = dict(qm.input_rows, **{qm.spec.branches[0].name: kw.pop("rows")})
    return QuantizedModel(**(args | kw))


# owner, the field's name in the message, its kind, a call that sets it and a
# value the call accepts
OWNERS = [
    *(("TrainConfig", f, int, lambda v, f=f: TrainConfig(**{f: v}), 2)
      for f in ("epochs", "batch_size", "seed")),
    *(("TrainConfig", f, float, lambda v, f=f: TrainConfig(**{f: v}), 0.5)
      for f in ("lr", "beta1", "beta2", "eps", "val_fraction")),
    ("SensorSpec", "channels", int, lambda v: SensorSpec("s", v, 10), 2),
    ("SensorSpec", "conv_dim", int, lambda v: SensorSpec("s", 2, 10, conv_dim=v), 1),
    ("SensorSpec", "grid", int, lambda v: SensorSpec("s", 6, 10, conv_dim=2, grid=[v, 3]), 2),
    ("SensorSpec", "rate_hz", float, lambda v: SensorSpec("s", 2, v), 6.5),
    ("SensorSpec", "name", str, lambda v: SensorSpec(v, 2, 10), "s"),
    ("SensorSpec", "model", str, lambda v: SensorSpec("s", 2, 10, model=v), "LPS22HB"),
    ("BranchSpec", "channels", int, lambda v: BranchSpec("b", v, LAYERS), 2),
    ("BranchSpec", "conv_dim", int, lambda v: BranchSpec("b", 2, LAYERS, conv_dim=v), 1),
    ("BranchSpec", "grid", int,
     lambda v: BranchSpec("b", 6, LAYERS, conv_dim=2, grid=(3, v)), 2),
    ("ConvSpec", "filters", int, lambda v: ConvSpec(v, 3), 4),
    ("ConvSpec", "kernel", int, lambda v: ConvSpec(4, v), 3),
    ("ConvSpec", "pool", int, lambda v: ConvSpec(4, 3, v), 2),
    ("ModelSpec", "classes", int, lambda v: ModelSpec((BranchSpec("b", 2, LAYERS),), 8, v), 3),
    ("ModelSpec", "hidden", int, lambda v: ModelSpec((BranchSpec("b", 2, LAYERS),), v, 3), 8),
    ("SensorFifo", "depth", int,
     lambda v: SensorFifo("s", np.zeros(0, np.int64), np.zeros((0, 1)), v), 4),
    ("storage_format", "n_bits", int, storage_format, 8),
    ("QLayer", "mult", int, lambda v: QLayer(np.ones((2, 1, 1), np.int64), v, 8), 3),
    ("QLayer", "shift", int, lambda v: QLayer(np.ones((2, 1, 1), np.int64), 1, v), 0),
    ("QLayer", "relu", bool, lambda v: QLayer(np.ones((2, 1, 1), np.int64), 1, 8, v), False),
    ("QuantizedModel", "n_bits", int, lambda v: _qmodel(n_bits=v), 8),
    ("QuantizedModel", "input_rows", int, lambda v: _qmodel(rows=v), None),
]
BAD = {int: [True, 2.5, "2"], float: [False, math.nan, math.inf, -math.inf, "0.5"],
       str: [True, 5], bool: ["no", 1, None]}


@pytest.mark.parametrize("owner, field, kind, make, good, value", [
    pytest.param(*o, v, id=f"{o[0]}.{o[1]}={v!r}") for o in OWNERS for v in BAD[o[2]]])
def test_owner_rejects_a_value_of_the_wrong_kind(owner, field, kind, make, good, value):
    if good is not None:  # input_rows' good value is the model's own
        make(good)
    with pytest.raises(ValueError, match="must be") as ex:
        make(value)
    assert field in str(ex.value) and repr(value) in str(ex.value), owner


def test_rate_hz_takes_int_and_float_not_fraction():
    assert SensorSpec("s", 2, 25).rate == 25 and SensorSpec("s", 2, 12.4).rate == Fraction("12.4")
    with pytest.raises(ValueError, match="^sensor 's': rate_hz must be a number > 0, got 0$"):
        SensorSpec("s", 2, 0)
    # no config, manifest or src caller holds a Fraction rate (JSON cannot)
    with pytest.raises(ValueError, match="rate_hz must be a number > 0, got Fraction"):
        SensorSpec("s", 2, Fraction(25))


def test_storage_format_checks_the_type_of_its_width():
    for bad in (True, 8.0, "8"):
        with pytest.raises(ValueError, match=f"^n_bits must be an integer, got {bad!r}$"):
            storage_format(bad)
    assert storage_format(1).n_bits == 2  # True is not the cached 1
    with pytest.raises(ValueError, match="^n_bits must be an integer, got True$"):
        storage_format(True)


def test_layout_rule_is_one_for_branches_and_sensors():
    for make, label in ((lambda **kw: BranchSpec("x", 6, LAYERS, **kw), "branch 'x'"),
                        (lambda **kw: SensorSpec("x", 6, 10, **kw), "sensor 'x'")):
        with pytest.raises(ValueError, match=f"^{label}: a 1D input takes no grid"):
            make(conv_dim=1, grid=(2, 3))
        with pytest.raises(ValueError, match=f"^{label}: a 2D input's grid must be two"):
            make(conv_dim=2)
        with pytest.raises(ValueError, match=rf"^{label}: grid \[3, 3\] does not hold 6 channels"):
            make(conv_dim=2, grid=[3, 3])
        with pytest.raises(ValueError, match=f"^{label}: conv_dim must be 1 or 2, got 3$"):
            make(conv_dim=3)
        assert make(conv_dim=2, grid=[2, 3]).grid == (2, 3)


# ---------------------------------------------------------------------------
# Through the CLI: one case per file kind
# ---------------------------------------------------------------------------

CFG = {
    "seed": 5,
    "sensors": [{"name": "a", "channels": 2, "rate_hz": 25},
                {"name": "b", "channels": 1, "rate_hz": 40}],
    "classes": 3, "n_per_class": 4, "n_per_class_test": 2, "noise_level": 0.3,
    "window_ms": 1000, "step_ms": 1000,
    "model": {"filters": 4, "kernel": 3, "hidden": 8},
    "train": {"epochs": 2, "batch_size": 4, "lr": 0.01},
    "bits": [8], "keep": 2, "calib_frames": 12,
    "sim": {"n_segments": 2, "segment_ms": 1000},
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """An out tree after gen-data, train and quantize."""
    root = tmp_path_factory.mktemp("rules")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(dict(CFG, out=str(root / "run"))))
    for stage in ("gen-data", "train", "quantize"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    return root


@pytest.fixture
def run(trained, tmp_path):
    """A fresh copy of the trained out tree, and its config file."""
    shutil.copytree(trained / "run", tmp_path / "run")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(CFG, out=str(tmp_path / "run"))))
    return tmp_path / "run", str(cfg)


def _edit(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _fails(capsys, argv, *names):
    assert main(argv) == 2, argv
    err = capsys.readouterr().err
    assert "validation error" in err and all(n in err for n in names), err


@pytest.mark.parametrize("train, names", [
    ({"lr": True}, ["train.lr", "got True"]),
    ({"epochs": 2.0}, ["train.epochs", "got 2.0"]),
    ({"val_fraction": 1.0}, ["train.val_fraction must be in [0, 1), got 1.0"]),
    ({"val_fraction": 0.99}, ["train.val_fraction 0.99 leaves none of 12"]),
])
def test_config_train_error_names_its_key(tmp_path, capsys, train, names):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(CFG, out=str(tmp_path / "r"), train=CFG["train"] | train)))
    _fails(capsys, ["train", "--config", str(cfg)], *names)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("field, value", [("rate_hz", True), ("rate_hz", "25"),
                                          ("name", 7), ("channels", 2.0)])
def test_config_sensor_error_is_sensor_specs(tmp_path, capsys, field, value):
    sensors = [dict(CFG["sensors"][0], **{field: value}), CFG["sensors"][1]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(CFG, out=str(tmp_path / "r"), sensors=sensors)))
    _fails(capsys, ["gen-data", "--config", str(cfg)], "sensor ", f"{field} must be",
           f"got {value!r}")


@pytest.mark.parametrize("rate", [True, "25", math.inf])
def test_manifest_rate_hz_rejected(run, capsys, rate):
    # "rate_hz": true loaded as a 1 Hz sensor
    out, cfg = run
    _edit(out / "dataset" / "manifest.json", lambda d: d["sensors"][0].update(rate_hz=rate))
    with pytest.raises(ValueError, match=f"^sensor 'a': rate_hz must be a number > 0, got"):
        load_dataset(out / "dataset")
    _fails(capsys, ["train", "--config", cfg], "sensor 'a'", "rate_hz", repr(rate))


@pytest.mark.parametrize("change, names", [
    (lambda s: s["branches"][0].update(grid=[1, 2]), ["branch 'a'", "1D", "grid", "[1, 2]"]),
    (lambda s: s.update(hidden=0), ["hidden must be an integer >= 1, got 0"]),
    (lambda s: s["branches"][1]["layers"][0].update(filters=True),
     ["filters must be an integer >= 1, got True"]),
], ids=["1d_grid", "hidden_0", "filters_true"])
def test_model_json_spec_rejected(run, capsys, change, names):
    out, cfg = run
    path = out / "model.json"
    _edit(path, lambda d: change(d["spec"]))
    with pytest.raises(ValueError, match=f"^{path}: "):
        load_model(path)
    _fails(capsys, ["quantize", "--config", cfg], str(path), *names)


@pytest.mark.parametrize("where, key, value, names", [
    ("branch", "mult", 1.5, ["branch 'a' layer 1", "mult must be an integer >= 1, got 1.5"]),
    ("branch", "shift", 23.0, ["branch 'a' layer 1", "shift must be an integer >= 0"]),
    ("dense", "relu", "no", ["dense layer 1", "relu must be true or false, got 'no'"]),
    ("dense", "mult", True, ["dense layer 1", "mult must be an integer >= 1, got True"]),
    ("rows", "a", 25.7, ["input_rows['a'] must be an integer >= 1, got 25.7"]),
])
def test_qmodel_layer_fields_rejected(run, capsys, where, key, value, names):
    # these loaded, then failed in numpy (exit 3), ran a ReLU or truncated
    out, cfg = run
    path = out / "qmodel_n8.json"
    _edit(path, lambda d: {"branch": d["branches"][0][1], "dense": d["dense"][1],
                           "rows": d["input_rows"]}[where].update({key: value}))
    with pytest.raises(ValueError, match=f"^{path}: "):
        load_qmodel(path)
    _fails(capsys, ["simulate", "--config", cfg], str(path), *names)
    assert not (out / "labels.csv").exists()


@pytest.mark.parametrize("n_bits", [8.0, True])
def test_qmodel_n_bits_type_rejected(run, capsys, n_bits):
    # "n_bits": 8.0 raised TypeError in QLayer.check_storage (exit 3)
    out, cfg = run
    path = out / "qmodel_n8.json"
    _edit(path, lambda d: d.update(n_bits=n_bits))
    _fails(capsys, ["infer", "--config", cfg, "--qmodel", str(path)], str(path),
           f"n_bits must be an integer, got {n_bits!r}")
