"""Each input field's rule is kept by the class that owns the field.

A config, a manifest, a model.json and a qmodel file are input from outside:
any JSON value may stand where a count, a rate or a flag belongs. Every
owner rejects a bool, a fractional number for an integer field, a non-finite
number for a float field and a string, naming the field; and through the
CLI each file kind fails at load with exit 2, naming the file or key. Each
array's owner goes through persist.check_array, and a badly shaped document
fails at load with exit 2, naming the file.
"""

import json
import math
import re
import shutil
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_qmodel
from edgehar.cli import main
from edgehar.daq import SensorFifo, SensorSpec, load_dataset
from edgehar.fxp import storage_format
from edgehar.model import BranchSpec, ConvSpec, ModelSpec, load_model
from edgehar.persist import check_array
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


# ---------------------------------------------------------------------------
# Arrays: persist.check_array, called by each array's owner
# ---------------------------------------------------------------------------

def _all_true(a):
    return [_all_true(x) if isinstance(x, list) else True for x in a]


def _spoil(a, case, value):
    """A copy of nested list a spoiled by case: every entry true, a ragged
    list, or value in place of the first entry."""
    if case == "bool":
        return _all_true(a)
    a = row = json.loads(json.dumps(a))
    while isinstance(row[0], list):  # the innermost list that holds the first entry
        row = row[0]
    if case == "ragged" and row is a:  # a 1D list is ragged when an entry is a list
        a[0] = [a[0]]
    elif case == "ragged":
        row.pop()
    else:
        row[0] = value
    return a


ARRAY_BAD = {
    int: [("bool", None), ("mixed_bool", True), ("string", "2"), ("null", None),
          ("ragged", None), ("fraction", 1.5)],
    float: [("bool", None), ("mixed_bool", True), ("string", "0.5"), ("null", None),
            ("ragged", None), ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)],
}


def _qlayer_w(run, capsys, change):
    QLayer(change([[1, 2], [3, 4]]), 1, 8)


def _model_weight(key):
    def load(run, capsys, change):
        path = run[0] / "model.json"
        _edit(path, lambda d: d["weights"].update({key: change(d["weights"][key])}))
        load_model(path)
    return load


def _model_branch_weight(run, capsys, change):
    path = run[0] / "model.json"
    _edit(path, lambda d: d["weights"]["branches"][1].__setitem__(
        2, change(d["weights"]["branches"][1][2])))
    load_model(path)


def _norm_stats(run, capsys, change):
    out, cfg = run
    _edit(out / "model.json", lambda d: d["meta"]["norm_stats"].update(
        a=change(d["meta"]["norm_stats"]["a"])))
    code, err = main(["infer", "--config", cfg]), capsys.readouterr().err
    if code:
        assert code == 2 and err.startswith("validation error"), err
        raise ValueError(err)


def _labels(run, capsys, change):
    _edit(run[0] / "dataset" / "manifest.json", lambda d: d.update(labels=change(d["labels"])))
    load_dataset(run[0] / "dataset")


# owner, the field's name in the message, its kind and a call that loads the
# owner's array after a change to it
ARRAY_OWNERS = [
    ("QLayer", "w", int, _qlayer_w),
    ("load_model", "weights.dense2", float, _model_weight("dense2")),
    ("load_model", "weights.dense1", float, _model_weight("dense1")),
    ("load_model", "weights.branches[1][2]", float, _model_branch_weight),
    ("_load_model_for", "norm_stats['a']", float, _norm_stats),
    ("load_dataset", "labels", int, _labels),
]


@pytest.mark.parametrize("owner, field, kind, load, case, value", [
    pytest.param(*o, *c, id=f"{o[0]}.{o[1]}-{c[0]}")
    for o in ARRAY_OWNERS for c in ARRAY_BAD[o[2]]])
def test_array_owner_rejects_a_bad_entry(run, capsys, owner, field, kind, load, case, value):
    load(run, capsys, lambda a: a)  # the array as it is loads
    with pytest.raises(ValueError) as ex:
        load(run, capsys, lambda a: _spoil(a, case, value))
    assert f"each entry of {field} must be" in str(ex.value), str(ex.value)


def test_check_array_returns_a_new_array_of_its_kind():
    src = np.arange(6, dtype=np.int32).reshape(2, 3)
    for kind, dtype in ((int, np.int64), (float, np.float64)):
        for value in (src, src.tolist()):
            out = check_array("x", value, kind)
            assert out.dtype == dtype and out.shape == (2, 3) and np.array_equal(out, src)
            assert not np.shares_memory(out, src)
    assert check_array("x", [1, 2.5], float).tolist() == [1.0, 2.5]
    assert check_array("x", ["0.5", "1e-3"], str).tolist() == ["0.5", "1e-3"]
    for value, kind, message in [
        ({"a": 1}, float, "each entry of x must be a number, got {'a': 1}"),
        (np.ones(2), int, "each entry of x must be an integer, got "),  # a float64
        (np.ones(2, bool), float, "each entry of x must be a number, got "),  # a numpy bool
        (["0.5", 0.5], str, "each entry of x must be a string, got 0.5"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            check_array("x", value, kind)
    with pytest.raises(OverflowError):  # a loader's label makes it a ValueError
        check_array("x", [2**70], int)


# ---------------------------------------------------------------------------
# Through the CLI: a malformed document fails at load, naming its file
# ---------------------------------------------------------------------------

def _set(keys, value):
    """An edit that sets the entry at the key path keys of a document."""
    def change(d):
        for k in keys[:-1]:
            d = d[k]
        d[keys[-1]] = value(d[keys[-1]]) if callable(value) else value
    return change


def _first(value):
    return lambda a: _spoil(a, "first", value)


QMODEL_CASES = [  # these loaded and ran (exit 0), failed with exit 3, or named no file
    ("conv_w_fraction", "infer", _set(["branches", 0, 0, "w"], _first(1.5)),
     ["branch 'a' layer 0", "each entry of w must be an integer, got 1.5"]),
    ("w_string", "simulate", _set(["branches", 1, 2, "w"], _first("7")),
     ["branch 'b' layer 2", "got '7'"]),
    ("dense_w_one_true", "simulate", _set(["dense", 1, "w"], _first(True)),
     ["dense layer 1", "got True"]),
    ("w_2_70", "simulate", _set(["dense", 0, "w"], _first(2**70)),
     ["dense layer 0", "OverflowError"]),
    ("input_rows_list", "simulate", _set(["input_rows"], [1, 2]), ["'list'", "items"]),
    ("spec_list", "simulate", _set(["spec"], []), ["list indices"]),
    ("branch_entry_5", "simulate", _set(["branches", 0], 5), ["'int' object"]),
    ("layer_x", "simulate", _set(["branches", 0, 1], "x"), ["string indices"]),
    ("dense_entry_null", "simulate", _set(["dense", 1], None), ["'NoneType'"]),
    ("rescale_true", "simulate", _set(["rescales", 0], True),
     ["each entry of rescales must be a string, got True"]),
    ("dense_scale_number", "infer", _set(["dense_scales", 1, 0], 0.5),
     ["each entry of dense_scales must be a string, got 0.5"]),
    ("dense_scale_single", "simulate", _set(["dense_scales", 0], ["0.5"]),
     ["each entry of dense_scales must be a string, got ["]),
    ("no_n_bits", "simulate", lambda d: d.pop("n_bits"), ["KeyError: 'n_bits'"]),
]


@pytest.mark.parametrize("stage, change, names", [pytest.param(*c[1:], id=c[0])
                                                  for c in QMODEL_CASES])
def test_malformed_qmodel_exits_2_naming_it(run, capsys, stage, change, names):
    out, cfg = run
    path = out / "qmodel_n8.json"
    _edit(path, change)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_qmodel(path)
    _fails(capsys, [stage, "--config", cfg, "--qmodel", str(path)], f"{path}: ", *names)


MODEL_CASES = [
    ("dense2_all_true", "quantize", _set(["weights", "dense2"], _all_true),
     ["each entry of weights.dense2 must be a number, got True"]),
    ("weights_list", "quantize", _set(["weights"], []), ["list indices"]),
    ("spec_branch_3", "quantize", _set(["spec", "branches", 0], 3), ["'int' object"]),
    ("layers_3", "quantize", _set(["spec", "branches", 0, "layers"], 3), ["'int' object"]),
    ("unknown_spec_key", "quantize", _set(["spec", "depth"], 3), ["'depth'"]),
    ("meta_list", "quantize", _set(["meta"], []), ["'list'", "get"]),
    ("string_weight", "quantize", _set(["weights", "branches", 0, 0], "0.5"),
     ["each entry of weights.branches[0][0] must be a number, got '0.5'"]),
    ("ragged_dense1", "quantize", _set(["weights", "dense1"], lambda a: _spoil(a, "ragged", 0)),
     ["each entry of weights.dense1 must be a number, got ["]),
    ("null_weight", "quantize", _set(["weights", "dense1"], _first(None)),
     ["each entry of weights.dense1 must be a number, got None"]),
    ("nan_weight", "quantize", _set(["weights", "dense1"], _first(math.nan)),
     ["each entry of weights.dense1 must be a number, got nan"]),
    ("no_dense2", "quantize", lambda d: d["weights"].pop("dense2"), ["KeyError: 'dense2'"]),
    ("norm_stats_strings", "infer", _set(["meta", "norm_stats", "a"], ["0", "1"]),
     ["each entry of norm_stats['a'] must be a number, got '"]),
    ("norm_stats_entry_3", "infer", _set(["meta", "norm_stats", "a"], 3),
     ["norm_stats['a'] must be two numbers (lo, hi), got 3"]),
    ("norm_stats_list", "quantize", _set(["meta", "norm_stats"], [[0, 1]]), ["'list'", "items"]),
    ("norm_stats_true_5", "infer", _set(["meta", "norm_stats", "a"], [True, 5]),
     ["norm_stats['a']", "got True"]),
    ("norm_stats_three", "simulate", _set(["meta", "norm_stats", "b"], [0.0, 0.5, 1.0]),
     ["norm_stats['b'] must be two numbers (lo, hi), got [0.0, 0.5, 1.0]"]),
]


@pytest.mark.parametrize("stage, change, names", [pytest.param(*c[1:], id=c[0])
                                                  for c in MODEL_CASES])
def test_malformed_model_json_exits_2_naming_it(run, capsys, stage, change, names):
    out, cfg = run
    path = out / "model.json"
    _edit(path, change)
    _fails(capsys, [stage, "--config", cfg], f"{path}: ", *names)


MANIFEST_CASES = [
    ("labels_half", _set(["labels"], lambda a: [y + 0.5 for y in a]),
     ["each entry of labels must be an integer, got ", ".5"]),
    ("labels_true", _set(["labels"], _first(True)), ["labels", "got True"]),
    ("labels_string", _set(["labels"], _first("1")), ["labels", "got '1'"]),
    ("labels_object", _set(["labels"], {}), ["each entry of labels must be an integer, got {}"]),
    ("labels_2d", _set(["labels"], lambda a: [[y] for y in a]),
     ["labels must be a list of integers, got shape (12, 1)"]),
    ("window_s_list", _set(["window_s"], [1]), ["a string or a Rational"]),
    ("sensor_entry_string", _set(["sensors", 0], "a"), ["must be a mapping"]),
    ("unknown_sensor_key", _set(["sensors", 1, "depth"], 3), ["'depth'"]),
    ("no_classes", lambda d: d.pop("classes"), ["KeyError: 'classes'"]),
    # these loaded as they were: true as a 1 s window, a string seed as is
    ("window_s_true", _set(["window_s"], True), ["window_s must be a string, got True"]),
    ("window_s_number", _set(["window_s"], 1.5), ["window_s must be a string, got 1.5"]),
    ("window_s_zero", _set(["window_s"], "0"), ["window_s must be positive, got '0'"]),
    ("window_s_text", _set(["window_s"], "x"), ["window_s: ", "'x'"]),
    ("seed_string", _set(["seed"], "x"), ["seed must be an integer >= 0, got 'x'"]),
    ("seed_true", _set(["seed"], True), ["seed must be an integer >= 0, got True"]),
    ("classes_true", _set(["classes"], True), ["classes must be an integer >= 2, got True"]),
    ("classes_fraction", _set(["classes"], 2.5), ["classes must be an integer >= 2, got 2.5"]),
    ("noise_level_nan", _set(["noise_level"], math.nan),
     ["noise_level must be a number >= 0, got nan"]),
    ("noise_level_string", _set(["noise_level"], "0.3"),
     ["noise_level must be a number >= 0, got '0.3'"]),
    ("informative_int", _set(["informative", "a"], 1),
     ["informative: 'a' must be true or false, got 1"]),
    ("informative_list", _set(["informative"], []), ["informative: AttributeError"]),
]


@pytest.mark.parametrize("change, names", [pytest.param(*c[1:], id=c[0])
                                           for c in MANIFEST_CASES])
def test_malformed_manifest_exits_2_naming_it(run, capsys, change, names):
    out, cfg = run
    path = out / "dataset" / "manifest.json"
    _edit(path, change)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_dataset(out / "dataset")
    _fails(capsys, ["train", "--config", cfg], f"{path}: ", *names)


STAGES = ["gen-data", "train", "select", "quantize", "sweep", "infer", "simulate", "report"]


@pytest.mark.parametrize("key, value, message", [
    ("model.filters", 0, "model.filters must be an integer >= 1, got 0"),
    ("model.kernel", True, "model.kernel must be an integer >= 1, got True"),
    ("model.hidden", 2.0, "model.hidden must be an integer >= 1, got 2.0"),
    ("classes", 1, "classes must be an integer >= 2, got 1"),
    ("classes", "x", "classes must be an integer >= 2, got 'x'"),
])
def test_spec_keys_of_the_config_exit_2_from_every_stage(tmp_path, capsys, key, value, message):
    section, _, field = key.rpartition(".")
    doc = dict(CFG, out=str(tmp_path / "r"))
    doc = doc | ({section: doc[section] | {field: value}} if section else {field: value})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    for stage in STAGES:
        _fails(capsys, [stage, "--config", str(cfg)], f"validation error: {message}\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name, stage", [("model.json", "quantize"), ("qmodel_n8.json", "simulate"),
                                         ("dataset/manifest.json", "train")])
def test_document_that_is_not_an_object_exits_2(run, capsys, name, stage):
    # read_json_checked took a list to an AttributeError (exit 3)
    out, cfg = run
    (out / name).write_text("[]")
    _fails(capsys, [stage, "--config", cfg], f"{out / name}: expected schema", "found None")
