import csv
import hashlib
import json
import re
import shutil
import tempfile
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from edgehar import daq, engine, quantize
from edgehar.cli import DEFAULT_CONFIG, _load_bundle_arrays, main, parse_config
from edgehar.model import load_model, save_model
from edgehar.train import TrainConfig, init_params

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("gen-data", "train", "select", "quantize", "sweep", "infer", "simulate", "report")

CFG = {
    "seed": 3,
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
    "train": {"epochs": 8, "batch_size": 8, "lr": 0.003, "val_fraction": 0.0},
    "bits": [8, 10],
    "keep": 2,
    "calib_frames": 18,
    "sim": {"n_segments": 4, "segment_ms": 2000},
}


@pytest.fixture
def workdir(tmp_path):
    cfg = dict(CFG, out=str(tmp_path / "run"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, str(cfg_path), Path(cfg["out"])


def _run(*argv):
    return main(list(argv))


class TestPipeline:
    def test_full_pipeline(self, workdir):
        tmp, cfg, out = workdir
        assert _run("gen-data", "--config", cfg) == 0
        assert (out / "dataset" / "manifest.json").exists()
        assert (out / "dataset" / "a.npy").exists()

        assert _run("train", "--config", cfg) == 0
        assert (out / "model.json").exists()
        hist = (out / "history.csv").read_text().strip().split("\n")
        assert len(hist) == 9  # header + 8 epochs

        assert _run("select", "--config", cfg) == 0
        imp = json.loads((out / "importance.json").read_text())
        assert len(imp["kept"]) == 2
        assert imp["seed"] == 3  # config echo present

        assert _run("quantize", "--config", cfg) == 0
        assert (out / "qmodel_n8.json").exists()
        assert (out / "qmodel_n10.json").exists()

        assert _run("sweep", "--config", cfg, "--bits", "6,10") == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "n_bits,accuracy_ratio"
        assert len(rows) == 3

        assert _run("infer", "--config", cfg, "--qmodel",
                    str(out / "qmodel_n10.json")) == 0
        meta = json.loads((out / "predictions.meta.json").read_text())
        assert 0.0 <= meta["accuracy"] <= 1.0

        assert _run("simulate", "--config", cfg) == 0
        labels = (out / "labels.csv").read_text().strip().split("\n")
        # floor((T - window)/step) + 1 with T=8 s, window=step=1 s
        assert len(labels) - 1 == 8
        cyc = json.loads((out / "cycles.json").read_text())
        assert cyc["total_cycles"] > 0

        assert _run("report", "--config", cfg) == 0
        rep = (out / "report.csv").read_text().strip().split("\n")
        assert len(rep) == 5  # header + 2 bits x 2 schedules
        by_key = {}
        for line in rep[1:]:
            f = line.split(",")
            by_key[(f[1], f[2])] = int(f[-1])  # storage_bits, schedule -> units
        assert by_key[("11", "serial")] == 2 * by_key[("9", "serial")]
        assert by_key[("11", "parallel")] == 2 * by_key[("9", "parallel")]

    def test_selected_model_stages(self, workdir):
        # the selected model keeps norm stats for its kept sensors only, so
        # its inputs must be built from those sensors alone
        tmp, cfg, out = workdir
        assert _run("gen-data", "--config", cfg) == 0
        assert _run("select", "--config", cfg) == 0
        sel = str(out / "model_selected.json")
        assert _run("quantize", "--config", cfg, "--model", sel) == 0
        assert _run("infer", "--config", cfg, "--model", sel) == 0
        # the selected model stores fewer weights than the full one at every
        # width and schedule
        assert _run("train", "--config", cfg) == 0
        tables = []
        for model in ([], ["--model", sel]):
            assert _run("report", "--config", cfg, *model) == 0
            with open(out / "report.csv", newline="") as fh:
                tables.append({(r["n_bits"], r["schedule"]): int(r["weight_bits"])
                               for r in csv.DictReader(fh)})
        full, selected = tables
        assert sorted(full) == sorted(selected) and len(full) == 4
        assert all(selected[k] < full[k] for k in full)

    def test_report_reads_no_dataset(self, workdir, monkeypatch):
        # report is a function of the config and the model spec alone
        tmp, cfg, out = workdir
        for stage in ("gen-data", "train", "report"):
            assert _run(stage, "--config", cfg) == 0
        table = (out / "report.csv").read_bytes()
        shutil.rmtree(out / "dataset")
        shutil.rmtree(out / "dataset_test")
        (out / "report.csv").unlink()

        def no_call(*args, **kwargs):
            raise AssertionError("report calibrated or quantized")

        monkeypatch.setattr(quantize, "calibrate", no_call)
        monkeypatch.setattr(quantize, "quantize", no_call)
        assert _run("report", "--config", cfg) == 0
        assert (out / "report.csv").read_bytes() == table

    def test_label_count_formula(self, workdir):
        tmp, cfg, out = workdir
        assert _run("gen-data", "--config", cfg) == 0
        assert _run("train", "--config", cfg) == 0
        assert _run("quantize", "--config", cfg) == 0
        # T = 8 s, window 1 s, step 0.5 s -> floor((8-1)/0.5) + 1 = 15
        assert _run("simulate", "--config", cfg, "--step-ms", "500") == 0
        labels = (out / "labels.csv").read_text().strip().split("\n")
        assert len(labels) - 1 == 15


class TestExitCodes:
    def test_usage_errors_exit_1(self):
        assert _run() == 1
        assert _run("gen-data", "--bogus-flag") == 1
        assert _run("no-such-command") == 1

    def test_validation_errors_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(CFG, out=str(tmp_path / "r"), n_per_class=0)))
        assert _run("gen-data", "--config", str(bad)) == 2

    def test_missing_artifact_exit_2(self, workdir):
        tmp, cfg, out = workdir
        assert _run("train", "--config", cfg) == 2  # no dataset yet

    def test_unknown_sensor_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(CFG, out=str(tmp_path / "r"),
                                       sensors=["warp-core"])))
        assert _run("gen-data", "--config", str(bad)) == 2

    def test_default_config_validates(self):
        parse_config(DEFAULT_CONFIG)

    def test_short_window_exit_2_names_sensor_and_layer(self, tmp_path, capsys):
        # gas samples at 4 Hz: 1 s gives 4 rows, and the first k=5 conv needs 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"out": str(tmp_path / "r"), "window_ms": 1000}))
        assert _run("gen-data", "--config", str(bad)) == 2
        err = capsys.readouterr().err
        assert "'gas'" in err and "layer 0" in err
        assert not (tmp_path / "r").exists()  # rejected before any stage ran

    def test_data_fusion_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(CFG, out=str(tmp_path / "r"),
                                       model=dict(CFG["model"], fusion="data"))))
        assert _run("gen-data", "--config", str(bad)) == 2
        err = capsys.readouterr().err
        assert "fusion" in err and "'data'" in err

    @pytest.mark.parametrize("override, flags, expected", [
        ({"calib_frames": 0}, [], "calib_frames must be an integer >= 1, got 0"),
        ({"calib_frames": -3}, [], "calib_frames must be an integer >= 1, got -3"),
        ({"clock_hz": 0}, [], "clock_hz must be a number > 0, got 0"),
        ({"clock_hz": -1e6}, [], "clock_hz must be a number > 0, got -1000000.0"),
        ({}, ["--clock-hz", "0"], "clock_hz must be a number > 0, got 0.0"),
    ])
    def test_calib_frames_and_clock_hz_exit_2(self, tmp_path, capsys, override, flags,
                                              expected):
        # rejected at load, so no stage runs or writes anything
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CFG, out=str(tmp_path / "r"), **override)))
        for stage in ("gen-data", "quantize", "simulate"):
            assert _run(stage, "--config", str(path), *flags) == 2
            assert expected in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_v1_dataset_exit_2_names_schemas(self, workdir, capsys):
        tmp, cfg, out = workdir
        assert _run("gen-data", "--config", cfg) == 0
        man = out / "dataset" / "manifest.json"
        doc = json.loads(man.read_text())
        doc["schema"] = "edgehar.dataset/v1"
        man.write_text(json.dumps(doc))
        capsys.readouterr()
        assert _run("train", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "'edgehar.dataset/v2'" in err and "'edgehar.dataset/v1'" in err
        assert "rerun gen-data" in err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("stage", ["quantize", "sweep", "infer", "simulate", "report"])
    def test_model_branch_missing_from_config_exit_2(self, tmp_path, capsys, stage):
        # a model trained on sensors a (2 channels), b and c, run with a config
        # that lacks c, then with one whose sensor a has 3 channels
        model = tmp_path / "model.json"
        spec = parse_config(dict(CFG, out=str(tmp_path / "r"))).spec
        save_model(model, spec, init_params(spec, seed=0))
        a3 = dict(CFG["sensors"][0], channels=3)
        for sensors, name, channels, config in [
            (CFG["sensors"][:2], "c", 3, "{'a': 2, 'b': 1}"),
            ([a3] + CFG["sensors"][1:], "a", 2, "{'a': 3, 'b': 1, 'c': 3}"),
        ]:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(dict(CFG, out=str(tmp_path / "r"), sensors=sensors)))
            assert _run("gen-data", "--config", str(path)) == 0
            capsys.readouterr()
            assert _run(stage, "--config", str(path), "--model", str(model)) == 2
            err = capsys.readouterr().err
            assert (f"{model} has a branch for sensor {name!r} of {channels} channels, "
                    f"which the config lacks") in err
            assert f"config sensors: {config}" in err

    def test_schema_mismatch_exit_2(self, workdir):
        tmp, cfg, out = workdir
        assert _run("gen-data", "--config", cfg) == 0
        assert _run("train", "--config", cfg) == 0
        model = out / "model.json"
        doc = json.loads(model.read_text())
        doc["schema"] = "edgehar.model/v999"
        model.write_text(json.dumps(doc))
        assert _run("quantize", "--config", cfg) == 2


class TestWindowRows:
    def test_default_config_stream_fits_fifos(self):
        # the 3.25 s window streamed as simulate streams it: every FIFO holds
        # two windows, so no sample overflows and no frame is padded
        cfg = DEFAULT_CONFIG
        parsed = parse_config(cfg)
        sensors = list(parsed.sensors)
        sim = cfg["sim"]
        rec, _ = daq.gen_timeline(
            sensors, [c % cfg["classes"] for c in range(sim["n_segments"])],
            Fraction(sim["segment_ms"], 1000), cfg["noise_level"], cfg["seed"],
            classes=cfg["classes"],
        )
        session = daq.start_sync(daq.recording_sources(rec, sensors))
        assert len(list(daq.stream_frames(session, parsed.window))) == 9
        assert session.underfill_events == [] and session.overfill_events == []
        assert sum(f.overflowed for f in session.fifos.values()) == 0
        assert all(c["ok"] for c in session.conservation().values())

    def test_fractional_window_rows_gen_data_then_train(self, tmp_path):
        # 1.1 s at 32 Hz is 35.2 samples: the dataset and the model both take 35
        cfg = dict(CFG, out=str(tmp_path / "run"), window_ms=1100, step_ms=1100,
                   sensors=[{"name": "t", "channels": 2, "rate_hz": 32}],
                   classes=2, n_per_class=2, n_per_class_test=1, keep=1,
                   train=dict(CFG["train"], epochs=1))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert _run("gen-data", "--config", str(cfg_path)) == 0
        assert _run("train", "--config", str(cfg_path)) == 0
        rows = np.load(tmp_path / "run" / "dataset" / "t.npy").shape[1]
        assert rows == 35


class TestWindowMismatch:
    # sensor 'a' samples at 25 Hz: 25 rows in 1 s windows, 38 in 1.5 s ones

    def test_dataset_window_mismatch_exit_2(self, workdir, capsys):
        tmp, cfg, out = workdir
        assert _run("gen-data", "--config", cfg) == 0
        capsys.readouterr()
        assert _run("train", "--config", cfg, "--window-ms", "1500") == 2
        err = capsys.readouterr().err
        assert "made at 1 s windows" in err and "asks for 3/2 s" in err
        assert "sensor 'a' has 25 rows there, 38 here" in err
        assert not (out / "model.json").exists()

    def test_qmodel_window_mismatch_exit_2(self, workdir, capsys):
        tmp, cfg, out = workdir
        for stage in ("gen-data", "train", "quantize"):
            assert _run(stage, "--config", cfg) == 0
        capsys.readouterr()
        assert _run("simulate", "--config", cfg, "--window-ms", "1500") == 2
        err = capsys.readouterr().err
        assert "quantized at 25 rows for sensor 'a'" in err and "gives it 38 rows" in err
        assert not (out / "labels.csv").exists()
        # a dataset made again at 1.5 s passes its own check, not the model's
        assert _run("gen-data", "--config", cfg, "--window-ms", "1500") == 0
        capsys.readouterr()
        assert _run("infer", "--config", cfg, "--window-ms", "1500",
                    "--qmodel", str(out / "qmodel_n8.json")) == 2
        err = capsys.readouterr().err
        assert "quantized at 25 rows for sensor 'a'" in err and "gives it 38 rows" in err
        assert not (out / "predictions.csv").exists()


class TestOneNetwork:
    """The --model file's spec alone describes the network that infer --qmodel
    and simulate run and cost: a qmodel of another network, or one whose
    layer pools differ from its own spec, exits 2 and writes nothing."""

    @staticmethod
    def _no_outputs(out: Path) -> bool:
        return not any((out / f).exists() for f in ("predictions.csv", "labels.csv",
                                                     "cycles.json"))

    def test_qmodel_pool_differs_from_spec_exit_2(self, workdir, capsys):
        tmp, cfg, out = workdir
        for stage in ("gen-data", "train", "quantize"):
            assert _run(stage, "--config", cfg) == 0
        qpath = out / "qmodel_n8.json"
        doc = json.loads(qpath.read_text())
        assert doc["spec"]["branches"][1]["layers"][0]["pool"] is None
        doc["branches"][1][0]["pool"] = 2
        qpath.write_text(json.dumps(doc))
        capsys.readouterr()
        for stage in ("infer", "simulate"):
            assert _run(stage, "--config", cfg, "--qmodel", str(qpath)) == 2, stage
            err = capsys.readouterr().err
            assert f"{qpath}: branch 'b' layer 0 stores pool 2, but its spec has pool None" in err
        assert self._no_outputs(out)

    def test_qmodel_missing_branch_exit_2(self, tmp_path, capsys):
        cfg = json.loads((ROOT / "configs" / "smoke.json").read_text())
        out = tmp_path / "run"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(cfg, out=str(out))))
        for stage in ("gen-data", "train", "quantize"):
            assert _run(stage, "--config", str(path)) == 0
        qpath = out / f"qmodel_n{cfg['bits'][-1]}.json"
        doc = json.loads(qpath.read_text())
        assert doc["spec"]["branches"][-1]["name"] == "tof"
        doc["branches"].pop()
        qpath.write_text(json.dumps(doc))
        msg = f"{qpath}: weights for 3 branches, but the spec has 4: none for branch 'tof'"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            quantize.load_qmodel(qpath)
        capsys.readouterr()
        for stage in ("infer", "simulate"):
            assert _run(stage, "--config", str(path), "--qmodel", str(qpath)) == 2, stage
            assert msg in capsys.readouterr().err
        assert self._no_outputs(out)

    def test_model_and_qmodel_of_other_networks_exit_2(self, workdir, capsys):
        tmp, cfg, out = workdir
        for stage in ("gen-data", "train", "select", "quantize"):
            assert _run(stage, "--config", cfg) == 0
        full, sel = out / "model.json", out / "model_selected.json"
        full_q, sel_q = tmp / "full_q.json", tmp / "sel_q.json"
        shutil.copy(out / "qmodel_n8.json", full_q)
        assert _run("quantize", "--config", cfg, "--model", str(sel)) == 0
        shutil.copy(out / "qmodel_n8.json", sel_q)
        kept = json.loads((out / "importance.json").read_text())["kept"]
        every = [s["name"] for s in CFG["sensors"]]
        kept = [s for s in every if s in kept]
        capsys.readouterr()
        for model, qmodel, have, want in [(full, sel_q, kept, every),
                                          (sel, full_q, every, kept)]:
            for stage in ("infer", "simulate"):
                assert _run(stage, "--config", cfg, "--model", str(model),
                            "--qmodel", str(qmodel)) == 2, (stage, model)
                err = capsys.readouterr().err
                assert (f"{qmodel} (branches {have}) does not quantize the network of "
                        f"{model} (branches {want})") in err
        assert self._no_outputs(out)
        # each model with its own qmodel runs
        assert _run("simulate", "--config", cfg, "--model", str(sel), "--qmodel", str(sel_q)) == 0

    def test_simulate_cycles_are_the_static_count(self, workdir):
        tmp, cfg, out = workdir
        doc = dict(CFG, out=str(out), clock_hz=5e7, kappa=2)
        Path(cfg).write_text(json.dumps(doc))
        for stage in ("gen-data", "train", "quantize"):
            assert _run(stage, "--config", cfg) == 0
        spec = load_model(out / "model.json")[0]
        for mode in ("serial", "parallel"):
            assert _run("simulate", "--config", cfg, "--schedule", mode) == 0
            parsed = parse_config(dict(doc, schedule=mode))
            want = engine.model_cycles(spec, parsed.rows, mode, 5e7, 2).to_dict()
            assert json.loads((out / "cycles.json").read_text()) == \
                {"schema": "edgehar.cycles/v1", **want} | parsed.echo


class TestDeterminism:
    @staticmethod
    def _digest(out: Path) -> dict:
        return {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    def test_rerun_byte_identical(self, workdir):
        tmp, cfg, out = workdir
        steps = [
            ("gen-data",), ("train",), ("quantize",), ("report",), ("simulate",),
        ]
        for s in steps:
            assert _run(*s, "--config", cfg) == 0
        first = self._digest(out)
        for s in steps:
            assert _run(*s, "--config", cfg) == 0
        assert self._digest(out) == first

    def test_gen_data_reruns_byte_identical_datasets(self, workdir):
        tmp, cfg, out = workdir
        trees = []
        for _ in range(2):
            shutil.rmtree(out, ignore_errors=True)
            assert _run("gen-data", "--config", cfg) == 0
            trees.append({split: self._digest(out / split)
                          for split in ("dataset", "dataset_test")})
        assert trees[0] == trees[1]
        assert sorted(trees[0]["dataset"]) == ["a.npy", "b.npy", "c.npy", "manifest.json"]

    def test_flag_overrides_win(self, workdir):
        tmp, cfg, out = workdir
        assert _run("gen-data", "--config", cfg, "--seed", "99") == 0
        man = json.loads((out / "dataset" / "manifest.json").read_text())
        assert man["meta"]["seed"] == 99


class TestSchema:
    # each config failed late or was accepted silently before the schema
    @pytest.mark.parametrize("override, expected", [
        ({"model": dict(CFG["model"], alpha_enabled=True)},
         ["model.alpha_enabled", "True"]),
        ({"bits": [2, 16, 31]}, ["bits", "[2, 16, 31]"]),
        ({"keep": 0}, ["keep", "got 0"]),
        ({"keep": 9}, ["keep", "got 9"]),
        ({"sim": {"n_segments": 1, "segment_ms": 500}}, ["sim", "500 ms", "window_ms 1000"]),
        ({"schedule": "pipelined"}, ["schedule", "'pipelined'"]),
        ({"sensors": ["optical", "tof", "optical"]}, ["sensors", "'optical'"]),
        ({"train": dict(CFG["train"], batch_size=0)}, ["train.batch_size", "got 0"]),
        ({"train": dict(CFG["train"], val_fraction=1.0)}, ["val_fraction", "1.0"]),
        ({"train": dict(CFG["train"], epocs=2)}, ["'train.epocs'"]),
        ({"n_per_clas": 3}, ["'n_per_clas'"]),
        ({"window_ms": 1000.7}, ["window_ms", "1000.7"]),
        ({"kappa": -5}, ["kappa", "-5"]),
        ({"noise_level": -1}, ["noise_level", "-1"]),
    ])
    def test_rejected_at_load_by_every_stage(self, tmp_path, capsys, override, expected):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CFG, out=str(tmp_path / "r"), **override)))
        for stage in STAGES:
            assert _run(stage, "--config", str(path)) == 2, stage
            err = capsys.readouterr().err
            assert all(e in err for e in expected), (stage, err)
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("path", ["configs/smoke.json", "perfbench/workloads/smoke.json",
                                      "perfbench/workloads/rig.json",
                                      "perfbench/workloads/stream.json"])
    def test_shipped_configs_accepted(self, path):
        # the benchmark runs every stage on these files
        cfg = parse_config(json.loads((ROOT / path).read_text()))
        assert [s.name for s in cfg.sensors] == [b.name for b in cfg.spec.branches]
        assert not cfg.spec.alpha_enabled

    def test_key_sets_follow_the_objects(self):
        # train takes TrainConfig's fields but seed; a custom sensor takes
        # SensorSpec's, and its JSON grid list gives the catalog's own spec
        train = {f.name: getattr(TrainConfig(), f.name) for f in fields(TrainConfig)
                 if f.name != "seed"}
        thermal = json.loads(json.dumps(asdict(daq.CATALOG["thermal"])))
        cfg = parse_config({"train": train, "sensors": [thermal, "tof"], "keep": 2})
        assert cfg.sensors == (daq.CATALOG["thermal"], daq.CATALOG["tof"])
        assert cfg.train == TrainConfig(**train)
        with pytest.raises(ValueError, match="'train.seed'"):
            parse_config({"train": {"seed": 1}})

    # one key at a time is set out of range (None: none is)
    BROKEN = {"names": None, "keep": 4, "bits": [8, 16], "schedule": "pipelined",
              "kappa": -1, "noise_level": -0.5, "batch_size": 0, "calib_frames": 0,
              "alpha_enabled": True, "window_ms": 1000.5}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_accepted_configs_run_every_stage(self, data):
        """Configs drawn around the schema's edges at tiny sizes: an accepted
        one runs all 8 stages with exit 0, a rejected one exits 2 at load and
        writes nothing. Acceptance is predicted here from the rules alone."""
        d = data.draw
        broken = d(st.sampled_from([None] * 2 * len(self.BROKEN) + sorted(self.BROKEN)))
        n_sensors = d(st.integers(1, 3))
        names = ["u", "v", "w"][:n_sensors]
        if broken == "names":
            names.append(names[0])
        rates = [d(st.sampled_from([10, 25, 40])) for _ in names]
        window_ms = d(st.sampled_from([500, 1000]))
        step_ms = d(st.sampled_from([window_ms // 2, window_ms, window_ms, window_ms + 250]))
        kernel = d(st.integers(2, 3))
        classes, n_per_class = d(st.integers(2, 3)), d(st.integers(1, 2))
        val_fraction = d(st.sampled_from([0.0, 0.3, 0.8]))
        n_segments, segment_ms = d(st.integers(1, 3)), d(st.sampled_from([500, 1000]))
        cfg = {
            "seed": 1,
            "sensors": [{"name": n, "channels": 1 + i, "rate_hz": r}
                        for i, (n, r) in enumerate(zip(names, rates))],
            "classes": classes, "n_per_class": n_per_class, "n_per_class_test": 1,
            "noise_level": 0, "window_ms": window_ms, "step_ms": step_ms,
            "model": {"filters": 4, "kernel": kernel, "hidden": 8},
            "train": {"epochs": d(st.integers(2, 10)), "batch_size": 2, "lr": 0.02,
                      "val_fraction": val_fraction},
            "bits": d(st.lists(st.sampled_from([1, 8, 15]), min_size=1, max_size=2)),
            "keep": d(st.integers(1, len(names))), "schedule": "parallel", "kappa": 3,
            "calib_frames": 64, "sim": {"n_segments": n_segments, "segment_ms": segment_ms},
        }
        if broken not in (None, "names"):
            section = {"batch_size": "train", "alpha_enabled": "model"}.get(broken)
            (cfg[section] if section else cfg)[broken] = self.BROKEN[broken]
        n = classes * n_per_class
        rows = [int(Fraction(window_ms * r, 1000) + Fraction(1, 2)) for r in rates]
        accepted = (
            broken is None and step_ms <= window_ms
            and n_segments * segment_ms >= window_ms
            and round(n * val_fraction) < n
            and min(rows) >= 3 * (kernel - 1) + 1
        )
        event("accepted" if accepted else "rejected")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(dict(cfg, out=str(out))))
            want = 0 if accepted else 2
            for stage in STAGES:
                assert _run(stage, "--config", str(path)) == want, (stage, cfg)
            assert accepted or not out.exists()


class TestUntrainedEdges:
    def test_calibration_set_covers_every_class(self, tmp_path):
        """The split is stored in class order; calib_frames 48 of the smoke
        workload's 60 recordings must still reach all 5 classes."""
        cfg = json.loads((ROOT / "perfbench" / "workloads" / "smoke.json").read_text())
        cfg["out"] = str(tmp_path / "run")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert _run("gen-data", "--config", str(path)) == 0
        parsed = parse_config(cfg)
        _, y, _ = _load_bundle_arrays(parsed, parsed.spec, limit=cfg["calib_frames"])
        assert len(y) == cfg["calib_frames"]
        assert sorted(set(y.tolist())) == list(range(cfg["classes"]))
        _, y_all, _ = _load_bundle_arrays(parsed, parsed.spec, limit=10**6)
        assert len(y_all) == cfg["classes"] * cfg["n_per_class"]

    def test_sweep_finishes_at_zero_fp32_accuracy(self, tmp_path, capsys):
        # 2 classes x 1 recording, one of them held out for validation, at 2 epochs:
        # at this seed the FP32 model gets neither test frame right.
        cfg = {"seed": 20, "out": str(tmp_path / "run"),
               "sensors": [{"name": "u", "channels": 1, "rate_hz": 25},
                           {"name": "v", "channels": 2, "rate_hz": 10}],
               "classes": 2, "n_per_class": 1, "n_per_class_test": 1, "noise_level": 0.5,
               "window_ms": 1000, "step_ms": 1000,
               "model": {"filters": 4, "kernel": 3, "hidden": 8},
               "train": {"epochs": 2, "batch_size": 2, "lr": 0.02, "val_fraction": 0.3},
               "bits": [8, 10], "keep": 1, "calib_frames": 64,
               "sim": {"n_segments": 1, "segment_ms": 1000}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for stage in ("gen-data", "train", "infer"):
            assert _run(stage, "--config", str(path)) == 0
        out = Path(cfg["out"])
        assert json.loads((out / "predictions.meta.json").read_text())["accuracy"] == 0.0
        capsys.readouterr()
        assert _run("sweep", "--config", str(path)) == 0
        assert (out / "sweep.csv").read_text().split() == [
            "n_bits,accuracy_ratio", "8,nan", "10,nan"]
        assert capsys.readouterr().out.count("undefined (FP32 accuracy 0)") == 2


class TestAllOrNothing:
    def test_quantize_writes_no_width_when_one_fails(self, workdir, monkeypatch):
        tmp, cfg, out = workdir
        for stage in ("gen-data", "train"):
            assert _run(stage, "--config", cfg) == 0
        real, calls = quantize.quantize, []

        def fail_second(spec, params, stats, n_bits):
            calls.append(n_bits)
            if len(calls) == 2:
                raise ValueError(f"no model at {n_bits} bits")
            return real(spec, params, stats, n_bits)

        monkeypatch.setattr(quantize, "quantize", fail_second)
        assert _run("quantize", "--config", cfg) == 2
        assert calls == [8, 10]
        assert not list(out.glob("qmodel_n*.json"))

    def test_gen_data_replaces_v1_split(self, workdir):
        # a v1 split kept each recording as rec_NNNN/<sensor>.csv
        tmp, cfg, out = workdir
        for split in ("dataset", "dataset_test"):
            (out / split).mkdir(parents=True)
            (out / split / "manifest.json").write_text('{"schema": "edgehar.dataset/v1"}')
            for i in range(3):
                rec = out / split / f"rec_{i:04d}"
                rec.mkdir()
                for name in ("a", "b", "c"):
                    (rec / f"{name}.csv").write_text("t_ns,v0\n0,0.5\n")
        other = out / "dataset_test" / "rec_0007"
        other.mkdir()
        (other / "a.csv").write_text("t_ns,v0\n")
        (other / "notes.txt").write_text("not a v1 recording")
        assert _run("gen-data", "--config", cfg) == 0
        assert sorted(p.name for p in (out / "dataset").iterdir()) == [
            "a.npy", "b.npy", "c.npy", "manifest.json"]
        # a folder that holds anything but .csv files is left alone
        assert sorted(p.name for p in (out / "dataset_test").iterdir()) == [
            "a.npy", "b.npy", "c.npy", "manifest.json", "rec_0007"]
        assert sorted(p.name for p in other.iterdir()) == ["a.csv", "notes.txt"]
        assert _run("train", "--config", cfg) == 0
