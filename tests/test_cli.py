import csv
import hashlib
import itertools
import json
import math
import re
import shutil
import tempfile
import tracemalloc
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import oracles
from edgehar import cli, daq, engine, quantize
from edgehar.daq import CATALOG, NS
from edgehar.cli import DEFAULT_CONFIG, _load_bundle_arrays, main, parse_config
from edgehar.model import feature_fusion_spec, load_model, normalize_inputs, save_model
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
        ({}, ["--bits", "8,,10"], "--bits must be a comma-separated list of integers, "
                                  "got '8,,10'"),
        ({}, ["--bits", "x"], "--bits must be a comma-separated list of integers, got 'x'"),
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

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("stage", ["train", "select"])
    def test_diverged_final_weights_exit_3(self, tmp_path, capsys, stage):
        # one epoch of one batch: its loss is finite, and the step it takes
        # makes weights that only the final check over the training split sees
        cfg = json.loads((ROOT / "configs" / "smoke.json").read_text())
        cfg["out"] = str(tmp_path / "run")
        cfg["train"] = dict(cfg["train"], lr=1e100, epochs=1, batch_size=64)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert _run("gen-data", "--config", str(path)) == 0
        capsys.readouterr()
        assert _run(stage, "--config", str(path)) == 3
        assert "non-finite loss at epoch 0" in capsys.readouterr().err
        out = Path(cfg["out"])
        assert not (out / "model.json").exists() and not (out / "model_selected.json").exists()

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


class TestSampleGap:
    """A window shorter than the widest gap between two stamps of a sensor's
    sample grid, ceil(1e9 / rate) ns, may hold no sample of it: such a config
    exits 2 at load from every stage and writes nothing."""

    @staticmethod
    def _cfg(tmp_path, rate_hz, window_ms):
        return {"out": str(tmp_path / "r"), "window_ms": window_ms, "step_ms": 500,
                "sensors": [{"name": "x", "channels": 1, "rate_hz": rate_hz}, "optical"],
                "classes": 2, "n_per_class": 2, "n_per_class_test": 1, "keep": 1,
                "model": {"filters": 4, "kernel": 1, "hidden": 8},
                "train": {"epochs": 1, "batch_size": 2}, "bits": [8],
                "sim": {"n_segments": 3, "segment_ms": 2000}}

    def test_window_without_a_sample_exit_2(self, tmp_path, capsys):
        # stamps at 0.6 Hz are 1,666,666,667 ns apart, so a 1 s window misses
        # them all at some starts: [2 s, 3 s) holds none
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self._cfg(tmp_path, 0.6, 1000)))
        for stage in ("gen-data", "simulate"):
            assert _run(stage, "--config", str(path)) == 2, stage
            err = capsys.readouterr().err
            assert ("window_ms 1000 for sensor 'x' at 0.6 Hz: a 1000000000 ns window may "
                    "hold no sample: stamps at 0.6 Hz are up to 1666666667 ns apart") in err
        assert not (tmp_path / "r").exists()

    def test_window_at_the_widest_gap_streams_every_frame(self, tmp_path):
        # stamps at 0.5 Hz are 2 s apart: a 2000 ms window holds one wherever
        # it starts, and a 1999 ms one is rejected
        with pytest.raises(ValueError, match="window_ms 1999 for sensor 'x' at 0.5 Hz"):
            parse_config(self._cfg(tmp_path, 0.5, 1999))
        cfg = self._cfg(tmp_path, 0.5, 2000)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for stage in ("gen-data", "train", "quantize", "simulate"):
            assert _run(stage, "--config", str(path)) == 0, stage
        labels = (tmp_path / "r" / "labels.csv").read_text().split()[1:]
        # floor((T - window) / step) + 1 with T = 6 s, window 2 s, step 0.5 s
        assert [int(l.split(",")[0]) for l in labels] == [
            2 * NS + k * NS // 2 for k in range(9)]


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

    def test_qmodel_missing_input_rows_exit_2(self, workdir, capsys):
        # a qmodel without one branch's window rows is rejected at load, not
        # after streaming, where simulate's windows read them
        tmp, cfg, out = workdir
        for stage in ("gen-data", "train", "quantize"):
            assert _run(stage, "--config", cfg) == 0
        qpath = out / "qmodel_n8.json"
        doc = json.loads(qpath.read_text())
        del doc["input_rows"]["c"]
        qpath.write_text(json.dumps(doc))
        capsys.readouterr()
        for stage in ("infer", "simulate"):
            assert _run(stage, "--config", cfg, "--qmodel", str(qpath)) == 2, stage
            assert (f"validation error: {qpath} has no input_rows entry for sensor 'c'"
                    in capsys.readouterr().err), stage
        assert not any((out / f).exists() for f in ("predictions.csv", "labels.csv",
                                                    "cycles.json"))


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


def _recorded_simulate(monkeypatch, cfg):
    """Run simulate, recording the frames it streams, its DAQ session and
    each qinfer_batch call's (lead rows, frames) counts."""
    frames, sessions, calls = [], [], []
    stream, start, batch = daq.stream_frames, daq.start_sync, engine.qinfer_batch

    def recorded_stream(*args, **kwargs):
        for frame in stream(*args, **kwargs):
            frames.append(frame)
            yield frame

    def recorded_start(*args, **kwargs):
        sessions.append(start(*args, **kwargs))
        return sessions[-1]

    def counted_batch(qm, X, windows=None):
        preds = batch(qm, X, windows)
        calls.append(({len(x) for x in X.values()}, len(preds)))
        return preds

    monkeypatch.setattr(daq, "stream_frames", recorded_stream)
    monkeypatch.setattr(daq, "start_sync", recorded_start)
    monkeypatch.setattr(engine, "qinfer_batch", counted_batch)
    assert _run("simulate", "--config", cfg) == 0
    return frames, sessions, calls


def _per_frame_labels(out: Path, frames) -> list[list[str]]:
    """labels.csv as a per-frame engine.qinfer loop over frames writes it;
    the oracle agrees at the first and the last frame."""
    _, _, meta = load_model(out / "model.json")
    stats = {k: tuple(v) for k, v in meta["norm_stats"].items()}
    qm, _ = quantize.load_qmodel(out / f"qmodel_n{CFG['bits'][0]}.json")
    want = [["t_ns", "class"]]
    for i, frame in enumerate(frames):
        qframe = engine.quantize_frame(normalize_inputs(frame.tensors, stats), qm.n_bits)
        label = engine.qinfer(qm, qframe)
        if i in (0, len(frames) - 1):
            assert oracles.qinfer(qm, qframe)[1] == label
        want.append([str(frame.t_end_ns), str(label)])
    return want


class TestSimulateChunks:
    """simulate classifies a run of exact frames, overlapping or adjacent, in
    one qinfer_batch call over the rows' union, and stacks fitted frames
    SIM_CHUNK_FRAMES to a call. Its labels equal a per-frame loop over the
    same stream either way."""

    # (step_ms, SIM_CHUNK_FRAMES, each call's (lead rows, frames)). A run
    # spans at most chunk windows of rows: at 250 ms steps 9 frames for
    # chunk 3 (every sensor's first row advances at most 2 windows' rows),
    # at 1000 ms steps chunk frames.
    @pytest.mark.parametrize("step, chunk, sizes", [
        (250, 3, [({1}, 9), ({1}, 9), ({1}, 3)]),
        (250, 16, [({1}, 21)]),
        (1000, 4, [({1}, 4), ({1}, 2)]),
    ], ids=["two_full_and_a_partial", "shorter_than_a_chunk", "adjacent_frames_in_runs"])
    def test_labels_equal_per_frame_loop(self, workdir, monkeypatch, step, chunk, sizes):
        tmp, cfg, out = workdir
        # trained enough to label the stream's segments apart, so labels out
        # of frame order would show
        train = dict(CFG["train"], epochs=20, lr=0.01)
        sim = {"n_segments": 4, "segment_ms": 1500}
        Path(cfg).write_text(json.dumps(dict(CFG, out=str(out), train=train, sim=sim,
                                             step_ms=step)))
        for stage in ("gen-data", "train", "quantize"):
            assert _run(stage, "--config", cfg) == 0
        monkeypatch.setattr(cli, "SIM_CHUNK_FRAMES", chunk)
        frames, _, calls = _recorded_simulate(monkeypatch, cfg)
        assert calls == sizes
        assert len(frames) == sum(n for _, n in sizes)
        assert all(f.first_rows is not None for f in frames)
        want = _per_frame_labels(out, frames)
        assert len({label for _, label in want[1:]}) > 1
        with open(out / "labels.csv", newline="") as fh:
            assert list(csv.reader(fh)) == want

    @pytest.mark.parametrize("chunk", [2, 16])
    def test_fitted_frames_run_alone(self, workdir, monkeypatch, chunk):
        # 12.4 Hz overfills and 12.6 Hz underfills some 1 s windows: those
        # frames carry no first_rows and are stacked, at most chunk to a
        # call and one lead row each, the rest in runs
        tmp, cfg, out = workdir
        sensors = [{"name": "a", "channels": 2, "rate_hz": 25},
                   {"name": "b", "channels": 1, "rate_hz": 12.4},
                   {"name": "c", "channels": 3, "rate_hz": 12.6}]
        Path(cfg).write_text(json.dumps(dict(CFG, out=str(out), sensors=sensors,
                                             step_ms=250)))
        for stage in ("gen-data", "train", "quantize"):
            assert _run(stage, "--config", cfg) == 0
        monkeypatch.setattr(cli, "SIM_CHUNK_FRAMES", chunk)
        stacks, batch = [], engine.qinfer_batch

        def stack_recorded(qm, X, windows=None):
            stacks.append(windows is None)
            return batch(qm, X, windows)

        monkeypatch.setattr(engine, "qinfer_batch", stack_recorded)
        frames, sessions, calls = _recorded_simulate(monkeypatch, cfg)
        alone = [f for f in frames if f.first_rows is None]
        assert 0 < len(alone) < len(frames)
        assert any(n > 1 for _, n in calls) and sum(n for _, n in calls) == len(frames)
        i, sizes = 0, []
        for stacked, (lead, n) in zip(stacks, calls, strict=True):
            held, i = frames[i:i + n], i + n
            assert all((f.first_rows is None) == stacked for f in held)
            assert lead == ({n} if stacked else {1})
            sizes += [n] if stacked else []
        # each streak of fitted frames is stacked in full calls of chunk frames
        # and one partial, so the cap is met at 2 (the longest streak is 9)
        streaks = [len(list(g)) for fitted, g in
                   itertools.groupby(frames, lambda f: f.first_rows is None) if fitted]
        assert sizes == [min(chunk, k - j) for k in streaks for j in range(0, k, chunk)]
        assert max(sizes) <= chunk and (chunk in sizes) == (chunk <= max(streaks))
        with open(out / "labels.csv", newline="") as fh:
            assert list(csv.reader(fh)) == _per_frame_labels(out, frames)
        assert len(sessions) == 1
        assert all(c["ok"] for c in sessions[0].conservation().values())

    def test_runs_read_their_rows_from_the_tracks(self, workdir, monkeypatch):
        # a run of exact frames, overlapping (250 ms steps) or adjacent
        # (1000 ms), classifies each sensor's rows as one view of its track,
        # from the first frame's first row to the last frame's end: no
        # frame's rows are copied or joined before normalize_inputs
        tmp, cfg, out = workdir
        for stage in ("gen-data", "train", "quantize"):
            assert _run(stage, "--config", cfg) == 0
        for step in (250, 1000):
            Path(cfg).write_text(json.dumps(dict(CFG, out=str(out), step_ms=step)))
            raws = []

            def recorded_normalize(X, stats):
                raws.append(X)
                return normalize_inputs(X, stats)

            with monkeypatch.context() as m:
                m.setattr("edgehar.model.normalize_inputs", recorded_normalize)
                frames, sessions, calls = _recorded_simulate(m, cfg)
            assert len(raws) == len(calls)
            assert all(f.first_rows is not None for f in frames)
            tracks = {s.spec.name: s.v_track for s in sessions[0].sources}
            i = 0
            for X, (lead, n) in zip(raws, calls):
                run, i = frames[i:i + n], i + n
                assert lead == {1}, step
                for name, track in tracks.items():
                    want = track[run[0].first_rows[name]:
                                 run[-1].first_rows[name] + len(run[-1].tensors[name])]
                    assert X[name].shape == (1, *want.shape)
                    assert X[name].tobytes() == want.tobytes()
                    assert np.shares_memory(X[name], track), name
            assert any(n > 1 for _, n in calls) and i == len(frames)

    @staticmethod
    def _workload_simulate(tmp_path, monkeypatch, name):
        """simulate on the benchmark's workload name, recorded (see
        _recorded_simulate)."""
        doc = json.loads((ROOT / "perfbench" / "workloads" / f"{name}.json").read_text())
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(dict(doc, out=str(tmp_path / "out"))))
        for stage in ("gen-data", "train", "quantize"):
            assert _run(stage, "--config", str(cfg)) == 0
        return _recorded_simulate(monkeypatch, str(cfg))

    def test_smoke_workload_runs(self, tmp_path, monkeypatch):
        # the benchmark's smoke workload: 10 adjacent frames (step = window),
        # one run over their rows
        frames, sessions, calls = self._workload_simulate(tmp_path, monkeypatch, "smoke")
        assert calls == [({1}, 10)] and len(frames) == 10
        assert all(f.first_rows is not None for f in frames)

    def test_stream_workload_runs(self, tmp_path, monkeypatch):
        # the benchmark's stream workload: 1,191 frames, 1 s windows, 100 ms steps
        frames, sessions, calls = self._workload_simulate(tmp_path, monkeypatch, "stream")
        assert len(frames) == 1191
        assert all(f.first_rows is not None for f in frames)
        assert sum(n for _, n in calls) == 1191 and all(lead == {1} for lead, _ in calls)
        # far fewer calls than ceil(1191 / 16) = 75 chunks of 16 frames
        assert len(calls) <= 75 // 8
        assert all(c["ok"] for c in sessions[0].conservation().values())

    # a thermal grid and a 1D sensor; a 1D sensor of 32 channels, whose run
    # spans 16 windows of rows as thermal's does, in im2col blocks of at
    # most model._BLOCK_ROWS rows
    @pytest.mark.parametrize("sensors, frames, rows", [
        ([CATALOG["thermal"], CATALOG["tof"]], 151, {"thermal": 512, "tof": 800}),
        ([daq.SensorSpec("wide", 32, 119)], 151, {"wide": 1904}),
    ], ids=["thermal", "wide_1d"])
    def test_run_peak_within_a_chunk(self, sensors, frames, rows):
        # a run of overlapping frames reads its rows as one view of each
        # sensor's track, which normalize_inputs copies once, and spans at most
        # SIM_CHUNK_FRAMES windows of them, so streaming and classifying it
        # peaks no higher than a chunk of that many frames did, whose frames
        # and stack stayed referenced through their call
        cfg = daq.WindowConfig(1, Fraction(1, 10))
        spec = feature_fusion_spec(sensors, filters=8, kernel=5, hidden=32, classes=4)
        params = init_params(spec, seed=0)
        rec, _ = daq.gen_timeline(sensors, [0, 1, 2, 3] * 5, 1, seed=3)
        stats = {s.name: (-2.0, 2.0) for s in sensors}
        limits = {b.name: engine._run_rows(spec, b, cfg.timesteps(s.rate), cli.SIM_CHUNK_FRAMES)
                  for s, b in zip(sensors, spec.branches)}

        def stream():
            return daq.stream_frames(daq.start_sync(daq.recording_sources(rec, sensors)), cfg)

        def chunk():
            frames = list(itertools.islice(stream(), cli.SIM_CHUNK_FRAMES))
            X = {n: np.stack([f.tensors[n] for f in frames]) for n in frames[0].tensors}
            return normalize_inputs(X, stats), None, frames, X

        def run():
            tracks = {n: v for n, (_, v) in rec.tracks.items()}
            ends, X, windows = next(cli._sim_calls(stream(), tracks, limits))
            assert len(ends) == frames
            assert {n: x.shape[:2] for n, x in X.items()} == {n: (1, r) for n, r in rows.items()}
            return normalize_inputs(X, stats), windows, ends, X

        qm = quantize.quantize(spec, params, quantize.calibrate(spec, params, chunk()[0]), 8)
        peaks = []  # (streamed and normalized, then classified) per path
        for inputs in (chunk, run):
            engine.qinfer_batch(qm, *inputs()[:2])  # first-call allocations are not the path's
            tracemalloc.start()
            try:
                X, windows, *held = inputs()
                built = tracemalloc.get_traced_memory()[1]
                engine.qinfer_batch(qm, X, windows)
                peaks.append((built, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
        assert all(r <= c for r, c in zip(peaks[1], peaks[0])), peaks


class TestSimulateMatchesOracle:
    """simulate's labels.csv is oracles.DequeStream's per-sample framing of
    the same tracks, each frame labelled by oracles.qinfer, over drawn
    sensors, windows, steps and chunk caps. Its calls hold runs of exact
    frames and stacks of fitted ones, each within its cap."""

    # windows of most lengths hold no whole number of 7.5, 12.4 or 12.6 Hz
    # samples, so frames underfill or overfill; 100/3 Hz stamps are not a
    # whole number of nanoseconds apart
    RATES = [7.5, 12.4, 12.6, 20, 100 / 3]

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_labels_and_calls_match_the_oracle(self, data):
        sensors = [{"name": f"s{i}", "channels": data.draw(st.integers(1, 3)),
                    "rate_hz": data.draw(st.sampled_from(self.RATES))}
                   for i in range(data.draw(st.integers(1, 3)))]
        if data.draw(st.booleans()):
            sensors.append({"name": "grid", "channels": 20, "conv_dim": 2, "grid": [4, 5],
                            "rate_hz": data.draw(st.sampled_from([8, 12.4]))})
        window_ms = data.draw(st.integers(700, 1500))
        step_ms = data.draw(st.integers(window_ms // 6, window_ms))
        chunk = data.draw(st.integers(1, 16))
        doc = dict(CFG, sensors=sensors, classes=2, n_per_class=3, n_per_class_test=1,
                   window_ms=window_ms, step_ms=step_ms, bits=[8], keep=1, calib_frames=6,
                   model={"filters": 3, "kernel": 2, "hidden": 6},
                   train=dict(CFG["train"], epochs=2), sim={"n_segments": 3, "segment_ms": 1500})
        parsed = parse_config(doc)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
            out, cfg = Path(tmp) / "run", Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(dict(doc, out=str(out))))
            for stage in ("gen-data", "train", "quantize"):
                assert _run(stage, "--config", str(cfg)) == 0
            m.setattr(cli, "SIM_CHUNK_FRAMES", chunk)
            runs, batch = [], engine.qinfer_batch

            def kind_recorded(qm, X, windows=None):
                runs.append(windows is not None)
                return batch(qm, X, windows)

            m.setattr(engine, "qinfer_batch", kind_recorded)
            _, sessions, calls = _recorded_simulate(m, str(cfg))
            with open(out / "labels.csv", newline="") as fh:
                labels = list(csv.reader(fh))
            qm, _ = quantize.load_qmodel(out / "qmodel_n8.json")
            norm = load_model(out / "model.json")[2]["norm_stats"]
        stats = {k: tuple(v) for k, v in norm.items()}

        rows = parsed.rows
        tracks = {s.spec.name: (s.t_track, s.v_track, s.duration_ns) for s in sessions[0].sources}
        ref = oracles.DequeStream(tracks, rows,
                                  {n: daq.FIFO_WINDOWS * r for n, r in rows.items()})
        want = [["t_ns", "class"]]
        for tensors, _, b in ref.frames(parsed.window.window_ns, parsed.window.step_ns):
            qframe = engine.quantize_frame(normalize_inputs(tensors, stats), qm.n_bits)
            want.append([str(b), str(oracles.qinfer(qm, qframe)[1])])
        assert labels == want

        limits = {b.name: engine._run_rows(qm.spec, b, rows[b.name], chunk)
                  for b in qm.spec.branches}
        i = 0
        for run, (_, n) in zip(runs, calls, strict=True):
            held, i = ref.first_rows[i:i + n], i + n
            if run:
                assert None not in held
                assert all(held[-1][s] + rows[s] - held[0][s] <= limits[s] for s in rows)
            else:
                assert held == [None] * n and n <= chunk
        assert i == len(ref.first_rows)
        event(f"calls: {'runs' if any(runs) else 'no run'}, "
              f"{'stacks' if not all(runs) else 'no stack'}")
        event(f"{'a' if 'grid' in rows else 'no'} grid sensor")

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_sim_calls_match_the_oracle_with_overflow(self, data, seed):
        # no config sets a FIFO depth, so overflow is drawn on a Session:
        # frames that span an overflow gap are fitted, and stacked from
        # their own tensors like trimmed and held ones
        window_ms = data.draw(st.integers(700, 1500))
        cfg = daq.WindowConfig(Fraction(window_ms, 1000),
                               Fraction(data.draw(st.integers(window_ms // 6, window_ms)), 1000))
        chunk = data.draw(st.integers(1, 16))
        rng = np.random.default_rng(seed)
        sensors, sources, tracks, depth = [], [], {}, {}
        for i in range(data.draw(st.integers(1, 3))):
            s = daq.SensorSpec(f"s{i}", data.draw(st.integers(1, 3)),
                               data.draw(st.sampled_from(self.RATES)))
            t = daq.sample_time_ns(np.arange(daq.count_until(6 * NS, s.rate)), s.rate)
            if data.draw(st.booleans()):  # jittered: repeated stamps and gaps
                t = np.sort(rng.integers(0, 6 * NS, t.size))
            v = rng.standard_normal((t.size, s.channels))
            r = cfg.timesteps(s.rate)
            depth[s.name] = data.draw(st.integers(r, daq.FIFO_WINDOWS * r))
            sensors.append(s)
            sources.append(daq.Source(s, t, v, 6))
            tracks[s.name] = (t, v, 6 * NS)
        spec = feature_fusion_spec(sensors, filters=3, kernel=2, hidden=4, classes=2)
        rows = {s.name: cfg.timesteps(s.rate) for s in sensors}
        limits = {b.name: engine._run_rows(spec, b, rows[b.name], chunk) for b in spec.branches}
        ref = oracles.DequeStream(tracks, rows, depth)
        ref_frames, ref_err = [], None
        try:
            ref_frames.extend(ref.frames(cfg.window_ns, cfg.step_ns))
        except RuntimeError as ex:  # a window the overflow left empty
            ref_err = str(ex)
        session = daq.start_sync(sources, depth)
        values = {n: v for n, (_, v, _) in tracks.items()}
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "SIM_CHUNK_FRAMES", chunk)
            calls = cli._sim_calls(daq.stream_frames(session, cfg), values, limits)
            if ref_err:
                with pytest.raises(RuntimeError, match=re.escape(ref_err)):
                    list(calls)
                return
            calls = list(calls)
        i = 0
        for ends, X, windows in calls:
            n = len(ends)
            held, first, i = ref_frames[i:i + n], ref.first_rows[i:i + n], i + n
            assert ends == [b for _, _, b in held]
            if windows is None:
                assert first == [None] * n and n <= chunk
                for name, x in X.items():
                    assert x.tobytes() == np.stack([f[name] for f, _, _ in held]).tobytes()
            else:
                assert None not in first
                assert windows == ([0] * n, {s: [f[s] - first[0][s] for f in first] for s in rows})
                for name, x in X.items():
                    span = first[-1][name] + rows[name] - first[0][name]
                    assert span <= limits[name]
                    assert x.tobytes() == values[name][first[0][name]:][:span].tobytes()
        assert i == len(ref_frames)
        assert session.conservation() == ref.conservation()
        overflowed = any(c["overflowed"] for c in ref.conservation().values())
        event(f"{'overflow' if overflowed else 'no overflow'}, "
              f"{'stacks' if any(w is None for _, _, w in calls) else 'no stack'}")


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


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _keep_all_config(tmp_path, name="cfg.json", **override) -> str:
    """CFG keeping all 3 of its sensors, written to tmp_path/name."""
    path = tmp_path / name
    path.write_text(json.dumps(cli._merge(dict(CFG, keep=3, out=str(tmp_path / "run")),
                                          override)))
    return str(path)


# Ways to leave out/ with other files than train writes for the keep-all config
def _train_other_epochs(tmp_path, cfg, out):
    assert _run("train", "--config", _keep_all_config(tmp_path, "other.json",
                                                      train={"epochs": 4})) == 0


def _train_other_seed(tmp_path, cfg, out):
    assert _run("train", "--config", cfg, "--seed", "4") == 0


def _edit_norm_stats(tmp_path, cfg, out):
    assert _run("train", "--config", cfg) == 0

    def shift(doc):
        doc["meta"]["norm_stats"]["a"][1] += 0.5

    _edit_json(out / "model.json", shift)


def _drop_history(tmp_path, cfg, out):
    assert _run("train", "--config", cfg) == 0
    (out / "history.csv").unlink()


def _wrong_schema(tmp_path, cfg, out):
    assert _run("train", "--config", cfg) == 0
    _edit_json(out / "model.json", lambda doc: doc.update(schema="edgehar.model/v0"))


def _truncate_model(tmp_path, cfg, out):
    assert _run("train", "--config", cfg) == 0
    text = (out / "model.json").read_text()
    (out / "model.json").write_text(text[: len(text) // 2])


class TestSelectReuse:
    """select takes train's model when it keeps every sensor and out holds
    what train wrote for the run, and retrains otherwise, to the same bytes."""

    OUTPUTS = ("model_selected.json", "history_selected.csv", "history_selected.meta.json",
               "importance.json")

    def _select(self, monkeypatch, cfg, out) -> tuple[int, dict]:
        """(tr.train calls, output bytes) of one select run."""
        calls = []
        real = cli.tr.train

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(cli.tr, "train", counted)
            assert _run("select", "--config", cfg) == 0
        return len(calls), {n: (out / n).read_bytes() for n in self.OUTPUTS}

    def _retrained(self, monkeypatch, cfg, out) -> dict:
        """gen-data, then select's bytes with no model.json to reuse."""
        assert _run("gen-data", "--config", cfg) == 0
        calls, outputs = self._select(monkeypatch, cfg, out)
        assert calls == 2
        return outputs

    def test_reuse_writes_the_retrain_bytes(self, tmp_path, monkeypatch, capsys):
        cfg, out = _keep_all_config(tmp_path), tmp_path / "run"
        retrained = self._retrained(monkeypatch, cfg, out)
        assert "retrained model" in capsys.readouterr().out
        assert _run("train", "--config", cfg) == 0
        calls, reused = self._select(monkeypatch, cfg, out)
        assert calls == 1  # the importance training alone
        assert "reused train's model" in capsys.readouterr().out
        assert reused == retrained
        (out / "model.json").unlink()
        assert self._select(monkeypatch, cfg, out) == (2, retrained)

    @pytest.mark.parametrize("mismatch", [
        _train_other_epochs, _train_other_seed, _edit_norm_stats, _drop_history, _wrong_schema,
        _truncate_model,
    ], ids=["other_epochs", "other_seed", "norm_stats", "no_history", "schema", "truncated"])
    def test_mismatch_retrains(self, tmp_path, monkeypatch, capsys, mismatch):
        cfg, out = _keep_all_config(tmp_path), tmp_path / "run"
        retrained = self._retrained(monkeypatch, cfg, out)
        mismatch(tmp_path, cfg, out)
        capsys.readouterr()
        assert self._select(monkeypatch, cfg, out) == (2, retrained)
        assert "retrained model" in capsys.readouterr().out

    def test_keep_below_sensor_count_ignores_model_json(self, workdir, monkeypatch):
        tmp, cfg, out = workdir  # keeps 2 of 3 sensors
        retrained = self._retrained(monkeypatch, cfg, out)
        assert _run("train", "--config", cfg) == 0
        (out / "model.json").write_text("{not json")
        assert self._select(monkeypatch, cfg, out) == (2, retrained)


# Ways to leave out/ with a record the next stage cannot use, and the
# (calibrate calls, FP test passes) that sweep then infer make after each
def _reformat_model(tmp_path, cfg, out):  # the same model in other bytes
    (out / "model.json").write_text(json.dumps(json.loads((out / "model.json").read_text())))
    return cfg


def _other_calib_frames(tmp_path, cfg, out):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(dict(json.loads(Path(cfg).read_text()), calib_frames=9)))
    return str(path)


def _edit_test_split(tmp_path, cfg, out):
    path = out / "dataset_test" / "a.npy"
    np.save(path, np.load(path) * 0.5)
    return cfg


def _truncate_calib(tmp_path, cfg, out):
    text = (out / "calib.json").read_text()
    (out / "calib.json").write_text(text[: len(text) // 2])
    return cfg


def _fp_wrong_schema(tmp_path, cfg, out):
    _edit_json(out / "fp_test.json", lambda doc: doc.update(schema="edgehar.fp_test/v0"))
    return cfg


def _calib_stat(value):
    def spoil(tmp_path, cfg, out):
        _edit_json(out / "calib.json", lambda doc: doc["stats"]["conv_o"][1].update(b=value))
        return cfg
    return spoil


class TestRecordReuse:
    """quantize and sweep calibrate once per run, through calib.json, and
    sweep and infer run one FP pass over the test split, through fp_test.json;
    a record a stage cannot use is recomputed, to the same bytes."""

    OUTPUTS = ("qmodel_n8.json", "qmodel_n10.json", "sweep.csv", "predictions.csv",
               "predictions.meta.json")
    RECORDS = ("calib.json", "fp_test.json")
    N_TEST = CFG["classes"] * CFG["n_per_class_test"]

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("records")
        cfg = root / "cfg.json"
        cfg.write_text(json.dumps(dict(CFG, out=str(root / "run"))))
        for stage in ("gen-data", "train"):
            assert _run(stage, "--config", str(cfg)) == 0
        return root

    @pytest.fixture
    def run(self, trained, tmp_path):
        shutil.copytree(trained / "run", tmp_path / "run")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CFG, out=str(tmp_path / "run"))))
        return str(cfg), tmp_path / "run"

    def _stages(self, monkeypatch, cfg, out, stages, fresh=False):
        """(quantize.calibrate calls, frames of each FP pass the CLI makes,
        output bytes) of the stages run in order; with fresh, each record is
        deleted before every stage."""
        calls, passes = [], []
        calibrate, forward = cli.qz.calibrate, cli.mdl.forward_batch

        def counted_calibrate(*args):
            calls.append(args)
            return calibrate(*args)

        def counted_forward(spec, params, X):
            passes.append(len(next(iter(X.values()))))
            return forward(spec, params, X)

        with monkeypatch.context() as m:
            m.setattr(cli.qz, "calibrate", counted_calibrate)
            m.setattr(cli.mdl, "forward_batch", counted_forward)
            for stage in stages:
                for name in self.RECORDS if fresh else ():
                    (out / name).unlink(missing_ok=True)
                assert _run(stage, "--config", cfg) == 0, stage
        outputs = {n: (out / n).read_bytes() for n in self.OUTPUTS if (out / n).exists()}
        return len(calls), passes, outputs

    def test_records_give_the_recompute_bytes(self, run, monkeypatch):
        cfg, out = run
        stages = ("quantize", "sweep", "infer")
        calls, passes, used = self._stages(monkeypatch, cfg, out, stages)
        assert (calls, passes) == (1, [self.N_TEST])
        records = {n: (out / n).read_bytes() for n in self.RECORDS}
        calls, passes, recomputed = self._stages(monkeypatch, cfg, out, stages, fresh=True)
        assert (calls, passes) == (2, [self.N_TEST] * 2)
        assert used == recomputed and len(used) == len(self.OUTPUTS)
        for name in self.RECORDS:  # fresh left fp_test.json, which infer wrote
            (out / name).unlink(missing_ok=True)
        assert self._stages(monkeypatch, cfg, out, ("quantize", "sweep"))[:2] == (
            1, [self.N_TEST])
        assert records == {n: (out / n).read_bytes() for n in self.RECORDS}

    def test_infer_first_writes_the_record_sweep_takes(self, run, monkeypatch):
        cfg, out = run
        assert self._stages(monkeypatch, cfg, out, ("infer", "sweep"))[:2] == (1, [self.N_TEST])

    @pytest.mark.parametrize("mismatch, counts", [
        (_reformat_model, (1, [N_TEST])), (_other_calib_frames, (1, [N_TEST])),
        (_edit_test_split, (0, [N_TEST])), (_truncate_calib, (1, [])),
        (_fp_wrong_schema, (0, [N_TEST])), (_calib_stat(math.nan), (1, [])),
        (_calib_stat("0.5"), (1, [])), (_calib_stat(True), (1, [])),
    ], ids=["model_json", "calib_frames", "test_split", "truncated", "schema", "nan_stat",
            "string_stat", "bool_stat"])
    def test_mismatch_recomputes(self, run, tmp_path, monkeypatch, mismatch, counts):
        cfg, out = run
        assert self._stages(monkeypatch, cfg, out, ("quantize", "sweep"))[:2] == (
            1, [self.N_TEST])
        cfg = mismatch(tmp_path, cfg, out)
        calls, passes, reused = self._stages(monkeypatch, cfg, out, ("sweep", "infer"))
        assert (calls, passes) == counts
        _, _, recomputed = self._stages(monkeypatch, cfg, out, ("sweep", "infer"), fresh=True)
        assert reused == recomputed

    def test_pipeline_walks_each_split_once(self, tmp_path, monkeypatch):
        """All 8 stages, twice: each run calibrates once and makes one FP pass
        over the test split, and every file but the records is the bytes of a
        run whose records are deleted before each stage."""
        trees = []
        for name, fresh in (("reused", False), ("defeated", True)):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)  # every artifact echoes the out path
            cfg, out = _keep_all_config(tmp_path / name, out="run"), tmp_path / name / "run"
            calls, passes, _ = self._stages(monkeypatch, cfg, out, STAGES, fresh)
            assert (calls, passes) == ((1, [self.N_TEST]) if not fresh else
                                       (2, [self.N_TEST] * 2))
            trees.append({str(p.relative_to(out)): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert set(trees[0]) - set(trees[1]) == set(self.RECORDS)
        assert {k: v for k, v in trees[0].items() if k not in self.RECORDS} == trees[1]


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
        ({"sensors": [dict(CFG["sensors"][0], conv_dim=3), "tof"]},
         ["sensor 'a'", "conv_dim", "got 3"]),
        ({"sensors": [{"name": "g", "channels": 6, "rate_hz": 25, "conv_dim": 2,
                       "grid": [2, 3, 1]}, "tof"]}, ["sensor 'g'", "grid", "[2, 3, 1]"]),
        ({"sensors": [{"name": "g", "channels": 169, "rate_hz": 25, "conv_dim": 2,
                       "grid": [13.0, 13]}, "tof"]}, ["sensor 'g'", "grid", "[13.0, 13]"]),
        ({"sensors": [{"name": "x", "channels": 5, "rate_hz": 25, "grid": [2, 3]}, "tof"]},
         ["sensor 'x'", "1D", "grid", "[2, 3]"]),
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

    def test_simulate_writes_nothing_when_conservation_fails(self, workdir, monkeypatch,
                                                              capsys):
        tmp, cfg, out = workdir
        for stage in ("gen-data", "train", "quantize"):
            assert _run(stage, "--config", cfg) == 0
        real = daq.Session.conservation

        def one_not_ok(session):
            cons = real(session)
            cons["b"]["ok"] = False
            return cons

        monkeypatch.setattr(daq.Session, "conservation", one_not_ok)
        capsys.readouterr()
        assert _run("simulate", "--config", cfg) == 3
        assert "sample conservation violated" in capsys.readouterr().err
        assert not any((out / f).exists() for f in ("labels.csv", "labels.meta.json",
                                                    "cycles.json"))

    def test_simulate_writes_nothing_when_a_chunk_fails(self, workdir, monkeypatch, capsys):
        tmp, cfg, out = workdir
        Path(cfg).write_text(json.dumps(dict(CFG, out=str(out), step_ms=250)))
        for stage in ("gen-data", "train", "quantize"):
            assert _run(stage, "--config", cfg) == 0
        real, calls = engine.qinfer_batch, []

        def fail_second(qm, X, windows=None):
            calls.append(len(windows[0]))
            if len(calls) == 2:
                raise RuntimeError("second chunk failed")
            return real(qm, X, windows)

        # runs of 9 overlapping frames (see TestSimulateChunks), one call each
        monkeypatch.setattr(cli, "SIM_CHUNK_FRAMES", 3)
        monkeypatch.setattr(engine, "qinfer_batch", fail_second)
        capsys.readouterr()
        assert _run("simulate", "--config", cfg) == 3
        assert "second chunk failed" in capsys.readouterr().err
        assert calls == [9, 9]
        assert not any((out / f).exists() for f in ("labels.csv", "labels.meta.json",
                                                    "cycles.json"))

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
