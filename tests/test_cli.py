import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from edgehar import daq
from edgehar.cli import DEFAULT_CONFIG, _check_config, _sensors, _window, main

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
        assert (out / "dataset" / "rec_0000" / "a.csv").exists()

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
        _check_config(DEFAULT_CONFIG)

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
        sensors = _sensors(cfg)
        sim = cfg["sim"]
        rec, _ = daq.gen_timeline(
            sensors, [c % cfg["classes"] for c in range(sim["n_segments"])],
            Fraction(sim["segment_ms"], 1000), cfg["noise_level"], cfg["seed"],
            classes=cfg["classes"],
        )
        session = daq.start_sync(daq.recording_sources(rec, sensors))
        assert len(list(daq.stream_frames(session, _window(cfg)))) == 9
        assert session.underfill_events == [] and session.overfill_events == []
        assert sum(f.overflowed for f in session.fifos.values()) == 0
        assert all(c["ok"] for c in session.conservation().values())

    def test_fractional_window_rows_gen_data_then_train(self, tmp_path):
        # 1.1 s at 32 Hz is 35.2 samples: the dataset and the model both take 35
        cfg = dict(CFG, out=str(tmp_path / "run"), window_ms=1100, step_ms=1100,
                   sensors=[{"name": "t", "channels": 2, "rate_hz": 32}],
                   classes=2, n_per_class=2, n_per_class_test=1,
                   train=dict(CFG["train"], epochs=1))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert _run("gen-data", "--config", str(cfg_path)) == 0
        assert _run("train", "--config", str(cfg_path)) == 0
        rows = (tmp_path / "run" / "dataset" / "rec_0000" / "t.csv").read_text()
        assert len(rows.strip().split("\n")) - 1 == 35


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

    def test_flag_overrides_win(self, workdir):
        tmp, cfg, out = workdir
        assert _run("gen-data", "--config", cfg, "--seed", "99") == 0
        man = json.loads((out / "dataset" / "manifest.json").read_text())
        assert man["meta"]["seed"] == 99
