"""End-to-end CLI tests, driving main() directly."""

import json

import numpy as np
import pytest

from ctxtrack.cli import main
from ctxtrack.fileio import read_csv, read_pgm, read_ppm


def _write_config(tmp_path, **sections):
    base = {
        "train": {"steps": 2},
        "sequence": {"num_frames": 3, "frame_size": 64, "box_size": 12,
                     "num_distractors": 1},
    }
    for name, content in sections.items():
        base.setdefault(name, {}).update(content)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base), encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_no_command_is_config_error(self, capsys):
        assert main([]) == 1
        assert "missing command" in capsys.readouterr().err

    def test_unknown_command_is_config_error(self, capsys):
        assert main(["polish"]) == 1

    def test_bad_flag_is_config_error(self, capsys):
        assert main(["gen", "--out-dir", "x", "--bogus"]) == 1

    def test_missing_required_flag_is_config_error(self, tmp_path, capsys):
        assert main(["gen"]) == 1

    def test_bad_config_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["gen", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_knob_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sequence": {"box_size": 1}}),
                       encoding="utf-8")
        assert main(["gen", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # Force the training loss to go non-finite at once.
        import ctxtrack.cli as cli_mod

        original = cli_mod._build_net

        def poisoned(cfg, params_path=None):
            net = original(cfg, params_path)
            net.patch.proj.weight.data[:] = np.nan
            return net

        monkeypatch.setattr(cli_mod, "_build_net", poisoned)
        config = _write_config(tmp_path)
        code = main(["train", "--config", config,
                     "--params", str(tmp_path / "m.params")])
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_saturated_training_output_is_exit_2(self, tmp_path, capsys,
                                                 monkeypatch):
        # A classification bias of 40 saturates the sigmoid at exactly 1.0.
        import ctxtrack.cli as cli_mod

        original = cli_mod._build_net

        def saturated(cfg, params_path=None):
            net = original(cfg, params_path)
            net.head.cls_out.bias.data[:] = 40.0
            return net

        monkeypatch.setattr(cli_mod, "_build_net", saturated)
        config = _write_config(tmp_path)
        code = main(["train", "--config", config,
                     "--params", str(tmp_path / "m.params")])
        assert code == 2
        assert "saturated classification output" in capsys.readouterr().err

    def test_track_numeric_failure_is_exit_2(self, tmp_path, capsys,
                                             monkeypatch):
        # NaN weights make every head output non-finite.
        import ctxtrack.cli as cli_mod

        original = cli_mod._build_net

        def poisoned(cfg, params_path=None):
            net = original(cfg, params_path)
            net.patch.proj.weight.data[:] = np.nan
            return net

        monkeypatch.setattr(cli_mod, "_build_net", poisoned)
        config = _write_config(tmp_path)
        code = main(["track", "--config", config,
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_track_runaway_box_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # A large but finite regression bias grows the box until its crop
        # window leaves int64 pixel indices.
        import ctxtrack.cli as cli_mod

        original = cli_mod._build_net

        def runaway(cfg, params_path=None):
            net = original(cfg, params_path)
            net.head.reg_out.bias.data[:] = 30.0
            return net

        monkeypatch.setattr(cli_mod, "_build_net", runaway)
        config = _write_config(tmp_path, track={"update_mode": "always-last"},
                               sequence={"num_frames": 6})
        code = main(["track", "--config", config,
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "numeric failure" in err and "int64" in err


class TestGen(object):
    def test_writes_frames_and_annotations(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "seq"
        assert main(["gen", "--config", config, "--out-dir", str(out)]) == 0
        header, rows = read_csv(out / "annotations.csv")
        assert header == ["frame", "x1", "y1", "x2", "y2", "occluded"]
        assert len(rows) == 3
        image = read_ppm(out / "frame0000.ppm")
        assert image.shape == (64, 64, 3)

    def test_deterministic_output(self, tmp_path):
        config = _write_config(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["gen", "--config", config, "--out-dir", str(a)]) == 0
        assert main(["gen", "--config", config, "--out-dir", str(b)]) == 0
        assert (a / "annotations.csv").read_bytes() == \
            (b / "annotations.csv").read_bytes()
        assert (a / "frame0002.ppm").read_bytes() == \
            (b / "frame0002.ppm").read_bytes()


class TestTrainTrackPipeline(object):
    def test_full_pipeline(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        params = tmp_path / "model.params"
        loss_csv = tmp_path / "loss.csv"
        assert main(["train", "--config", config, "--params", str(params),
                     "--loss-csv", str(loss_csv)]) == 0
        assert params.exists()
        header, rows = read_csv(loss_csv)
        assert header == ["step", "loss"]
        assert len(rows) == 2

        metrics = tmp_path / "metrics.csv"
        assert main(["track", "--config", config, "--params", str(params),
                     "--metrics", str(metrics)]) == 0
        header, rows = read_csv(metrics)
        assert header == ["sequence_id", "frame", "iou", "confidence",
                          "threshold", "updated"]
        assert [r[1] for r in rows] == ["1", "2"]
        assert all(r[0] == "seq0" for r in rows)
        assert all(r[5] in ("0", "1") for r in rows)
        for row in rows:
            assert 0.0 <= float(row[2]) <= 1.0
        out = capsys.readouterr().out
        assert "AO" in out

    def test_track_runs_identically_twice(self, tmp_path):
        # Byte-identical metrics for identical config and seed.
        config = _write_config(tmp_path)
        m1 = tmp_path / "m1.csv"
        m2 = tmp_path / "m2.csv"
        assert main(["track", "--config", config,
                     "--metrics", str(m1)]) == 0
        assert main(["track", "--config", config,
                     "--metrics", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_track_without_params_uses_random_init(self, tmp_path):
        config = _write_config(tmp_path)
        metrics = tmp_path / "metrics.csv"
        assert main(["track", "--config", config,
                     "--metrics", str(metrics)]) == 0
        assert metrics.exists()

    def test_track_rejects_mismatched_params(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        params = tmp_path / "model.params"
        assert main(["train", "--config", config,
                     "--params", str(params)]) == 0
        other = _write_config(tmp_path, model={"channels": 16})
        # Reuse params trained at 8 channels with a 16-channel model.
        assert main(["track", "--config", other, "--params", str(params),
                     "--metrics", str(tmp_path / "m.csv")]) == 1
        assert "parameter file" in capsys.readouterr().err


class TestUpdateSim(object):
    def test_decision_csv(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("# confidences\n0.4\n0.9\n\n0.9\n0.2\n0.8\n",
                         encoding="utf-8")
        out = tmp_path / "decisions.csv"
        assert main(["update-sim", "--trace", str(trace), "--out", str(out),
                     "--mode", "mean"]) == 0
        header, rows = read_csv(out)
        assert header == ["index", "confidence", "threshold", "updated"]
        assert [r[3] for r in rows] == ["0", "1", "1", "0", "1"]
        assert rows[0][2] == "1.000000"

    def test_never_mode_threshold_is_nan(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("0.5\n", encoding="utf-8")
        out = tmp_path / "never.csv"
        assert main(["update-sim", "--trace", str(trace), "--out", str(out),
                     "--mode", "never"]) == 0
        _, rows = read_csv(out)
        assert rows[0][2] == "nan"
        assert rows[0][3] == "0"

    def test_bad_trace_rejected(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("0.5\nhigh\n", encoding="utf-8")
        assert main(["update-sim", "--trace", str(trace),
                     "--out", str(tmp_path / "d.csv")]) == 1
        assert "not a confidence" in capsys.readouterr().err

    def test_out_of_range_trace_rejected(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("1.5\n", encoding="utf-8")
        assert main(["update-sim", "--trace", str(trace),
                     "--out", str(tmp_path / "d.csv")]) == 1

    def test_missing_trace_rejected(self, tmp_path):
        assert main(["update-sim", "--trace", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "d.csv")]) == 1


class TestRespmap(object):
    def test_writes_three_files_per_layer(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "maps"
        assert main(["respmap", "--config", config, "--out-dir", str(out),
                     "--layers", "0,4"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["layer0_previous.pgm", "layer0_search.pgm",
                         "layer0_target.pgm", "layer4_previous.pgm",
                         "layer4_search.pgm", "layer4_target.pgm"]
        assert read_pgm(out / "layer0_search.pgm").shape == (4, 4)
        assert read_pgm(out / "layer0_target.pgm").shape == (2, 2)

    def test_all_layers_by_default(self, tmp_path):
        config = _write_config(tmp_path)
        out = tmp_path / "maps"
        assert main(["respmap", "--config", config,
                     "--out-dir", str(out)]) == 0
        # Toy model: three joint backbone layers plus three full neck layers.
        assert len(list(out.iterdir())) == 6 * 3

    def test_bad_layer_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert main(["respmap", "--config", config,
                     "--out-dir", str(tmp_path / "m"),
                     "--layers", "99"]) == 1
        assert main(["respmap", "--config", config,
                     "--out-dir", str(tmp_path / "m"),
                     "--layers", "one"]) == 1

    def test_bad_frame_rejected(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["respmap", "--config", config,
                     "--out-dir", str(tmp_path / "m"),
                     "--frame", "7"]) == 1
