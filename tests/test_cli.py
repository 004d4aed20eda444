"""End-to-end CLI tests, driving main() directly."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctxtrack
from ctxtrack import cli
from ctxtrack.cli import main
from ctxtrack.fileio import (PARAMS_MAGIC, PARAMS_VERSION, read_csv, read_pgm, read_ppm,
                             save_params)
from ctxtrack.model import TrackerNet, toy_spec


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, value):
        # Python's json reads and writes NaN, Infinity and -Infinity
        config = _write_config(tmp_path, train={"lr": value},
                               track={"seed_confidence": value})
        assert main(["track", "--config", config,
                     "--metrics", str(tmp_path / "m.csv")]) == 1
        assert "error: train.lr must be finite" in capsys.readouterr().err

    def test_int_too_large_for_a_float_is_config_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, train={"lr": 10 ** 400})
        assert main(["track", "--config", config,
                     "--metrics", str(tmp_path / "m.csv")]) == 1
        assert "error: train.lr is too large" in capsys.readouterr().err

    def test_model_numpy_cannot_build_is_config_error(self, tmp_path, capsys):
        # 10**30 channels pass every config check; numpy's generator then
        # raised "Maximum allowed dimension exceeded" as a traceback, before
        # it allocated anything
        config = _write_config(tmp_path, model={"channels": 10 ** 30})
        assert main(["track", "--config", config,
                     "--metrics", str(tmp_path / "m.csv")]) == 1
        assert "error: cannot build the model" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("field,value,message", [
        ("alpha", 1e300, "alpha must lie in [0, 1]"),
        ("alpha", -5.0, "alpha must lie in [0, 1]"),
        ("gamma", -3.0, "gamma must lie in [0, 5]"),
        ("gamma", 5.5, "gamma must lie in [0, 5]")])
    def test_varifocal_weight_out_of_range_is_config_error(
            self, tmp_path, capsys, field, value, message):
        # alpha 1e300 overflowed Adam, alpha -5 trained to a negative loss,
        # and gamma -3 trained; each exited 0 and wrote parameters
        params = tmp_path / "p.params"
        config = _write_config(tmp_path, train={field: value})
        assert main(["train", "--config", config, "--params", str(params)]) == 1
        assert f"error: train: {message}" in capsys.readouterr().err
        assert not params.exists()

    @pytest.mark.parametrize("field,value", [
        ("lambda_cls", 1e300), ("lambda_giou", 1e300), ("lambda_cls", 100.5),
        ("lambda_giou", -1.0)])
    def test_loss_weight_out_of_range_is_config_error(self, tmp_path, capsys,
                                                      field, value):
        # lambda_cls 1e300 overflowed Adam's moments with a RuntimeWarning,
        # reported a loss near 5.7e303, exited 0 and wrote parameters
        params = tmp_path / "p.params"
        config = _write_config(tmp_path, train={field: value})
        assert main(["train", "--config", config, "--params", str(params)]) == 1
        assert f"error: train: {field} must lie in [0, 100]" in capsys.readouterr().err
        assert not params.exists()

    @pytest.mark.parametrize("command,section", [
        ("gen", "sequence"), ("train", "sequence"), ("train", "train"),
        ("track", "train")])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command, section):
        # numpy's generator rejected it with a ValueError traceback
        config = _write_config(tmp_path, **{section: {"seed": -1}})
        outputs = {"gen": ["--out-dir", str(tmp_path / "frames")],
                   "train": ["--params", str(tmp_path / "p.params")],
                   "track": ["--metrics", str(tmp_path / "m.csv")]}
        assert main([command, "--config", config] + outputs[command]) == 1
        assert f"error: {section}: seed must be non-negative" in capsys.readouterr().err

    def test_unwritable_track_metrics_is_config_error(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        missing = tmp_path / "missing" / "m.csv"
        assert main(["track", "--config", config,
                     "--metrics", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and str(missing) in err

    def test_unwritable_update_sim_out_is_config_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("0.9\n0.8\n", encoding="utf-8")
        missing = tmp_path / "missing" / "m.csv"
        assert main(["update-sim", "--trace", str(trace),
                     "--out", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and str(missing) in err

    @pytest.mark.parametrize("flag", ["--params", "--loss-csv"])
    def test_train_checks_outputs_before_training(self, tmp_path, capsys,
                                                  monkeypatch, flag):
        def never(*args, **kwargs):
            raise AssertionError("trained before checking the output paths")

        monkeypatch.setattr(cli, "toy_train", never)
        outputs = {"--params": tmp_path / "p.params",
                   "--loss-csv": tmp_path / "loss.csv"}
        outputs[flag] = tmp_path / "missing" / "out"
        argv = ["train", "--config", _write_config(tmp_path)]
        for name, path in outputs.items():
            argv += [name, str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and str(outputs[flag]) in err

    def test_track_checks_metrics_before_tracking(self, tmp_path, capsys,
                                                  monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("tracked before checking the output path")

        monkeypatch.setattr(cli, "run_tracker", never)
        missing = tmp_path / "missing" / "m.csv"
        assert main(["track", "--config", _write_config(tmp_path),
                     "--metrics", str(missing)]) == 1
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, work", [
        ("train", "--params", "toy_train"), ("track", "--metrics", "run_tracker"),
        ("update-sim", "--out", "simulate_updates"),
        ("respmap", "--out-dir", "response_maps"), ("gen", "--out-dir", "gen_sequence")])
    def test_output_of_the_wrong_kind_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, flag, work):
        def never(*args, **kwargs):
            raise AssertionError(f"called {work} before checking {flag}")

        monkeypatch.setattr(cli, work, never)
        out, trace = tmp_path / "out", tmp_path / "trace.txt"
        trace.write_text("0.9\n", encoding="utf-8")
        if flag == "--out-dir":   # a file where the directory goes, or above it
            out.touch()
            path = out / "frames" if command == "gen" else out
        else:                     # an output file that is a directory
            out.mkdir()
            path = out
        argv = [command, "--config", _write_config(tmp_path), flag, str(path)]
        assert main(argv + (["--trace", str(trace)] if command == "update-sim" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("command, flags, work", [
        ("train", ["--params", "--loss-csv"], "toy_train"),
        ("update-sim", ["--trace", "--out"], "simulate_updates"),
        ("track", ["--config", "--metrics"], "run_tracker")],
        ids=["two-outputs", "output-is-input", "output-is-config"])
    def test_output_that_is_another_named_file_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, flags, work):
        def never(*args, **kwargs):
            raise AssertionError(f"called {work} before checking {flags}")

        monkeypatch.setattr(cli, work, never)
        config = _write_config(tmp_path)
        same = tmp_path / "same.out"
        same.write_text(Path(config).read_text(encoding="utf-8") if command == "track"
                        else "0.9\n", encoding="utf-8")
        before = same.read_bytes()
        argv = [command] + (["--config", config] if command != "track" else [])
        # the second path names the same file through a different spelling
        argv += [flags[0], str(same), flags[1], str(tmp_path / "." / "same.out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1
        assert "same file" in err
        assert same.read_bytes() == before

    def test_track_one_frame_sequence_writes_nothing(self, tmp_path, capsys,
                                                     monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("built the net for a one-frame sequence")

        monkeypatch.setattr(cli, "_build_net", never)
        metrics = tmp_path / "m.csv"
        config = _write_config(tmp_path, sequence={"num_frames": 1})
        assert main(["track", "--config", config, "--metrics", str(metrics)]) == 1
        assert "at least 2 frames" in capsys.readouterr().err
        assert not metrics.exists()

    @pytest.mark.parametrize("flag, content", [
        ("--config", b"\xff\xfe\n"), ("--trace", b"\xff\xfe\n"), ("--config", b"[" * 100_000),
        ("--config", b'{"train": {"steps": ' + b"9" * 5000 + b"}}")],
        ids=["config-not-utf8", "trace-not-utf8", "config-too-deep", "config-int-too-long"])
    def test_unreadable_input_text_is_one_error_line(self, tmp_path, capsys, flag, content):
        bad, trace = tmp_path / "input", tmp_path / "trace.txt"
        bad.write_bytes(content)
        trace.write_text("0.5\n", encoding="utf-8")
        inputs = {"--config": _write_config(tmp_path), "--trace": str(trace), flag: str(bad)}
        assert main(["update-sim", *(a for pair in inputs.items() for a in pair),
                     "--out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "d.csv").exists()


def test_runtime_imports_only_stdlib_and_numpy():
    # modules `import ctxtrack.cli` adds to a fresh interpreter, against a
    # baseline interpreter that imports nothing
    src = str(Path(ctxtrack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys; {}print(*sys.modules)"

    def loaded(imports):
        out = subprocess.run([sys.executable, "-c", probe.format(imports)],
                             env=env, capture_output=True, text=True, check=True)
        return {name.split(".")[0] for name in out.stdout.split()}

    added = loaded("import ctxtrack.cli; ") - loaded("")
    allowed = set(sys.stdlib_module_names) | {"numpy", "ctxtrack"}
    assert "numpy" in added and "ctxtrack" in added
    assert added <= allowed, sorted(added - allowed)


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


    def test_track_rejects_params_with_non_utf8_name(self, tmp_path, capsys):
        params = tmp_path / "bad.bin"
        params.write_bytes(PARAMS_MAGIC + struct.pack("<III", PARAMS_VERSION, 1, 2) + b"\xff\xfe"
                           + struct.pack("<Id", 0, 1.0))
        assert main(["track", "--config", _write_config(tmp_path),
                     "--params", str(params),
                     "--metrics", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_track_rejects_params_with_a_repeated_name(self, tmp_path, capsys):
        state = TrackerNet(toy_spec(), np.random.default_rng(0)).state()
        params = tmp_path / "dup.params"
        save_params(params, state)
        # the first tensor again, holding 7.0, with the tensor count raised
        name, arr = next(iter(state.items()))
        data = bytearray(params.read_bytes())
        struct.pack_into("<I", data, len(PARAMS_MAGIC) + 4, len(state) + 1)
        data += struct.pack(f"<I{len(name)}sI{arr.ndim}I", len(name), name.encode(),
                            arr.ndim, *arr.shape) + np.full(arr.shape, 7.0).tobytes()
        params.write_bytes(bytes(data))
        metrics = tmp_path / "m.csv"
        assert main(["track", "--config", _write_config(tmp_path),
                     "--params", str(params), "--metrics", str(metrics)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"tensor {name!r} repeated" in err
        assert not metrics.exists()


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

    @pytest.mark.parametrize("layers", [",", "", " , "])
    def test_empty_layer_list_is_config_error_before_the_net_is_built(
            self, tmp_path, capsys, monkeypatch, layers):
        def build_net(*_):
            raise AssertionError("the net was built")

        monkeypatch.setattr(cli, "_build_net", build_net)
        config = _write_config(tmp_path)
        out = tmp_path / "maps"
        assert main(["respmap", "--config", config, "--out-dir", str(out),
                     "--layers", layers]) == 1
        assert "names no layer" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_parameters_are_exit_2_and_write_nothing(self, tmp_path, capsys):
        from ctxtrack.config import load_config
        from ctxtrack.fileio import save_params
        from ctxtrack.model import TrackerNet

        config = _write_config(tmp_path)
        cfg = load_config(config)
        net = TrackerNet(cfg.spec, np.random.default_rng(cfg.train.seed))
        state = net.state()
        state["patch.proj.weight"][:] = np.nan
        params = tmp_path / "nan.params"
        save_params(params, state)
        out = tmp_path / "maps"
        assert main(["respmap", "--config", config, "--params", str(params),
                     "--out-dir", str(out)]) == 2
        assert "numeric failure" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_frame_rejected(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["respmap", "--config", config,
                     "--out-dir", str(tmp_path / "m"),
                     "--frame", "7"]) == 1
