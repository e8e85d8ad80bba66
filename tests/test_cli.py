"""CLI pipeline: artifacts, exit codes, manifests, reproducibility."""

import hashlib
import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import helpers as ref
from mclink import baseline, channel, cli, surrogate, transceiver
from mclink.cli import EXIT_OK, EXIT_RUNTIME, EXIT_TOLERANCE, EXIT_USAGE, FLAGS, main
from mclink.dataset import DATASET_MAGIC, Dataset, load_dataset, save_dataset
from mclink.nn import CHECKPOINT_MAGIC, Tensor, load_checkpoint, save_checkpoint
from mclink.runio import load_manifest, sha256_file

FAST_PHYSICS = ["--particles", "20000", "--times", "1.0,1.2585"]


def run(argv):
    return main([str(a) for a in argv])


def must_not_run(*args, **kwargs):
    raise AssertionError("the run started its work")


def scenario_file(path, name="scenario1"):
    """A key = value file holding a built-in scenario's parameters, in its own directory."""
    path.parent.mkdir(parents=True)
    path.write_text("".join(f"{key} = {value!r}\n"
                            for key, value in asdict(channel.scenario(name)).items()))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end pipeline shared by the artifact tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    surr = root / "surr"
    model = root / "model"
    assert run(["gen-data", "--seed", 1, "--out", data,
                "--train-count", 400, "--test-count", 120]) == EXIT_OK
    assert run(["fit-channel", "--seed", 1, "--out", surr,
                "--pairs", 4000, "--epochs", 15]) == EXIT_OK
    assert run(["train", "--seed", 1, "--out", model, "--data", data,
                "--surrogate", surr / "surrogate.ckpt",
                "--epochs", 6]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def runs(pipeline, tmp_path_factory):
    """The output directory of one run of each command, the pipeline's three included."""
    root = tmp_path_factory.mktemp("runs")
    runs = {"gen-data": pipeline / "data", "fit-channel": pipeline / "surr",
            "train": pipeline / "model"}
    for command, argv in {
        "validate-physics": FAST_PHYSICS,
        "sim-sir": ["--dt", 0.05],
        "eval": ["--model", pipeline / "model" / "semantic.ckpt", "--data", pipeline / "data",
                 "--trials", 1],
        "sweep": ["--data", pipeline / "data", "--n-m-list", 20000, "--pairs", 400,
                  "--epochs", 1, "--trials", 1],
    }.items():
        runs[command] = root / command
        assert run([command, "--out", runs[command], *argv]) == EXIT_OK
    return runs


class TestValidatePhysics:
    def test_pass_inside_validity_region(self, tmp_path):
        code = run(["validate-physics", "--scenario", "scenario1", "--seed", 3,
                    "--out", tmp_path, *FAST_PHYSICS])
        assert code == EXIT_OK
        csv = (tmp_path / "capture_scenario1.csv").read_text().splitlines()
        assert csv[0] == "t_s,p_empirical,p_analytic,rel_err,p_exact"
        assert len(csv) == 3
        for line in csv[1:]:
            assert float(line.split(",")[3]) <= 0.15
        assert (tmp_path / "manifest.json").exists()

    def test_unknown_scenario_is_usage_error(self, tmp_path, capsys):
        code = run(["validate-physics", "--scenario", "scenario9", "--out", tmp_path])
        assert code == EXIT_USAGE
        assert "scenario9" in capsys.readouterr().err

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["validate-physics", "--seed", 4, "--out", out,
                        "--particles", 20000, "--times", "1.0"]) == EXIT_OK
        assert (a / "capture_scenario1.csv").read_bytes() == \
               (b / "capture_scenario1.csv").read_bytes()

    def test_tolerance_breach_exits_3(self, tmp_path):
        # at 0.5 s the exact sphere average sits 19.6% above the point-
        # concentration formula; 5M particles put that 5 SE past the 15% gate
        code = run(["validate-physics", "--seed", 5, "--out", tmp_path,
                    "--particles", 5000000, "--times", "0.5"])
        assert code == EXIT_TOLERANCE
        # the CSV and the manifest are still written for inspection
        assert (tmp_path / "capture_scenario1.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_scenario2_defaults(self, tmp_path):
        code = run(["validate-physics", "--scenario", "scenario2", "--seed", 6,
                    "--out", tmp_path])
        assert code == EXIT_OK
        assert len((tmp_path / "capture_scenario2.csv").read_text().splitlines()) == 6


    def test_manifest_with_retired_keys_replays(self, tmp_path):
        # manifests written before the exact-increment oracle carry dt,
        # threads and n_m; nothing reads them, so the replay still runs
        fresh = tmp_path / "fresh"
        assert run(["validate-physics", "--seed", 4, "--out", fresh,
                    "--particles", 20000, "--times", "1.0"]) == EXIT_OK
        old = tmp_path / "old.json"
        old.write_text(json.dumps({
            "command": "validate-physics", "seed": 4,
            "params": {"scenario": "scenario1", "particles": 20000, "dt": 0.01,
                       "times": "1.0", "n_m": None, "out": "ignored", "threads": 1}}))
        replay = tmp_path / "replay"
        assert run(["validate-physics", "--config", old, "--out", replay]) == EXIT_OK
        assert (replay / "capture_scenario1.csv").read_bytes() == \
               (fresh / "capture_scenario1.csv").read_bytes()
        assert "dt" not in load_manifest(replay / "manifest.json")["params"]


    def test_scenario_file_in_a_directory_names_the_output_by_file(self, tmp_path):
        link = scenario_file(tmp_path / "links" / "link.cfg")
        for scenario, out in ((link, tmp_path / "file"), ("scenario1", tmp_path / "builtin")):
            assert run(["validate-physics", "--scenario", scenario, "--seed", 3,
                        "--out", out, *FAST_PHYSICS]) == EXIT_OK
        for suffix in (".csv", ".csv.meta.json"):
            assert (tmp_path / "file" / f"capture_link.cfg{suffix}").read_bytes() == \
                   (tmp_path / "builtin" / f"capture_scenario1{suffix}").read_bytes()

    def test_scenario_file_without_times_is_usage_error(self, tmp_path, capsys):
        # only the built-in scenarios have a default probe grid
        link = scenario_file(tmp_path / "links" / "link.cfg")
        out = tmp_path / "out"
        assert run(["validate-physics", "--scenario", link, "--out", out]) == EXIT_USAGE
        assert "--times" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_failing_probes_are_named_distinctly(self, tmp_path, capsys, monkeypatch):
        # a stubbed curve that breaches at two probes 0.0004 s apart; the
        # oracle's own curve passes at these sizes
        def curve(cfg, p):
            return [(t, 0.0, channel.capture_probability(p, t), 0.2 if t in (1.4998, 1.5002)
                     else 0.01) for t in cfg.record_times]

        monkeypatch.setattr(cli.particle, "empirical_capture_curve", curve)
        code = run(["validate-physics", "--scenario", "scenario2", "--out", tmp_path])
        assert code == EXIT_TOLERANCE
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == ("FAIL: 2/3 probe(s) exceed 15% relative error: "
                             "['1.4998s', '1.5002s']")
        assert sum("(checked)" in line for line in lines) == 3

    def test_probe_grid_without_a_checkable_probe_is_usage_error(self, tmp_path, capsys,
                                                                 monkeypatch):
        def oracle(cfg, p):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cli.particle, "empirical_capture_curve", oracle)
        code = run(["validate-physics", "--times", "30", "--out", tmp_path])
        assert code == EXIT_USAGE
        assert "none can be checked" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSimSir:
    def test_row_counts_per_scenario(self, tmp_path):
        assert run(["sim-sir", "--out", tmp_path, "--dt", 0.01]) == EXIT_OK
        s1 = (tmp_path / "sir_scenario1.csv").read_text().splitlines()
        s2 = (tmp_path / "sir_scenario2.csv").read_text().splitlines()
        assert len(s1) == 1 + 5 * 400    # 5 slots x (4 s / 0.01 s)
        assert len(s2) == 1 + 5 * 300
        assert s1[0] == "t_s,sir,sir_db"

    def test_bad_dt_is_usage_error(self, tmp_path):
        assert run(["sim-sir", "--out", tmp_path, "--dt", 4.0]) == EXIT_USAGE

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["sim-sir", "--scenario", "scenario1", "--out", out,
                        "--dt", 0.05]) == EXIT_OK
        assert (a / "sir_scenario1.csv").read_bytes() == (b / "sir_scenario1.csv").read_bytes()

    def test_scenario_file_in_a_directory_names_the_output_by_file(self, tmp_path):
        link = scenario_file(tmp_path / "links" / "link.cfg", "scenario2")
        for scenario, out in ((link, tmp_path / "file"), ("scenario2", tmp_path / "builtin")):
            assert run(["sim-sir", "--scenario", scenario, "--out", out, "--dt", 0.05]) == EXIT_OK
        assert (tmp_path / "file" / "sir_link.cfg.csv").read_bytes() == \
               (tmp_path / "builtin" / "sir_scenario2.csv").read_bytes()

    def test_no_finite_sample_prints_an_infinite_peak(self, tmp_path, capsys):
        # no noise and no predecessor to interfere: every sample is inf
        assert run(["sim-sir", "--out", tmp_path, "--symbols", 1, "--sigma-n", 0]) == EXIT_OK
        assert {"sir_scenario1.csv", "sir_scenario2.csv", "manifest.json"} <= set(
            os.listdir(tmp_path))
        assert capsys.readouterr().out.count("peak SIR inf") == 2


class TestGenData:
    def test_containers_loadable_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["gen-data", "--seed", 7, "--out", out,
                        "--train-count", 40, "--test-count", 12]) == EXIT_OK
        assert (a / "train.ds").read_bytes() == (b / "train.ds").read_bytes()
        ds = load_dataset(a / "train.ds")
        assert len(ds) == 40 and ds.num_classes == 4


class TestArtifactFlow:
    def test_surrogate_checkpoint_role(self, pipeline):
        role, _, meta = load_checkpoint(pipeline / "surr" / "surrogate.ckpt")
        assert role == "channel_surrogate"
        assert meta["channel"]["scenario"] == "scenario1"

    def test_semantic_checkpoint_role(self, pipeline):
        role, _, meta = load_checkpoint(pipeline / "model" / "semantic.ckpt")
        assert role == "semantic_model"
        assert meta["k"] == 16 and meta["num_classes"] == 4

    def test_history_csvs(self, pipeline):
        nll = (pipeline / "surr" / "nll_history.csv").read_text().splitlines()
        assert nll[0] == "epoch,train_nll,val_nll" and len(nll) > 1
        hist = (pipeline / "model" / "train_history.csv").read_text().splitlines()
        assert hist[0] == "epoch,train_loss,train_acc,val_loss,val_acc"

    def test_stop_reason_printed(self, pipeline, tmp_path, capsys):
        assert run(["fit-channel", "--out", tmp_path / "fit", "--pairs", 400,
                    "--epochs", 2]) == EXIT_OK
        assert "2 epochs (stop: max_epochs), best validation NLL" in capsys.readouterr().out
        assert run(["train", "--out", tmp_path / "train", "--data", pipeline / "data",
                    "--surrogate", tmp_path / "fit" / "surrogate.ckpt",
                    "--epochs", 2]) == EXIT_OK
        assert "2 epochs (stop: max_epochs), kept epoch" in capsys.readouterr().out

    def test_eval_writes_metrics(self, pipeline, tmp_path):
        out = tmp_path / "eval"
        assert run(["eval", "--seed", 2, "--out", out,
                    "--model", pipeline / "model" / "semantic.ckpt",
                    "--data", pipeline / "data", "--trials", 1]) == EXIT_OK
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "n_m,method,accuracy,ci_low,ci_high"
        n_m, method, acc, lo, hi = lines[1].split(",")
        assert method == "semantic" and n_m == "20000"
        assert 0.0 <= float(lo) <= float(acc) <= float(hi) <= 1.0

    def test_role_mismatch_is_usage_error(self, pipeline, tmp_path, capsys):
        code = run(["eval", "--out", tmp_path,
                    "--model", pipeline / "surr" / "surrogate.ckpt",
                    "--data", pipeline / "data"])
        assert code == EXIT_USAGE
        assert "role" in capsys.readouterr().err

    def test_missing_artifacts_are_usage_errors(self, pipeline, tmp_path):
        assert run(["train", "--out", tmp_path, "--data", tmp_path,
                    "--surrogate", pipeline / "surr" / "surrogate.ckpt"]) == EXIT_USAGE
        assert run(["train", "--out", tmp_path]) == EXIT_USAGE

    def test_eval_rerun_from_manifest_is_byte_identical(self, pipeline, tmp_path):
        first = tmp_path / "run1"
        assert run(["eval", "--seed", 9, "--out", first,
                    "--model", pipeline / "model" / "semantic.ckpt",
                    "--data", pipeline / "data", "--trials", 1]) == EXIT_OK
        second = tmp_path / "run2"
        assert run(["eval", "--config", first / "manifest.json",
                    "--out", second]) == EXIT_OK
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
        assert load_manifest(second / "manifest.json")["seed"] == 9

    def test_explicit_seed_overrides_manifest_seed(self, pipeline, tmp_path):
        first = tmp_path / "run1"
        assert run(["eval", "--seed", 9, "--out", first,
                    "--model", pipeline / "model" / "semantic.ckpt",
                    "--data", pipeline / "data", "--trials", 1]) == EXIT_OK
        second = tmp_path / "run2"
        assert run(["eval", "--config", first / "manifest.json",
                    "--seed", 4, "--out", second]) == EXIT_OK
        assert load_manifest(second / "manifest.json")["seed"] == 4

    def test_manifest_echoes_all_params(self, pipeline, runs):
        manifest = load_manifest(pipeline / "model" / "manifest.json")
        assert manifest["command"] == "train"
        assert manifest["seed"] == 1
        assert manifest["inputs"]           # dataset + surrogate hashes recorded
        for command, out in runs.items():
            params = load_manifest(out / "manifest.json")["params"]
            assert set(params) == {row[0] for row in FLAGS[command]} | {"out"}, command

    def test_each_command_leaves_one_manifest_of_what_it_wrote_and_read(self, pipeline, runs):
        read = {"train": [pipeline / "data" / "train.ds", pipeline / "surr" / "surrogate.ckpt"],
                "eval": [pipeline / "data" / "test.ds", pipeline / "model" / "semantic.ckpt"],
                "sweep": [pipeline / "data" / "train.ds", pipeline / "data" / "test.ds"]}
        assert set(runs) == set(FLAGS)
        for command, out in runs.items():
            manifest = load_manifest(out / "manifest.json")
            assert manifest["command"] == command
            assert sorted(os.listdir(out)) == sorted([*manifest["outputs"], "manifest.json"])
            assert manifest["inputs"] == {str(path): sha256_file(path)
                                          for path in read.get(command, [])}, command

    def test_help_shows_defaults(self, capsys):
        for command, rows in FLAGS.items():
            name, _, default, _ = next(row for row in rows
                                       if row[2] is not None and row[2] is not cli.REQUIRED)
            required = [row[0] for row in rows if row[2] is cli.REQUIRED]
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())

            def shown(name):
                flag = "--" + name.replace("_", "-")
                return text.split(f" {flag} ", 1)[1].split(" --", 1)[0]

            assert f"(default {default})" in shown(name)
            for needed in required:
                assert shown(needed).endswith("(required)"), (command, needed)


class TestSweep:
    def test_single_point_sweep_has_both_methods(self, pipeline, tmp_path):
        out = tmp_path / "sweep"
        assert run(["sweep", "--seed", 11, "--out", out, "--data", pipeline / "data",
                    "--n-m-list", "20000", "--pairs", 3000, "--epochs", 4,
                    "--trials", 1]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "n_m,method,accuracy,ci_low,ci_high"
        methods = {line.split(",")[1] for line in lines[1:]}
        assert methods == {"semantic", "baseline"}

    def test_cli_writes_the_library_sweep(self, pipeline, tmp_path):
        train = load_dataset(pipeline / "data" / "train.ds")
        test = load_dataset(pipeline / "data" / "test.ds")
        budgets = (20000, 300)
        links = [(n_m, channel.with_overrides(channel.scenario("scenario1"), max_molecules=n_m))
                 for n_m in budgets]
        rows = list(cli.sweep(11, train, test, links, 400, 1, 1))
        assert [n_m for n_m, _, _ in rows] == list(budgets)
        assert rows == list(cli.sweep(11, train, test, links, 400, 1, 1))
        out = tmp_path / "sweep"
        # whole budgets written as floats name the same links
        assert run(["sweep", "--seed", 11, "--out", out, "--data", pipeline / "data",
                    "--n-m-list", "2e4,300.0", "--pairs", 400, "--epochs", 1,
                    "--trials", 1]) == EXIT_OK
        written = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [(int(n_m), method, *map(float, stats)) for n_m, method, *stats in written] == [
            (n_m, method, *stats) for n_m, sem, base in rows
            for method, stats in (("semantic", sem), ("baseline", base))]


class TestExitCodes:
    # drift so fast that the capture formula exceeds 1 at the sampling instant
    OVERDRIVEN = ("distance_um = 100\nradius_um = 20\nvelocity_um_s = 10000\n"
                  "slot_s = 1\ndiffusion_um2_s = 1\nmax_molecules = 100\n")

    def test_resolution_errors_are_usage_errors(self, tmp_path, capsys):
        assert run(["fit-channel", "--out", tmp_path, "--sigma-n", -1]) == EXIT_USAGE
        assert "noise_std" in capsys.readouterr().err
        assert run(["fit-channel", "--out", tmp_path,
                    "--config", tmp_path / "absent.json"]) == EXIT_USAGE
        bad = tmp_path / "bad.json"
        bad.write_text('{"pairs": "many"}')
        assert run(["fit-channel", "--out", tmp_path, "--config", bad]) == EXIT_USAGE

    def test_zero_budget_is_usage_error(self, tmp_path, capsys):
        assert run(["fit-channel", "--out", tmp_path, "--n-m", 0]) == EXIT_USAGE
        assert "max_molecules" in capsys.readouterr().err

    # each count flag at 0 and just below its minimum, plus two negative values
    @pytest.mark.parametrize("command, flag, value", [
        *((command, name.replace("_", "-"), value) for command, rows in FLAGS.items()
          for name, kind, _, _ in rows if isinstance(kind, cli.Count)
          for value in sorted({0, kind.minimum - 1})),
        ("gen-data", "train-count", -3), ("sweep", "pairs", -1),
    ])
    def test_non_positive_count_is_usage_error(self, pipeline, tmp_path, capsys,
                                               command, flag, value):
        inputs = {
            "train": ["--data", pipeline / "data", "--surrogate", pipeline / "surr" / "surrogate.ckpt"],
            "eval": ["--data", pipeline / "data", "--model", pipeline / "model" / "semantic.ckpt"],
            "sweep": ["--data", pipeline / "data"],
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag.replace("-", "_"): value}))
        for source in ([f"--{flag}", value], ["--config", config]):
            out = tmp_path / source[0].lstrip("-")
            argv = [command, *source, "--out", out, *inputs.get(command, [])]
            assert run(argv) == EXIT_USAGE
            assert f"--{flag}" in capsys.readouterr().err
            assert list(out.iterdir()) == []     # rejected before any work or manifest

    @pytest.mark.parametrize("config", [{"n_m": 100.5}, {"symbols": 2.9},
                                        {"n_m": 100.5, "symbols": 2.9}, {"seed": 0.5}])
    def test_fractional_integer_in_config_is_usage_error(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(["sim-sir", "--config", path, "--out", out]) == EXIT_USAGE
        assert "whole number" in capsys.readouterr().err
        assert list(out.glob("*")) == []     # a bad seed fails before out is made

    def test_integral_floats_in_config_are_accepted(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_m": 100.0, "symbols": 2.0, "dt": 0.5}))
        assert run(["sim-sir", "--config", path, "--out", tmp_path]) == EXIT_OK
        params = load_manifest(tmp_path / "manifest.json")["params"]
        assert (params["n_m"], params["symbols"]) == (100, 2)
        assert len((tmp_path / "sir_scenario1.csv").read_text().splitlines()) == 1 + 2 * 8

    def test_fractional_integer_in_params_file_is_usage_error(self, tmp_path, capsys):
        scenario = tmp_path / "link.cfg"
        text = self.OVERDRIVEN.replace("max_molecules = 100", "max_molecules = 100.5")
        scenario.write_text(text)
        out = tmp_path / "out"
        assert run(["fit-channel", "--scenario", scenario, "--out", out]) == EXIT_USAGE
        assert "whole number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["sim-sir", "fit-channel", "eval"])
    def test_non_finite_noise_is_usage_error(self, pipeline, tmp_path, capsys, command, value):
        inputs = {"eval": ["--data", pipeline / "data",
                           "--model", pipeline / "model" / "semantic.ckpt"]}.get(command, [])
        out = tmp_path / "out"
        assert run([command, f"--sigma-n={value}", "--out", out, *inputs]) == EXIT_USAGE
        assert "noise_std must be finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_non_finite_value_in_params_file_is_usage_error(self, tmp_path, capsys):
        scenario = tmp_path / "link.cfg"
        scenario.write_text(self.OVERDRIVEN.replace("velocity_um_s = 10000", "velocity_um_s = nan"))
        out = tmp_path / "out"
        assert run(["sim-sir", "--scenario", scenario, "--out", out]) == EXIT_USAGE
        assert "velocity_um_s must be finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf", "-inf"])
    def test_non_positive_learning_rate_is_usage_error(self, pipeline, tmp_path, capsys, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lr": float(value)}))
        for name, source in (("flag", [f"--lr={value}"]), ("config", ["--config", config])):
            out = tmp_path / name
            assert run(["train", *source, "--out", out, "--data", pipeline / "data",
                        "--surrogate", pipeline / "surr" / "surrogate.ckpt"]) == EXIT_USAGE
            assert "--lr: must be a positive finite number" in capsys.readouterr().err
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit-channel", "sweep"])
    def test_link_with_more_memory_than_the_surrogate_context_is_usage_error(
            self, pipeline, tmp_path, capsys, command):
        # the surrogate's context holds one previous slot, so it cannot learn
        # a lag-2 link's ISI; the real channel, in eval and sim-sir, draws it
        link = scenario_file(tmp_path / "links" / "lag2.cfg")
        link.write_text(link.read_text().replace("memory = 1", "memory = 2"))
        inputs = {"sweep": ["--data", pipeline / "data", "--n-m-list", 20000]}.get(command, [])
        out = tmp_path / "out"
        assert run([command, "--scenario", link, "--out", out, *inputs]) == EXIT_USAGE
        assert "memory = 2" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert run(["sim-sir", "--scenario", link, "--out", tmp_path / "sir"]) == EXIT_OK
        assert run(["eval", "--scenario", link, "--out", tmp_path / "eval", "--trials", 1,
                    "--data", pipeline / "data",
                    "--model", pipeline / "model" / "semantic.ckpt"]) == EXIT_OK

    REQUIRED = {"train": ("data", "surrogate"), "eval": ("model", "data"), "sweep": ("data",)}

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in REQUIRED.items() for flag in flags])
    def test_missing_required_flag_is_usage_error(self, pipeline, tmp_path, capsys,
                                                  command, flag):
        artifacts = {"data": pipeline / "data", "surrogate": pipeline / "surr" / "surrogate.ckpt",
                     "model": pipeline / "model" / "semantic.ckpt"}
        others = {name: str(artifacts[name]) for name in self.REQUIRED[command] if name != flag}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**others, flag: None}))
        argv = [arg for name, value in others.items() for arg in (f"--{name}", value)]
        for source, given in (("argv", argv), ("config", ["--config", config])):
            out = tmp_path / source
            assert run([command, "--out", out, *given]) == EXIT_USAGE
            assert f"--{flag} is required" in capsys.readouterr().err
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("config", [{"symbol": 2, "train-count": 3}, {"train_count": 3}],
                             ids=["misspelt", "of-another-command"])
    def test_config_key_the_command_does_not_take_is_usage_error(self, tmp_path, capsys,
                                                                 config):
        # a misspelt key would otherwise leave its flag at the default unseen;
        # a manifest's params still replay leniently (test_manifest_with_retired_keys_replays)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(["sim-sir", "--config", path, "--out", out]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err and all(repr(key) in err for key in config)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_empty_test_set_is_usage_error(self, pipeline, tmp_path, capsys, monkeypatch,
                                           command):
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.ds").write_bytes((pipeline / "data" / "train.ds").read_bytes())
        save_dataset(data / "test.ds", Dataset(images=np.zeros((0, 256)),
                                               labels=np.zeros(0, dtype=int)))
        monkeypatch.setattr(baseline, "train_baseline_classifier", must_not_run)
        inputs = {"eval": ["--model", pipeline / "model" / "semantic.ckpt"],
                  "sweep": ["--n-m-list", 20000]}[command]
        out = tmp_path / "out"
        assert run([command, "--out", out, "--data", data, *inputs]) == EXIT_USAGE
        assert f"{data / 'test.ds'} holds no images" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_sweep_on_multichannel_images_is_usage_error(self, pipeline, tmp_path, capsys,
                                                         monkeypatch):
        # the baseline codes one grayscale channel; the semantic model takes any
        rng = np.random.default_rng(0)
        data = tmp_path / "data"
        data.mkdir()
        for name in ("train.ds", "test.ds"):
            save_dataset(data / name, Dataset(images=rng.random((40, 16 * 16 * 3)),
                                              labels=np.arange(40) % 4, channels=3))
        with monkeypatch.context() as patch:
            patch.setattr(baseline, "train_baseline_classifier", must_not_run)
            out = tmp_path / "out"
            assert run(["sweep", "--out", out, "--data", data, "--n-m-list", 20000]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"{data / 'train.ds'} holds 3-channel images" in err
            assert list(out.iterdir()) == []
        model = tmp_path / "model"
        assert run(["train", "--out", model, "--data", data, "--epochs", 1,
                    "--surrogate", pipeline / "surr" / "surrogate.ckpt"]) == EXIT_OK
        assert run(["eval", "--out", tmp_path / "eval", "--data", data, "--trials", 1,
                    "--model", model / "semantic.ckpt"]) == EXIT_OK

    def test_fractional_budget_in_list_is_usage_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["sweep", "--data", pipeline / "data", "--n-m-list", "20000,100.5",
                    "--out", out]) == EXIT_USAGE
        assert "--n-m-list" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_one_training_image_is_usage_error(self, pipeline, tmp_path, capsys, command):
        # training holds one image out to validate, which leaves none to train on
        data = tmp_path / "data"
        assert run(["gen-data", "--out", data, "--train-count", 1, "--test-count", 4]) == EXIT_OK
        out = tmp_path / "out"
        inputs = {"train": ["--surrogate", pipeline / "surr" / "surrogate.ckpt"],
                  "sweep": ["--n-m-list", 20000]}[command]
        assert run([command, "--out", out, "--data", data, *inputs]) == EXIT_USAGE
        assert "at least 2" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_mismatched_dataset_is_usage_error(self, pipeline, tmp_path, capsys):
        small = tmp_path / "small"
        small.mkdir()
        save_dataset(small / "test.ds", Dataset(images=np.zeros((8, 64)), labels=np.arange(8) % 4,
                                                height=8, width=8))
        out = tmp_path / "out"
        code = run(["eval", "--out", out, "--data", small,
                    "--model", pipeline / "model" / "semantic.ckpt"])
        assert code == EXIT_USAGE
        assert "(8, 8, 1)" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command, config", [
        ("gen-data", {"train_count": True}),
        ("sim-sir", {"dt": True}),
        ("fit-channel", {"export_pairs": "false", "pairs": 10, "epochs": 1}),
    ])
    def test_config_value_of_the_wrong_json_type_is_usage_error(self, tmp_path, capsys,
                                                                 command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run([command, "--config", path, "--out", out]) == EXIT_USAGE
        flag = "--" + next(iter(config)).replace("_", "-")
        assert flag in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("blob", [[1, 2], 3, "text", None, {"params": 4},
                                      {"params": [["train_count", 3]]}, {"params": "ab"}])
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys, blob):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(blob))
        assert run(["gen-data", "--config", path, "--out", tmp_path / "out"]) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_numeric_strings_and_json_booleans_in_config_are_accepted(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_m": "300", "dt": "0.5", "symbols": "2"}))
        assert run(["sim-sir", "--config", path, "--out", tmp_path / "sir"]) == EXIT_OK
        params = load_manifest(tmp_path / "sir" / "manifest.json")["params"]
        assert (params["n_m"], params["dt"], params["symbols"]) == (300, 0.5, 2)
        path.write_text(json.dumps({"export_pairs": False, "pairs": 10, "epochs": 1}))
        assert run(["fit-channel", "--config", path, "--out", tmp_path / "fit"]) == EXIT_OK
        assert not (tmp_path / "fit" / "pairs.csv").exists()

    @pytest.mark.parametrize("tags", [["leaky_relu", "leaky_relu"],
                                      ["leaky_relu", "leaky_relu", "softmax2"]])
    def test_checkpoint_with_a_bad_tag_list_is_usage_error(self, pipeline, tmp_path, capsys,
                                                           tags):
        role, nets, meta = load_checkpoint(pipeline / "model" / "semantic.ckpt")
        nets["decoder"].activations = tags
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, role, nets, meta)
        out = tmp_path / "out"
        assert run(["eval", "--out", out, "--data", pipeline / "data",
                    "--model", bad]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(bad) in err and "'decoder'" in err and "activation" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:len(CHECKPOINT_MAGIC) + 5],           # ends in the length field
        lambda blob: blob[:len(CHECKPOINT_MAGIC)] + struct.pack("<II", 1, 9) + b"{not json",
        lambda blob: blob + bytes(64),                           # bytes after the last array
    ], ids=["truncated-length-field", "header-not-json", "trailing-bytes"])
    def test_malformed_checkpoint_is_usage_error_naming_it(self, pipeline, tmp_path, capsys,
                                                          damage):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(damage((pipeline / "model" / "semantic.ckpt").read_bytes()))
        out = tmp_path / "out"
        assert run(["eval", "--out", out, "--data", pipeline / "data",
                    "--model", bad]) == EXIT_USAGE
        assert str(bad) in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:len(DATASET_MAGIC) + 11],             # ends in the 20-byte header
        lambda blob: blob + bytes(3),                            # bytes after the labels
    ], ids=["truncated-header", "trailing-bytes"])
    def test_malformed_dataset_is_usage_error_naming_it(self, pipeline, tmp_path, capsys,
                                                       command, damage):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("train.ds", "test.ds"):
            (data / name).write_bytes(damage((pipeline / "data" / name).read_bytes()))
        out = tmp_path / "out"
        inputs = {"train": ["--surrogate", pipeline / "surr" / "surrogate.ckpt"],
                  "eval": ["--model", pipeline / "model" / "semantic.ckpt"],
                  "sweep": ["--n-m-list", 20000]}[command]
        assert run([command, "--out", out, "--data", data, *inputs]) == EXIT_USAGE
        assert str(data) in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_sweep_with_fewer_training_classes_is_usage_error(self, tmp_path, capsys,
                                                             monkeypatch):
        data = tmp_path / "data"
        assert run(["gen-data", "--out", data, "--train-count", 3, "--test-count", 8]) == EXIT_OK
        monkeypatch.setattr(surrogate, "fit_channel", must_not_run)
        out = tmp_path / "out"
        assert run(["sweep", "--out", out, "--data", data, "--n-m-list", 20000,
                    "--pairs", 100, "--epochs", 1, "--trials", 1]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(data / "train.ds") in err and "3 classes" in err
        assert list(out.iterdir()) == []

    def test_model_with_fewer_classes_than_the_test_set_is_usage_error(self, pipeline,
                                                                      tmp_path, capsys):
        model = ref.unstandardized_model(np.random.default_rng(0), num_classes=3)
        model.save(tmp_path / "three.ckpt")
        out = tmp_path / "out"
        assert run(["eval", "--out", out, "--data", pipeline / "data",
                    "--model", tmp_path / "three.ckpt"]) == EXIT_USAGE
        assert "4 classes" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_invalid_approximation_mid_run_is_runtime_failure(self, tmp_path, capsys):
        link = tmp_path / "link.txt"
        link.write_text(self.OVERDRIVEN)
        code = run(["fit-channel", "--out", tmp_path / "fit", "--scenario", link,
                    "--pairs", 10, "--epochs", 1])
        assert code == EXIT_RUNTIME
        assert "capture probability" in capsys.readouterr().err

    def test_disk_error_mid_run_is_runtime_failure(self, tmp_path):
        (tmp_path / "train.ds").mkdir()     # the output path is taken by a directory
        assert run(["gen-data", "--out", tmp_path,
                    "--train-count", 8, "--test-count", 4]) == EXIT_RUNTIME

    @pytest.mark.parametrize("command, module, target, good_calls, csv", [
        # 360 training pairs in batches of 256, then one validation call
        ("fit-channel", surrogate, "mdn_nll", 3, "nll_history.csv"),
        # 360 training images in batches of 64, then one validation call
        ("train", transceiver, "transmit_train", 7, "train_history.csv"),
    ])
    def test_diverged_training_leaves_history(self, pipeline, tmp_path, monkeypatch, capsys,
                                              command, module, target, good_calls, csv):
        original = getattr(module, target)
        calls = []

        def poisoned(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append(target)
            return out if len(calls) <= good_calls else Tensor(np.full_like(out.data, np.nan))

        monkeypatch.setattr(module, target, poisoned)
        args = {"fit-channel": ["--pairs", 400],
                "train": ["--data", pipeline / "data",
                          "--surrogate", pipeline / "surr" / "surrogate.ckpt"]}[command]
        out = tmp_path / "out"
        assert run([command, "--out", out, "--epochs", 5, *args]) == EXIT_RUNTIME
        assert "training failed" in capsys.readouterr().err
        rows = (out / csv).read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0,")     # the one complete epoch
        assert not (out / "manifest.json").exists()

    def test_baseline_runtime_error_is_runtime_failure(self, pipeline, tmp_path,
                                                       monkeypatch, capsys):
        def diverged(*args, **kwargs):
            raise RuntimeError("baseline classifier training diverged")

        monkeypatch.setattr(baseline, "train_baseline_classifier", diverged)
        code = run(["sweep", "--out", tmp_path, "--data", pipeline / "data",
                    "--n-m-list", "20000", "--trials", 1])
        assert code == EXIT_RUNTIME
        assert "diverged" in capsys.readouterr().err


class TestOutputBytes:
    # outputs whose bytes involve no BLAS product and no SIMD exp, so they
    # are the same on every CPU; checkpoints, histories and metrics are not
    SHA256 = {
        "data/train.ds": "92ccbc37e409df6ebb54bc6cea26398786b6adeb4b6f6760e4c7e8936f7b09ee",
        "data/test.ds": "87b91bce43e514b077d997a78fba9813b65310b36b1003556c1eece07a7f586f",
        "sir/sir_scenario1.csv":
            "e43d2022942014c9f110456528cf7f6c80b8ae89e1f01b3985925e6e167e9e4e",
        "sir/sir_scenario2.csv":
            "f69f04735683a6c07b022da41ba0af71da5cd7667d131a2610ba41aea39b311b",
        "fit/pairs.csv": "3098129d8daaf1b4ed1c30f3a75ec8a34421122b74455ca92a40267bac7c0848",
    }

    # the manifests, with the output root written as <tmp>
    MANIFEST_SHA256 = {
        "data/manifest.json": "84422f417177339cc97cf621b34b08dbd365d69acba809f096e757efd1cf939d",
        "sir/manifest.json": "85ca7dbef9aaabc71073fee2a5f43b26fddd2ee712f4259792eb07afa88822dc",
        "fit/manifest.json": "411c120692b834f860012bfee39132767c025e198b73f48aae4b008f4a2ae848",
    }

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bytes")
        assert run(["gen-data", "--seed", 3, "--out", root / "data",
                    "--train-count", 600, "--test-count", 200]) == EXIT_OK
        assert run(["sim-sir", "--seed", 3, "--out", root / "sir"]) == EXIT_OK
        assert run(["fit-channel", "--seed", 3, "--out", root / "fit", "--n-m", 1000,
                    "--pairs", 3000, "--epochs", 1, "--export-pairs"]) == EXIT_OK
        return root

    def test_fixed_seed_outputs_keep_their_sha256(self, root):
        assert {name: sha256_file(root / name) for name in self.SHA256} == self.SHA256

    def test_manifests_keep_their_bytes(self, root):
        # pins the run record; a deliberate change to the manifest updates these
        digests = {name: hashlib.sha256((root / name).read_bytes().replace(
            str(root).encode(), b"<tmp>")).hexdigest() for name in self.MANIFEST_SHA256}
        assert digests == self.MANIFEST_SHA256


class TestModuleEntry:
    def test_python_dash_m_runs_from_a_checkout(self):
        # no install: the package is found through PYTHONPATH alone
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "mclink", "--version"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith("mclink ")
