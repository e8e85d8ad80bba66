"""CLI pipeline: artifacts, exit codes, manifests, reproducibility."""

import json

import numpy as np
import pytest

from mclink import baseline, channel, cli, surrogate, transceiver
from mclink.cli import EXIT_OK, EXIT_RUNTIME, EXIT_TOLERANCE, EXIT_USAGE, FLAGS, main
from mclink.dataset import load_dataset, make_dataset, save_dataset
from mclink.nn import Tensor, load_checkpoint
from mclink.runio import load_manifest

FAST_PHYSICS = ["--particles", "20000", "--times", "1.0,1.2585"]


def run(argv):
    return main([str(a) for a in argv])


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
        # the CSV is still written for inspection
        assert (tmp_path / "capture_scenario1.csv").exists()

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

    def test_manifest_echoes_all_params(self, pipeline, tmp_path):
        manifest = load_manifest(pipeline / "model" / "manifest.json")
        assert manifest["command"] == "train"
        assert manifest["seed"] == 1
        assert manifest["inputs"]           # dataset + surrogate hashes recorded
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
            runs[command] = tmp_path / command
            assert run([command, "--out", runs[command], *argv]) == EXIT_OK
        for command, out in runs.items():
            params = load_manifest(out / "manifest.json")["params"]
            assert set(params) == {row[0] for row in FLAGS[command]} | {"out"}, command

    def test_help_shows_defaults(self, capsys):
        for command, rows in FLAGS.items():
            name, _, default, _ = next(row for row in rows if row[2] is not None)
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            flag = "--" + name.replace("_", "-")
            assert f"(default {default})" in text.split(f" {flag} ", 1)[1].split(" --", 1)[0]


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
        assert run(["sweep", "--seed", 11, "--out", out, "--data", pipeline / "data",
                    "--n-m-list", "20000,300", "--pairs", 400, "--epochs", 1,
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
        save_dataset(small / "test.ds", make_dataset(np.random.default_rng(0), 8, size=8))
        out = tmp_path / "out"
        code = run(["eval", "--out", out, "--data", small,
                    "--model", pipeline / "model" / "semantic.ckpt"])
        assert code == EXIT_USAGE
        assert "(8, 8, 1)" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

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

    def test_baseline_runtime_error_is_runtime_failure(self, pipeline, tmp_path,
                                                       monkeypatch, capsys):
        def diverged(*args, **kwargs):
            raise RuntimeError("baseline classifier training diverged")

        monkeypatch.setattr(baseline, "train_baseline_classifier", diverged)
        code = run(["sweep", "--out", tmp_path, "--data", pipeline / "data",
                    "--n-m-list", "20000", "--trials", 1])
        assert code == EXIT_RUNTIME
        assert "diverged" in capsys.readouterr().err
