"""Operator entry point for the molecular link lab.

Stages communicate through files: scenario configs, dataset containers,
role-tagged checkpoints, and CSV metrics. Every command resolves all of
its parameters (defaults included), derives its randomness from one
explicit seed, and echoes everything into ``<out>/manifest.json``; passing
that manifest back via ``--config`` reproduces the run byte for byte with
BLAS on one thread (the default).

Exit codes: 0 success, 1 runtime failure, 2 usage/config error,
3 acceptance-tolerance breach.
"""

from __future__ import annotations

import os

# BLAS threading is pinned before numpy loads so CLI runs are repeatable;
# raise MCLINK_BLAS_THREADS explicitly to trade determinism for speed.
os.environ.setdefault("OPENBLAS_NUM_THREADS", os.environ.get("MCLINK_BLAS_THREADS", "1"))
os.environ.setdefault("OMP_NUM_THREADS", os.environ.get("MCLINK_BLAS_THREADS", "1"))

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, baseline, channel, dataset, nn, particle, runio, surrogate, transceiver

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_TOLERANCE = 3

PHYSICS_REL_TOL = 0.15
PHYSICS_VALIDITY_FLOOR = 1e-3


class UsageError(ValueError):
    """Bad flags, unknown scenarios, or mismatched artifacts."""


@contextmanager
def _resolving():
    """Scope in which flags, config and input artifacts are resolved.

    A value, lookup or file error raised here is the caller's to fix, so
    it becomes a UsageError; the same errors after it are runtime failures.
    """
    try:
        yield
    except UsageError:
        raise
    except (ValueError, KeyError, OSError) as err:
        raise UsageError(str(err)) from err


def _resolve(args, key, fallback):
    """Explicit flag > --config value > built-in default."""
    attr = key.replace("-", "_")
    value = getattr(args, attr, None)
    if value is not None:
        return value
    for spelling in (attr, key):
        if args._config_params and spelling in args._config_params:
            return args._config_params[spelling]
    return fallback


def _load_config(args) -> None:
    """Config values from a plain JSON object or a prior run's manifest.

    A manifest keeps the seed beside its params; it is merged back in so
    that the replay draws the same randomness (an explicit --seed still wins).
    """
    args._config_params = {}
    if getattr(args, "config", None):
        blob = json.loads(Path(args.config).read_text())
        params = dict(blob.get("params", blob))
        if "params" in blob and "seed" in blob:
            params.setdefault("seed", blob["seed"])
        args._config_params = params


def _require_positive(params: dict, *keys: str) -> None:
    """Reject a count flag below 1 before any work starts."""
    for key in keys:
        if params[key] < 1:
            flag = key.replace("_", "-")
            raise UsageError(f"--{flag} must be at least 1, got {params[key]}")


def _write_history(path: Path, history: dict) -> None:
    """One row per complete epoch, one column per per-epoch list of ``history``."""
    keys = [key for key, values in history.items() if isinstance(values, list)]
    rows = [(i, *row) for i, row in enumerate(zip(*(history[key] for key in keys)))]
    runio.write_csv(path, ["epoch", *keys], rows)


def _out_dir(args) -> Path:
    out = Path(_resolve(args, "out", "runs"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _channel_params(args, params: dict) -> channel.ChannelParams:
    p = channel.load_params(params["scenario"])
    if params.get("n_m") is not None:
        p = channel.with_overrides(p, max_molecules=int(params["n_m"]))
    if params.get("sigma_n") is not None:
        p = channel.with_overrides(p, noise_std=float(params["sigma_n"]))
    return p


def cmd_validate_physics(args) -> int:
    with _resolving():
        params = {
            "scenario": _resolve(args, "scenario", "scenario1"),
            "particles": int(_resolve(args, "particles", 100_000)),
            "times": _resolve(args, "times", None),
            "out": str(_out_dir(args)),
        }
        seed = int(_resolve(args, "seed", 0))
        p = _channel_params(args, params)
        cfg = particle.default_sim_config(params["scenario"], n_particles=params["particles"],
                                          seed=seed)
        if params["times"] is not None:
            times = tuple(float(t) for t in str(params["times"]).split(","))
            cfg = replace(cfg, record_times=times)

    curve = particle.empirical_capture_curve(cfg, p)
    out = Path(params["out"])
    csv_path = out / f"capture_{params['scenario']}.csv"
    particle.write_capture_csv(csv_path, curve, cfg, p)

    breaches = [(t, rel) for t, emp, analytic, rel in curve
                if analytic >= PHYSICS_VALIDITY_FLOOR and rel > PHYSICS_REL_TOL]
    checked = sum(1 for _, _, analytic, _ in curve if analytic >= PHYSICS_VALIDITY_FLOOR)
    runio.write_manifest(out, "validate-physics", params, seed,
                         outputs=[csv_path.name, csv_path.name + ".meta.json"])
    for t, emp, analytic, rel in curve:
        gate = "checked" if analytic >= PHYSICS_VALIDITY_FLOOR else "below validity floor"
        print(f"t={t:g}s empirical={emp:.6g} analytic={analytic:.6g} rel_err={rel:.3f} ({gate})")
    if breaches:
        print(f"FAIL: {len(breaches)}/{checked} probe(s) exceed {PHYSICS_REL_TOL:.0%} "
              f"relative error: {['%.4gs' % t for t, _ in breaches]}")
        return EXIT_TOLERANCE
    print(f"PASS: {checked} probe(s) within {PHYSICS_REL_TOL:.0%}")
    return EXIT_OK


def cmd_sim_sir(args) -> int:
    with _resolving():
        params = {
            "scenario": _resolve(args, "scenario", "both"),
            "dt": float(_resolve(args, "dt", 0.01)),
            "symbols": int(_resolve(args, "symbols", 5)),
            "sigma_n": _resolve(args, "sigma_n", None),
            "n_m": _resolve(args, "n_m", None),
            "out": str(_out_dir(args)),
        }
        seed = int(_resolve(args, "seed", 0))
        _require_positive(params, "symbols")
        names = channel.scenario_names() if params["scenario"] == "both" else (params["scenario"],)
        links = [(name, _channel_params(args, {**params, "scenario": name})) for name in names]
        for _, p in links:
            if not 0 < params["dt"] < p.slot_s:
                raise UsageError(f"dt must lie in (0, slot_s={p.slot_s}); got {params['dt']}")
    out = Path(params["out"])
    outputs = []
    for name, p in links:
        trace = channel.sir_trace(p, [1.0] * params["symbols"], params["dt"])
        path = out / f"sir_{name}.csv"
        channel.write_sir_csv(path, trace)
        outputs.append(path.name)
        peak = trace[:, 1][np.isfinite(trace[:, 1])].max()
        print(f"{name}: {len(trace)} samples, peak SIR {peak:.2f}")
    runio.write_manifest(out, "sim-sir", params, seed, outputs=outputs)
    return EXIT_OK


def cmd_gen_data(args) -> int:
    with _resolving():
        params = {
            "train_count": int(_resolve(args, "train_count", 4000)),
            "test_count": int(_resolve(args, "test_count", 1000)),
            "out": str(_out_dir(args)),
        }
        seed = int(_resolve(args, "seed", 0))
        _require_positive(params, "train_count", "test_count")
    out = Path(params["out"])
    train = dataset.make_dataset(runio.derive_rng(seed, "dataset", "train"), params["train_count"])
    test = dataset.make_dataset(runio.derive_rng(seed, "dataset", "test"), params["test_count"])
    dataset.save_dataset(out / "train.ds", train)
    dataset.save_dataset(out / "test.ds", test)
    runio.write_manifest(out, "gen-data", params, seed, outputs=["train.ds", "test.ds"])
    print(f"wrote {len(train)} train / {len(test)} test samples to {out}")
    return EXIT_OK


def cmd_fit_channel(args) -> int:
    with _resolving():
        params = {
            "scenario": _resolve(args, "scenario", "scenario1"),
            "n_m": _resolve(args, "n_m", None),
            "sigma_n": _resolve(args, "sigma_n", None),
            "pairs": int(_resolve(args, "pairs", 50_000)),
            "epochs": int(_resolve(args, "epochs", 150)),
            "export_pairs": bool(_resolve(args, "export_pairs", False)),
            "out": str(_out_dir(args)),
        }
        seed = int(_resolve(args, "seed", 0))
        _require_positive(params, "pairs", "epochs")
        p = _channel_params(args, params)
        cfg = replace(surrogate.FIT_CONFIG, n_pairs=params["pairs"], epochs=params["epochs"])
    out = Path(params["out"])
    rng = runio.derive_rng(seed, "fit-channel")
    pairs = surrogate.generate_pairs(rng, p, cfg.n_pairs)
    try:
        surr, history = surrogate.fit_channel(rng, p, cfg, pairs=pairs)
    except nn.TrainingDivergedError as err:
        _write_history(out / "nll_history.csv", err.history)
        raise
    _write_history(out / "nll_history.csv", history)
    surr.channel = {"scenario": params["scenario"], "params": asdict(p)}
    ckpt = out / "surrogate.ckpt"
    surr.save(ckpt)
    outputs = [ckpt.name, "nll_history.csv"]
    if params["export_pairs"]:
        surrogate.write_pairs_csv(out / "pairs.csv", pairs)
        outputs.append("pairs.csv")
    runio.write_manifest(out, "fit-channel", params, seed, outputs=outputs)
    print(f"fitted channel surrogate in {len(history['val_nll'])} epochs "
          f"(stop: {history['stop']}), best validation NLL {min(history['val_nll']):.4f} "
          f"-> {ckpt}")
    return EXIT_OK


def cmd_train(args) -> int:
    with _resolving():
        params = {
            "data": _resolve(args, "data", None),
            "surrogate": _resolve(args, "surrogate", None),
            "epochs": int(_resolve(args, "epochs", 40)),
            "batch": int(_resolve(args, "batch", 64)),
            "lr": float(_resolve(args, "lr", 2e-2)),
            "out": str(_out_dir(args)),
        }
        seed = int(_resolve(args, "seed", 0))
        _require_positive(params, "epochs", "batch")
        if not params["data"] or not params["surrogate"]:
            raise UsageError("train requires --data <dir from gen-data> and --surrogate <ckpt>")
        train_path = Path(params["data"]) / "train.ds"
        if not train_path.exists():
            raise UsageError(f"missing dataset: {train_path}")
        surr = surrogate.ChannelSurrogate.load(params["surrogate"])
        train_set = dataset.load_dataset(train_path)
        cfg = replace(transceiver.TRAIN_CONFIG, epochs=params["epochs"],
                      batch_size=params["batch"], lr=params["lr"])
    out = Path(params["out"])
    try:
        model, history = transceiver.train_end_to_end(
            runio.derive_rng(seed, "train"), train_set, surr, cfg)
    except nn.TrainingDivergedError as err:
        _write_history(out / "train_history.csv", err.history)
        raise
    _write_history(out / "train_history.csv", history)
    ckpt = out / "semantic.ckpt"
    model.save(ckpt)
    inputs = {str(train_path): runio.sha256_file(train_path),
              str(params["surrogate"]): runio.sha256_file(params["surrogate"])}
    runio.write_manifest(out, "train", params, seed, inputs=inputs,
                         outputs=[ckpt.name, "train_history.csv"])
    kept = history["val_loss"].index(min(history["val_loss"]))
    print(f"trained semantic model: {len(history['val_loss'])} epochs "
          f"(stop: {history['stop']}), kept epoch {kept} with val acc "
          f"{history['val_acc'][kept]:.3f} -> {ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    with _resolving():
        params = {
            "model": _resolve(args, "model", None),
            "data": _resolve(args, "data", None),
            "scenario": _resolve(args, "scenario", "scenario1"),
            "n_m": _resolve(args, "n_m", None),
            "sigma_n": _resolve(args, "sigma_n", None),
            "trials": int(_resolve(args, "trials", 3)),
            "out": str(_out_dir(args)),
        }
        seed = int(_resolve(args, "seed", 0))
        _require_positive(params, "trials")
        if not params["model"] or not params["data"]:
            raise UsageError("eval requires --model <semantic ckpt> and --data <dir>")
        test_path = Path(params["data"]) / "test.ds"
        if not test_path.exists():
            raise UsageError(f"missing dataset: {test_path}")
        model = transceiver.SemanticModel.load(params["model"])
        p = _channel_params(args, params)
        test_set = dataset.load_dataset(test_path)
        shape = (test_set.height, test_set.width, test_set.channels)
        if shape != model.image_shape:
            raise UsageError(f"{test_path} holds {shape} images; the model expects "
                             f"{model.image_shape}")
    acc, lo, hi = transceiver.evaluate_accuracy(
        runio.derive_rng(seed, "eval"), model, p, test_set, n_trials=params["trials"])
    out = Path(params["out"])
    runio.write_csv(out / "metrics.csv",
                    ["n_m", "method", "accuracy", "ci_low", "ci_high"],
                    [(p.max_molecules, "semantic", acc, lo, hi)])
    inputs = {str(test_path): runio.sha256_file(test_path),
              str(params["model"]): runio.sha256_file(params["model"])}
    runio.write_manifest(out, "eval", params, seed, inputs=inputs, outputs=["metrics.csv"])
    print(f"semantic accuracy at n_m={p.max_molecules}: {acc:.3f} [{lo:.3f}, {hi:.3f}]")
    return EXIT_OK


def cmd_sweep(args) -> int:
    with _resolving():
        params = {
            "data": _resolve(args, "data", None),
            "scenario": _resolve(args, "scenario", "scenario1"),
            "n_m_list": _resolve(args, "n_m_list", "100,300,600,1000,1500,2000,4000,20000"),
            "sigma_n": _resolve(args, "sigma_n", None),
            "pairs": int(_resolve(args, "pairs", 12_000)),
            "epochs": int(_resolve(args, "epochs", 25)),
            "trials": int(_resolve(args, "trials", 3)),
            "out": str(_out_dir(args)),
        }
        seed = int(_resolve(args, "seed", 0))
        _require_positive(params, "pairs", "epochs", "trials")
        if not params["data"]:
            raise UsageError("sweep requires --data <dir from gen-data>")
        data_dir = Path(params["data"])
        train_path, test_path = data_dir / "train.ds", data_dir / "test.ds"
        for path in (train_path, test_path):
            if not path.exists():
                raise UsageError(f"missing dataset: {path}")
        train_set = dataset.load_dataset(train_path)
        test_set = dataset.load_dataset(test_path)
        budgets = [int(float(x)) for x in str(params["n_m_list"]).split(",")]
        links = [(n_m, _channel_params(args, {**params, "n_m": n_m})) for n_m in budgets]

    codec = baseline.CodecConfig()
    classifier = baseline.train_baseline_classifier(
        runio.derive_rng(seed, "baseline", "classifier"), codec, train_set)

    rows = []
    out = Path(params["out"])
    for n_m, p in links:
        fit_rng = runio.derive_rng(seed, "sweep", n_m, "fit")
        surr, _ = surrogate.fit_channel(
            fit_rng, p, replace(surrogate.FIT_CONFIG, n_pairs=params["pairs"]))
        model, _ = transceiver.train_end_to_end(
            runio.derive_rng(seed, "sweep", n_m, "train"), train_set, surr,
            replace(transceiver.TRAIN_CONFIG, epochs=params["epochs"]))
        acc, lo, hi = transceiver.evaluate_accuracy(
            runio.derive_rng(seed, "sweep", n_m, "eval"), model, p, test_set,
            n_trials=params["trials"])
        rows.append((n_m, "semantic", acc, lo, hi))
        bacc, blo, bhi = baseline.baseline_evaluate(
            runio.derive_rng(seed, "sweep", n_m, "baseline"), codec, p, test_set,
            classifier, n_trials=params["trials"])
        rows.append((n_m, "baseline", bacc, blo, bhi))
        print(f"n_m={n_m}: semantic {acc:.3f} [{lo:.3f},{hi:.3f}]  "
              f"baseline {bacc:.3f} [{blo:.3f},{bhi:.3f}]")
    runio.write_csv(out / "sweep.csv",
                    ["n_m", "method", "accuracy", "ci_low", "ci_high"], rows)
    inputs = {str(train_path): runio.sha256_file(train_path),
              str(test_path): runio.sha256_file(test_path)}
    runio.write_manifest(out, "sweep", params, seed, inputs=inputs, outputs=["sweep.csv"])
    return EXIT_OK


COMMANDS = {
    "validate-physics": cmd_validate_physics,
    "sim-sir": cmd_sim_sir,
    "gen-data": cmd_gen_data,
    "fit-channel": cmd_fit_channel,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mclink",
        description="Molecular communication link lab: physics validation, "
                    "channel surrogate fitting, semantic transceiver training, "
                    "and accuracy sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"mclink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, help="master seed (default 0)")
        sp.add_argument("--out", help="output directory (default ./runs)")
        sp.add_argument("--config", help="JSON file or prior manifest supplying parameters")

    sp = sub.add_parser("validate-physics", help="particle oracle vs capture formula")
    common(sp)
    sp.add_argument("--scenario", help="scenario1 | scenario2 | path to key=value file")
    sp.add_argument("--particles", type=int)
    sp.add_argument("--times", help="comma-separated probe times (s)")

    sp = sub.add_parser("sim-sir", help="deterministic SIR traces for an all-ones frame")
    common(sp)
    sp.add_argument("--scenario", help="scenario name, config path, or 'both'")
    sp.add_argument("--dt", type=float)
    sp.add_argument("--symbols", type=int)
    sp.add_argument("--sigma-n", type=float)
    sp.add_argument("--n-m", type=int)

    sp = sub.add_parser("gen-data", help="generate the toy shape dataset")
    common(sp)
    sp.add_argument("--train-count", type=int)
    sp.add_argument("--test-count", type=int)

    sp = sub.add_parser("fit-channel", help="fit the Gaussian-mixture channel surrogate")
    common(sp)
    sp.add_argument("--scenario")
    sp.add_argument("--n-m", type=int)
    sp.add_argument("--sigma-n", type=float)
    sp.add_argument("--pairs", type=int)
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--export-pairs", action="store_const", const=True)

    sp = sub.add_parser("train", help="train the semantic transceiver through a frozen surrogate")
    common(sp)
    sp.add_argument("--data", help="directory holding train.ds")
    sp.add_argument("--surrogate", help="channel surrogate checkpoint")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch", type=int)
    sp.add_argument("--lr", type=float)

    sp = sub.add_parser("eval", help="evaluate a semantic model through the real channel")
    common(sp)
    sp.add_argument("--model", help="semantic model checkpoint")
    sp.add_argument("--data", help="directory holding test.ds")
    sp.add_argument("--scenario")
    sp.add_argument("--n-m", type=int)
    sp.add_argument("--sigma-n", type=float)
    sp.add_argument("--trials", type=int)

    sp = sub.add_parser("sweep", help="accuracy vs molecule budget for both methods")
    common(sp)
    sp.add_argument("--data")
    sp.add_argument("--scenario")
    sp.add_argument("--n-m-list", help="comma-separated molecule budgets")
    sp.add_argument("--sigma-n", type=float)
    sp.add_argument("--pairs", type=int)
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--trials", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _resolving():
            _load_config(args)
        return COMMANDS[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except nn.TrainingDivergedError as err:
        print(f"training failed: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except (RuntimeError, ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
