"""Run bookkeeping: seed derivation, deterministic CSV and JSON output, manifests.

Every stage of the pipeline draws its randomness from one explicit
top-level seed. Purpose-specific streams are derived by hashing string
labels (SHA-256, first 8 bytes, little-endian) into extra SeedSequence
entropy words:

    rng = derive_rng(seed, "fit-channel")    # pair generation and the fit
    rng = derive_rng(seed, "eval")           # one evaluation

An evaluation then draws one seed per noise trial from its stream, up
front, and each trial runs on ``default_rng`` of its own seed (see
:func:`mclink.transceiver.trial_accuracy`).

The derivation is stable across platforms and Python hash randomization,
so a manifest (seed + resolved parameters + input hashes) reconstructs a
run exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def _label_word(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed_sequence(seed: int, *labels) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed)] + [_label_word(x) for x in labels])


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Generator for the purpose named by ``labels`` under one master seed."""
    return np.random.default_rng(derive_seed_sequence(seed, *labels))


def fmt_cell(value) -> str:
    """Deterministic CSV cell: shortest round-trip repr for floats."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    """Write rows with '\\n' newlines and repr-formatted floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_cell(v) for v in row) + "\n")


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON: indent 2, sorted keys, '\\n' newlines, one at the end."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(out_dir, command: str, params: dict, seed: int, inputs: dict,
                   outputs: list) -> Path:
    """Echo every resolved parameter so a run is reconstructible.

    ``inputs`` maps input artifact paths to their content hashes; outputs
    are the file names produced in ``out_dir``.
    """
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "params": params,
        "seed": int(seed),
        "inputs": inputs,
        "outputs": outputs,
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path


def load_manifest(path) -> dict:
    """Parse a JSON file: a run's manifest, or a ``--config`` of parameters."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
