"""Every public function and class of ``mclink`` is reached by the program.

A name that only the tests call is code the package ships without running.
Here a module-level ``def`` or ``class`` without a leading underscore
counts as reached when some code under ``src/mclink`` or ``bench/`` refers
to it: by its bare name inside its own module, as ``module.name``, through
``from .module import name``, or (in ``bench/``, which rebinds package
functions by name) as a string. Docstrings and comments do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "mclink").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# (module, name): why it stays although nothing reaches it yet
UNREACHED_BY_DESIGN = {
    ("channel", "normalized_slot_moments"):
        "the per-slot moments a clamp-aware ML decoder will score (ROADMAP direction 2)",
    ("surrogate", "single_gaussian_nll"):
        "the held-out baseline a per-budget diagnostics file will report (ROADMAP direction 2)",
}


def public_definitions():
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


def references():
    found, strings = set(), set()
    for path in SRC + BENCH:
        own = path.stem if path in SRC else None
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and own:
                found.add((own, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                found.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                found.update((node.module.split(".")[-1], alias.name) for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and not own:
                strings.add(node.value)
    return found, strings


def test_every_public_name_is_reached_outside_the_tests():
    found, strings = references()
    unreached = [key for key in public_definitions()
                 if key not in found and key[1] not in strings]
    assert sorted(set(unreached) - set(UNREACHED_BY_DESIGN)) == []


def test_every_exception_is_still_defined_and_unreached():
    # an exception that gained a caller, or lost its definition, leaves the list
    found, strings = references()
    for module, name in UNREACHED_BY_DESIGN:
        assert (module, name) in set(public_definitions())
        assert (module, name) not in found and name not in strings
