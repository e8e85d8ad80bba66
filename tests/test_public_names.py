"""Every public function and class of ``mclink`` is reached by the program,
and every default of a public function or method is overridden by it.

A name that only the tests call is code the package ships without running.
Here a module-level ``def`` or ``class`` without a leading underscore
counts as reached when some code under ``src/mclink`` or ``bench/`` refers
to it: by its bare name inside its own module, as ``module.name``, through
``from .module import name``, or (in ``bench/``, which rebinds package
functions by name) as a string. Docstrings and comments do not count. A
module-level ``def`` or ``class`` with a leading underscore is the
package's own, so code under ``src/mclink`` must refer to it.

Likewise a parameter with a default that no caller passes is a setting
only the tests turn. A call passes a parameter by keyword, by position
(``self`` and ``cls`` not counted), or through ``*args`` or ``**kwargs``.
``module.name(...)`` calls that module's function or class (its
``__init__``), a bare ``name(...)`` under ``src/`` one of the package's,
and any other ``obj.name(...)`` every method of that name. A function the
code uses other than by a direct call, such as ``observe =
channel.observe_slot``, counts as passing all its parameters.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "mclink").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
MODULES = {path.stem for path in SRC}

# (module, name): why it stays although nothing reaches it yet
UNREACHED_BY_DESIGN = {
    ("channel", "normalized_slot_moments"):
        "the per-slot moments the ceiling's clamp-aware ML decoder scores (ROADMAP direction 1)",
    ("surrogate", "single_gaussian_nll"):
        "the held-out baseline a per-budget diagnostics file will report (ROADMAP direction 3)",
}

# (module, function, parameter): why it keeps a default no caller passes
DEFAULTS_KEPT = {
    ("transceiver", "train_end_to_end", "model"):
        "the warm start the budget curriculum trains each lower budget from (ROADMAP direction 2)",
}


def definitions(private=False):
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private):
                yield path.stem, node.name


def references(paths=SRC + BENCH):
    found, strings = set(), set()
    for path in paths:
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
    unreached = [key for key in definitions()
                 if key not in found and key[1] not in strings]
    assert sorted(set(unreached) - set(UNREACHED_BY_DESIGN)) == []


def test_every_private_definition_is_used_by_the_package():
    found, _ = references(SRC)
    assert sorted(set(definitions(private=True)) - found) == []


def test_every_exception_is_still_defined_and_unreached():
    # an exception that gained a caller, or lost its definition, leaves the list
    found, strings = references()
    for module, name in UNREACHED_BY_DESIGN:
        assert (module, name) in set(definitions())
        assert (module, name) not in found and name not in strings


def _defaults(key, fn, bound):
    """(key, parameter, position) of each defaulted parameter of ``fn``; the
    position skips ``bound`` leading parameters and is None for keyword-only ones."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield key, arg.arg, i - bound
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield key, arg.arg, None


def defaulted_parameters():
    """Keys are (module, name) for a function or a class (its ``__init__``)
    and (None, name) for a method, which any object may carry."""
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield from _defaults((path.stem, node.name), node, 0)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    if item.name == "__init__":
                        yield from _defaults((path.stem, node.name), item, 1)
                    elif not item.name.startswith("_"):
                        yield from _defaults((None, item.name), item, 0 if static else 1)


def called_key(func, own):
    """What a callee expression names: a bare name in ``src/`` is a function of
    the package (own module or imported), ``module.name`` one of that module,
    and any other ``obj.name`` a method."""
    if isinstance(func, ast.Name):
        return ("*", func.id) if own else None
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id in MODULES:
            return func.value.id, func.attr
        return None, func.attr
    return None


def calls_and_other_uses():
    """Calls by the key they call, and the keys used other than as a callee."""
    calls, other = {}, set()
    for path in SRC + BENCH:
        own = path in SRC
        tree = ast.parse(path.read_text())
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(called_key(node.func, own), []).append(node)
            elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees:
                other.add(called_key(node, own))
    return calls, other


def passes(call, parameter, position):
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_defaults():
    calls, other = calls_and_other_uses()
    unpassed = set()
    for (module, name), parameter, position in defaulted_parameters():
        keys = [(module, name), ("*", name)] if module else [(None, name)]
        used = [call for key in keys for call in calls.get(key, ())]
        if not any(key in other for key in keys) and not any(
                passes(call, parameter, position) for call in used):
            unpassed.add((module or "method", name, parameter))
    return unpassed


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    assert sorted(unpassed_defaults() - set(DEFAULTS_KEPT)) == []


def test_every_kept_default_is_still_unpassed():
    # a kept default that gained a caller, or lost its parameter, leaves the list
    assert set(DEFAULTS_KEPT) <= unpassed_defaults()
