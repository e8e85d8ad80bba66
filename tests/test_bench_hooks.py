"""The benchmark's instrumentation finds every name it rebinds in the package.

``bench/timers.py`` wraps package functions by name: the layer spans of
``LAYER_SPANS``, the stage hooks of ``Stages.install`` and the counters of
``Tracer.install``. A rename or removal in ``mclink`` would otherwise show
only when a traced benchmark run or ``bench/selftest.py`` fails.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import mclink

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("baseline", "channel", "dataset", "nn", "particle", "runio", "surrogate",
           "transceiver")
STAGES = (("surrogate", "generate_pairs"), ("surrogate", "fit_channel"),
          ("transceiver", "train_end_to_end"), ("transceiver", "evaluate_accuracy"),
          ("particle", "simulate_presence"))


@pytest.fixture(scope="module")
def timers():
    for name in MODULES:
        importlib.import_module(f"mclink.{name}")
    spec = importlib.util.spec_from_file_location("bench_timers", BENCH / "timers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(module, owner, attr):
    mod = sys.modules[f"mclink.{module}"]
    return getattr(mod, attr, None) if owner is None else vars(getattr(mod, owner)).get(attr)


def test_every_layer_span_resolves(timers):
    missing = [(m, o, a) for m, o, a, _ in timers.LAYER_SPANS if not callable(lookup(m, o, a))]
    assert missing == []


def test_stage_hooks_and_tracer_install_and_restore(timers):
    # Patches.replace raises on a name the package no longer has
    keys = [(m, o, a) for m, o, a, _ in timers.LAYER_SPANS] + [(m, None, a) for m, a in STAGES]
    originals = [lookup(*key) for key in keys]
    patches = timers.Patches(mclink)
    try:
        spans = timers.Spans()
        timers.Stages().install(patches, spans)
        timers.Tracer(spans).install(patches)
        assert all(lookup(*key) is not fn for key, fn in zip(keys, originals))
    finally:
        patches.restore()
    assert all(lookup(*key) is fn for key, fn in zip(keys, originals))
