"""A traced benchmark run can wrap the baseline's OOK link.

``bench/timers.py`` counts the releases of every ``observe_frames`` call by
scaling the frames it is handed to molecule counts in their own dtype, so a
caller that hands over integer bits would overflow it. ``ook_transmit``
hands the channel float releases, whatever dtype its bits come in.
"""

import importlib.util
from pathlib import Path

import numpy as np

import mclink
from mclink import baseline, channel, particle  # noqa: F401 - the tracer patches particle too

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_ook_link_takes_bits_of_any_dtype():
    spec = importlib.util.spec_from_file_location("bench_timers", BENCH / "timers.py")
    timers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(timers)
    p = channel.scenario("scenario1")
    bits = np.random.default_rng(0).integers(0, 2, size=(3, 28)).astype(np.uint8)
    want = baseline.ook_transmit(np.random.default_rng(1), p, bits)
    patches = timers.Patches(mclink)
    try:
        tracer = timers.Tracer(timers.Spans())
        tracer.install(patches)
        got = baseline.ook_transmit(np.random.default_rng(1), p, bits)
    finally:
        patches.restore()
    assert np.array_equal(got, want)
    assert tracer.counts["channel.symbols_observed"] == bits.size
