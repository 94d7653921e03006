"""Speed probe: a fixed kernel timed between operations to track machine drift.

The speed of a shared machine changes with load from outside it: it drifts
by up to 2x in swings one to two minutes long, and it switches between a fast
and a slow state within a second (see README.md).  No statistic taken inside
one run removes that.  The probe runs a small amount of the kind of work that
the package's hot loops do -- a pure-Python polynomial expansion over
tuple-keyed dicts of complex numbers, and a loop of tiny numpy calls -- and
imports nothing from ``fockopt``, so its time follows the machine and not the
code under test.  Timings are reported at the reference speed:

    reported = measured * REFERENCE_S / mean probe time measured alongside

``REFERENCE_S`` is the probe's usual mean time on the machine of the
reference figures in README.md, so there the reported numbers are close to
the measured ones.
"""

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 1.35e-3
BURST = 3
_ROW = [(j, complex(0.3 + 0.1 * j, -0.2 + 0.05 * j)) for j in range(6)]
_GEN = np.random.Generator(np.random.Philox(key=0))
_P = np.array([0.1, 0.2, 0.3, 0.4])


def kernel():
    poly = {(0,) * 6: 1 + 0j}
    for _ in range(5):
        nxt = {}
        for mono, c in poly.items():
            for j, u in _ROW:
                key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                nxt[key] = nxt.get(key, 0j) + c * u
        poly = nxt
    total = 0
    for _ in range(60):
        total += int(np.searchsorted(np.cumsum(_P), _GEN.random()))
    return len(poly) + total


def burst():
    """Mean time of a few back-to-back probes."""
    t0 = perf_counter()
    for _ in range(BURST):
        kernel()
    return (perf_counter() - t0) / BURST


def factor(probe_times):
    """Scale from measured seconds to seconds at the reference speed.

    The mean, not the median: the machine switches between a fast and a slow
    state within a second, and the mean of probes spread over a round follows
    the share of the round spent in each, where a median jumps between them.
    """
    return REFERENCE_S / statistics.fmean(probe_times)
