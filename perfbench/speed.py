"""Machine-speed calibration for timings taken on a shared CPU.

On a shared 2-vCPU KVM guest (Intel Xeon) the CPU ran at speeds up to 1.75x
apart that changed every few seconds to every few minutes, with CPU time
equal to wall time, so no choice of statistic inside one run could hide it:
over 25 s runs the fastest repeat of a command spread 35-66% between runs.
So every timed repeat is bracketed by a short fixed loop, and a time is
reported in reference seconds: the wall time times ``REFERENCE_S`` over the
mean of the two loop times around it.  The loop does what the program's
per-pair kernels do (dict and list handling, small numpy arrays, ``cdist``)
and none of the program's code, so a change to the program moves the
command's time and never the loop's.  With the scaling, medians spread 1-16%
between runs in the same period.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial.distance import cdist

# the loop's time at the faster speed of a shared 2-vCPU Intel Xeon KVM guest, rounded
REFERENCE_S = 0.010

_rng = np.random.default_rng(0)
_POINTS = np.linspace(-3.0, 3.0, 61)[:, None]
_SETS = [
    {int(i): float(_rng.uniform(0.1, 1.0)) for i in range(lo, lo + width)}
    for lo, width in zip(_rng.integers(0, 40, 40), _rng.integers(5, 20, 40))
]


def calibrate() -> float:
    """Wall seconds of the fixed calibration loop, run now."""
    start = time.perf_counter()
    for a in _SETS:
        for b in _SETS[:10]:
            ia, ib = sorted(a), sorted(b)
            da = np.array([a[i] for i in ia])
            db = np.array([b[i] for i in ib])
            k = np.exp(-0.5 * cdist(_POINTS[ia], _POINTS[ib], "sqeuclidean")) * (da[:, None] @ db[None, :])
            float(k.sum())
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` in reference seconds, given the loop's time before and after."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
