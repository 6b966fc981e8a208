"""Machine-speed calibration.

The host's vCPUs run the same code up to 30% slower for spells that last
from seconds to minutes.  A fixed kernel, timed on the CPU an operation runs
on right before it, measures the machine's speed at that moment.  One
kernel time jitters by about 15%, so an operation's wall time is scaled by
``REFERENCE_S / m``, where ``m`` is the median kernel time on that CPU over
the operation's round (a few seconds): the result is the operation's time
at the reference speed.  The kernel uses numpy and scipy only, never
``homctl``, so no change to the program moves it.
"""

from __future__ import annotations

import os
import time

import numpy as np
import scipy.linalg

#: the kernel's median time on the reference machine (2-vCPU shared host,
#: Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread)
REFERENCE_S = 2.0e-3

_rng = np.random.default_rng(0)
_MATS = [_rng.standard_normal((k, k)) for k in (2, 3, 4, 6)]
_VECS = [_rng.standard_normal(k) for k in (2, 3, 4, 6)]


def kernel() -> float:
    """A fixed amount of work; returns a value so that none of it is skipped.

    Small-matrix exponentials, products and solves in a Python loop, then
    many small Python objects built and sorted.  Over 20-s windows of
    ``sim-delay-perturbed`` operations, host slow-downs moved the operation
    times by 5.9% (standard deviation) and their ratio to the kernel time by
    2.3%; the matrix half alone left 3.8%, the object half 2.4%.  (Measured
    with both halves at two and four times the size used here.)
    """
    acc = 0.0
    for _ in range(5):
        for A, x in zip(_MATS, _VECS):
            y = scipy.linalg.expm(0.01 * A) @ x
            acc += float(np.sqrt(y @ y)) + float(np.linalg.solve(A @ A.T + np.eye(len(x)), x)[0])
            for yi in y:
                acc += yi * yi
    table = {}
    for i in range(1500):
        table[(i * 7919) % 1511] = (i, float(i), str(i))
    return acc + sorted(table.items())[-1][1][1]


def measure(cpus) -> float:
    """Seconds of one kernel, the mean over ``cpus`` (each pinned in turn).

    The process's CPU affinity is restored afterwards.
    """
    saved = os.sched_getaffinity(0)
    total = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            # untimed first pass: the operation before may have evicted the
            # kernel's code and data, and its footprint is the program's
            kernel()
            t0 = time.perf_counter()
            kernel()
            total += time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, saved)
    return total / len(cpus)
