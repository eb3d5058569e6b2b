"""Host-speed reference for the benchmark's timings.

The speed of a shared virtual machine drifts by tens of percent within
minutes, and every task slows down with it.  So each task is bracketed by
a fixed reference kernel shaped like the library's hot paths, an
interpreted loop plus a dense complex phase-matrix product, run in the
process that runs the task, and its wall time is scaled by REF_NOMINAL_S
over the mean of the two reference times.  A child process reports its
reference times and the time it spent on them, which is taken off its
wall time.  Reported timings are thus seconds of a host on which the
reference takes REF_NOMINAL_S.
"""

from time import perf_counter

import numpy as np

REF_NOMINAL_S = 4e-3
_X = np.linspace(-3.0, 3.0, 400)
_K = np.arange(-64, 64)
_C = np.exp(1j * _K) / (1.0 + _K**2)


def reference_s() -> float:
    """Seconds taken by the fixed reference kernel."""
    t = perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i
    np.real(np.exp(1j * np.outer(_X, _K)) @ _C)
    return perf_counter() - t


def settled_reference_s() -> tuple:
    """(reference time, seconds spent) for a fresh process, whose first runs
    of the kernel are slow: the fastest of three runs."""
    t = perf_counter()
    best = min(reference_s() for _ in range(3))
    return best, perf_counter() - t


def scaled(wall: float, before: float, after: float) -> float:
    """Wall seconds converted to seconds of the nominal host."""
    return wall * REF_NOMINAL_S / (0.5 * (before + after))
