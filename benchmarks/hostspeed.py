"""Host-speed calibration: a fixed piece of work timed around and inside each call.

The benchmark was built on a 2-vCPU virtual machine that shares its
cores with other tenants.  There the same call runs up to twice as slow
(at times more) while the neighbours are busy, in CPU time as well as
wall time; the slowdown comes in bursts of milliseconds whose density
changes over seconds to minutes.  A median or minimum over one run then
measures how busy the neighbours were.

:func:`kernel_seconds` times a fixed mix of pure-Python and small
complex linear-algebra work, the two kinds of work a ``ctcsim`` command
does.  :class:`HostClock` runs it just before and just after each timed
call and, through a ``SIGALRM`` interval timer, every ``SAMPLE_PERIOD_S``
inside it.  The time of the kernels inside the call is taken out of the
call's wall time, and the rest is rescaled to the reference host speed:
times ``REFERENCE_S`` over the mean kernel time.  A faster program gives
a proportionally smaller figure; a busy stretch of the host slows the
kernel and the call alike and cancels out.  The kernel is the
benchmark's own code and calls nothing in ``ctcsim``.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter

import numpy as np

# kernel time that defines the reference speed; about the kernel's time
# on the unloaded 2.1 GHz Xeon vCPU the benchmark was written on
REFERENCE_S = 0.015
# kernels run inside a call, one per period (about 6 % of the call)
SAMPLE_PERIOD_S = 0.25
# kernels run just before and just after every call
EDGE_SAMPLES = 2

_rng = np.random.default_rng(1605_06005)
_SQUARE = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_SMALL = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))


def kernel_seconds() -> float:
    """Wall time of one fixed unit of mixed Python and numpy work."""
    t0 = perf_counter()
    table: dict[int, float] = {}
    for i in range(30000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 1.5
    [str(x) for x in range(5000)]
    for _ in range(3):
        np.linalg.svd(_SQUARE)
    for _ in range(40):
        np.kron(_SMALL, _SMALL) @ np.kron(_SMALL, _SMALL)
    return perf_counter() - t0


class HostClock:
    """Times calls and rescales them to the reference host speed.

    Installs a ``SIGALRM`` handler for the life of the process; the
    interval timer runs only while :meth:`measure` has ``sample=True``.
    """

    def __init__(self):
        self._inside: list[float] | None = None
        self.kernels: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        inside = self._inside
        if inside is not None:
            inside.append(kernel_seconds())

    def measure(self, fn, *args, sample: bool = True):
        """Run ``fn(*args)``; return (result, wall s, scale).

        The wall time excludes the kernels run inside the call; times
        ``scale`` it is the call's time at reference speed.  With
        ``sample=False`` (calls that wait on a child process, or whose
        own timings must stay undisturbed) only the edge kernels run.
        """
        edges = [kernel_seconds() for _ in range(EDGE_SAMPLES)]
        inside: list[float] = []
        if sample:
            self._inside = inside
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            # a handler that starts after this line appends nowhere, and one
            # that ran before it ran entirely between t0 and t1
            self._inside = None
            t1 = perf_counter()
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        edges += [kernel_seconds() for _ in range(EDGE_SAMPLES)]
        kernels = edges + inside
        self.kernels += kernels
        return result, t1 - t0 - sum(inside), REFERENCE_S / fmean(kernels)
