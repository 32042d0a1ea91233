"""Host-speed probe for the fuzzycell benchmark.

The benchmark runs on a few vCPUs of a shared host.  How fast such a
vCPU runs changes from one second to the next by up to 1.8x, with what
the host's other tenants do: a fixed Python loop, timed in wall or CPU
time, shows this as much as the program does.  So an untraced sample
keeps a probe running beside its work.  A real-time interval timer
interrupts the sample every ``INTERVAL_S``; the signal handler times a
fixed kernel and returns.  The probes thus sample the vCPU's speed
evenly over wall time, in the same process and on the same vCPU as the
work.

The runner converts a window of wall time into reference seconds:

    ref_s = (window - probe time in it) * mean(reference probe_s / probe_s)

Reference probe times are what the kernel takes on the host the
benchmark was made on (2 vCPUs of an Intel Xeon, Python 3.11, numpy
2.4) when nothing else loads it, so reference seconds read close to
that host's unloaded seconds.  The kernel is benchmark code: a change to
the program can neither speed it up nor slow it down, and a program
that does more work takes more reference seconds by the same share.

Contention slows interpreter work more than numpy array passes, so the
kernel follows the workload.  Every probe runs a pure-Python loop; on a
workload that spends its time in array passes (``arrays=True``) it also
runs a few numpy passes over arrays of that workload's size.
"""

from __future__ import annotations

import signal

import numpy as np

from tracer import now

INTERVAL_S = 0.025
REF_PYTHON_S = 0.00025  # python_kernel on the reference host, unloaded
REF_ARRAYS_S = 0.00050  # array_kernel likewise


def python_kernel() -> dict:
    """Dict updates with int keys and float grades."""
    best: dict = {}
    for i in range(1_500):
        key = (i * 7919) % 211
        grade = (i % 13) / 13.0
        if grade > best.get(key, 0.0):
            best[key] = grade
    return best


def array_grids() -> tuple[np.ndarray, np.ndarray]:
    """Speeds and draws on a runs x vehicles grid, as on ``nasch_fd``.

    The draws are uniform in [0, 1) and patternless, like the program's,
    so that the kernel's masks cost what the program's do.  They come
    from the splitmix64 hash of the cell index instead of
    ``numpy.random``, which numpy imports lazily: the probe adds no
    module to a workload that does not use it.
    """
    z = np.arange(200 * 95, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    draws = ((z >> np.uint64(11)) / 2.0**53).reshape(200, 95)
    speeds = np.arange(200 * 95).reshape(200, 95) % 7
    return speeds, draws


def array_kernel(speeds, draws) -> np.ndarray:
    """A NaSch-like update of the grid, three times."""
    v = speeds
    for _ in range(3):
        v = np.minimum(v + 1, 5)
        v = np.where(draws < 0.2, np.maximum(v - 1, 0), v)
        v.sum(axis=1)
    return v


class SpeedProbe:
    """Times the kernel every ``INTERVAL_S`` of wall time.

    ``probes`` holds one ``(start, seconds)`` pair per probe and
    ``ref_s`` the kernel's reference time.
    """

    def __init__(self, arrays: bool):
        self.grids = array_grids() if arrays else None
        self.ref_s = REF_PYTHON_S + (REF_ARRAYS_S if arrays else 0.0)
        self.probes: list[tuple[float, float]] = []

    def _fire(self, _signum, _frame):
        start = now()
        python_kernel()
        if self.grids is not None:
            array_kernel(*self.grids)
        self.probes.append((start, now() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference_seconds(probes, ref_s: float, begin: float, end: float) -> tuple[float, float]:
    """``(ref_seconds, work_s)`` of the wall-time window ``[begin, end)``.

    ``work_s`` is the window less the probes inside it.  The window's
    speed is the mean over those probes of ``ref_s / probe_s``; a window
    too short to hold a probe takes the probe nearest to its middle.
    """
    inside = [(t, d) for t, d in probes if begin <= t < end]
    work_s = (end - begin) - sum(d for _, d in inside)
    if not inside:
        middle = (begin + end) / 2
        inside = [min(probes, key=lambda p: abs(p[0] - middle))]
    speed = sum(ref_s / d for _, d in inside) / len(inside)
    return work_s * speed, work_s
