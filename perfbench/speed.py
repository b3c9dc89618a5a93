"""Host-speed probe: a fixed numpy kernel timed on a thread of its own.

The benchmark runs on a few vCPUs of a shared host.  Each vCPU flips, on a
scale of a fraction of a second to minutes, between a fast and a slow
state about 1.7x apart (another tenant on the physical core), and the loss
shows in the process's CPU time, not as time stolen from it.  Raw times of
the same code spread by tens of percent from run to run, so every time the
benchmark reports is rescaled to a reference speed.

:class:`SpeedProbe` runs a ~2 ms kernel every :data:`PERIOD_S` on its own
thread while the workload runs, with the whole process pinned to one CPU
(see ``run.py``), and records the kernel's thread CPU time: time spent
waiting for the GIL is not counted, so the sample reads the speed of the
CPU the program is running on at that moment.  A unit of work (a pipeline
job, a drained batch, a request) is rescaled by the mean slowdown of the
samples taken while it ran.  The kernel is the program's kind of work with
none of its code: small-tensor contractions and an SVD driven from Python,
on arrays allocated once, so no change to the program changes the probe.
Its GIL holds cost the workload a few percent of wall time, the same for
every commit.

The wall-clock part of a request's latency (the coalescing window the queue
waits out by design) is not compute and is never rescaled, see
:func:`latency_at_reference`.
"""

from __future__ import annotations

import threading
from time import perf_counter, thread_time
from typing import List, Sequence

import numpy as np

#: Kernel CPU time at the reference speed, about the median sample of an
#: otherwise idle run on a 2-vCPU Xeon (Sapphire Rapids) KVM guest with
#: OpenBLAS on one thread.  It only sets the scale: reported times are
#: "seconds at the speed where the kernel takes this long".
REFERENCE_S = 0.002
#: Seconds between two samples.
PERIOD_S = 0.05
#: Samples taken within this many seconds of a unit of work count for it,
#: so even a unit shorter than :data:`PERIOD_S` has one.
MARGIN_S = 0.06

_RNG = np.random.default_rng(7)
_SITES = [_RNG.standard_normal((16, 2, 16)) for _ in range(6)]
_BOND = _RNG.standard_normal((16, 16))
_ENV = np.eye(16)


def _kernel() -> None:
    env = _ENV
    for site in _SITES:
        env = np.einsum("ab,aic,bid->cd", env, site, site)
    np.linalg.svd(_BOND)


class SpeedProbe:
    """Samples the host's speed in the background between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self._wall: List[float] = []
        self._cpu: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-probe", daemon=True)

    def start(self) -> "SpeedProbe":
        _kernel()  # einsum's path cache and BLAS set-up, outside any sample
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            wall, cpu = perf_counter(), thread_time()
            _kernel()
            self._cpu.append(thread_time() - cpu)
            self._wall.append(wall)

    @property
    def samples(self) -> int:
        return len(self._cpu)

    def median_ms(self) -> float:
        return float(np.median(self._cpu)) * 1e3 if self._cpu else 0.0

    def slowdown(self, starts: Sequence[float], ends: Sequence[float]) -> np.ndarray:
        """Mean slowdown against the reference over each ``[start, end]`` (perf_counter).

        Uses the samples within :data:`MARGIN_S` of the interval; an
        interval with none (a gap in sampling) takes the next sample, or
        the last one.
        """
        wall = np.asarray(self._wall)
        if wall.size == 0:
            raise RuntimeError("the speed probe took no samples")
        prefix = np.concatenate([[0.0], np.cumsum(self._cpu)])
        lo = np.searchsorted(wall, np.asarray(starts, dtype=float) - MARGIN_S)
        hi = np.searchsorted(wall, np.asarray(ends, dtype=float) + MARGIN_S, side="right")
        empty = hi <= lo
        nearest = np.clip(lo, 0, wall.size - 1)
        lo = np.where(empty, nearest, lo)
        hi = np.where(empty, nearest + 1, hi)
        return (prefix[hi] - prefix[lo]) / (hi - lo) / REFERENCE_S


def latency_at_reference(
    latency_s: Sequence[float], window_s: float, slowdown: Sequence[float]
) -> np.ndarray:
    """Request latencies with their compute part rescaled to reference speed.

    Up to ``window_s`` (the queue's coalescing window) a request waits on
    the wall clock; what lies beyond it is compute (encode, overlaps,
    decisions, queueing behind them) and is divided by ``slowdown``.
    """
    latency_s = np.asarray(latency_s, dtype=float)
    waited = np.minimum(latency_s, window_s)
    return waited + (latency_s - waited) / np.asarray(slowdown, dtype=float)
