"""Traffic generation for the serving workloads: open loops and floods.

Requests are recorded in preallocated arrays and every future is dropped as
soon as it resolves, so the generator keeps no per-request Python objects
alive: the garbage collector's full passes then scan the program's heap,
not the benchmark's.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .trace import Recorder

FAILED = -1


class Phase:
    """Per-request records of one traffic phase, in submission order.

    ``due`` is when the request was scheduled, ``start``/``end`` bracket the
    ``submit`` call and ``done`` is when its future resolved.  ``version`` is
    the model version that answered, or :data:`FAILED`.
    """

    def __init__(self, rows: Sequence[int], due: Optional[Sequence[float]] = None) -> None:
        n = len(rows)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.due = np.zeros(n) if due is None else np.asarray(due, dtype=float)
        self.start = np.zeros(n)
        self.end = np.zeros(n)
        self.done = np.full(n, np.nan)
        self.version = np.full(n, FAILED, dtype=np.int64)
        self.prediction = np.zeros(n, dtype=np.int64)
        self.decision = np.zeros(n)
        self.batch = np.zeros(n, dtype=np.int64)
        self._resolved = threading.Semaphore(0)

    def __len__(self) -> int:
        return self.rows.size

    def submit(self, handle, i: int, row: np.ndarray) -> None:
        self.start[i] = perf_counter()
        try:
            future = handle.submit(row)
        except Exception:  # refused at admission: a failed request
            self.end[i] = perf_counter()
            self._resolved.release()
            return
        self.end[i] = perf_counter()
        future.add_done_callback(partial(self._resolve, i))

    def _resolve(self, i: int, future) -> None:
        self.done[i] = perf_counter()
        if future.exception() is None:
            out = future.result()
            self.version[i] = out.model_version
            self.prediction[i] = out.prediction
            self.decision[i] = out.decision_value
            self.batch[i] = out.batch_size
        self._resolved.release()

    def settle(self, timeout: float) -> None:
        """Wait until every request resolved or ``timeout`` seconds passed."""
        deadline = perf_counter() + timeout
        for _ in range(len(self)):
            if not self._resolved.acquire(timeout=max(0.0, deadline - perf_counter())):
                return

    # ------------------------------------------------------------------
    @property
    def ok(self) -> np.ndarray:
        return self.version != FAILED

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(~self.ok))

    def spans(self) -> Tuple[np.ndarray, np.ndarray]:
        """(due, done) times of the requests that succeeded."""
        return self.due[self.ok], self.done[self.ok]

    def latencies(self) -> List[float]:
        """Seconds from due time to resolution, for the requests that succeeded."""
        return (self.done - self.due)[self.ok].tolist()

    def lags(self) -> List[float]:
        """How late each submission started."""
        return (self.start - self.due).tolist()

    def served(self) -> List[Tuple[int, int, int, float]]:
        """(row, model version, prediction, decision) of every answered request."""
        ok = self.ok
        return list(
            zip(
                self.rows[ok].tolist(),
                self.version[ok].tolist(),
                self.prediction[ok].tolist(),
                self.decision[ok].tolist(),
            )
        )


def _sleep_until(t: float) -> None:
    while True:
        remaining = t - perf_counter()
        if remaining <= 0:
            return
        time.sleep(remaining)


def arrival_offsets(rng: np.random.Generator, rps: float, duration: float) -> np.ndarray:
    """Arrival offsets of ``round(rps * duration)`` requests, Poisson-like at rate ``rps``.

    The gaps between arrivals are the exponential distribution's quantiles
    at ``(k + 0.5) / n``, in an order drawn from ``rng``: every seed offers
    the same count and the same spread of gaps (how many arrivals land
    within a service time of the previous one drives the latency tail),
    and only the order varies.  Plain exponential draws made the tail move
    with how clustered one seed's arrivals happened to be.
    """
    count = max(1, int(round(rps * duration)))
    gaps = -np.log1p(-(np.arange(count) + 0.5) / count) / rps
    return np.cumsum(rng.permutation(gaps))


def _operate(t0: float, ops, stop: threading.Event, errors: List[BaseException]) -> None:
    for offset, op in ops:
        if stop.wait(max(0.0, t0 + offset - perf_counter())):
            return
        try:
            op()
        except BaseException as exc:  # surfaced by open_loop after the join
            errors.append(exc)
            return


def open_loop(
    handle,
    rows: np.ndarray,
    order: Sequence[int],
    offsets: Sequence[float],
    timeout: float,
    ops: Sequence[Tuple[float, Callable[[], None]]] = (),
    recorder: Optional[Recorder] = None,
) -> Phase:
    """Submit ``rows[order[i]]`` at ``offsets[i]`` regardless of completions.

    Operator actions in ``ops`` run at their offsets on a thread of their
    own, as an operator's dashboard and control loop would: a swap waits
    for the in-flight flush, and on the submitting thread that wait would
    make later arrivals late by the generator's doing, not the system's.
    """
    t0 = perf_counter() + 0.005
    phase = Phase(order, t0 + np.asarray(offsets, dtype=float))
    stop = threading.Event()
    errors: List[BaseException] = []
    operator = None
    if ops:
        operator = threading.Thread(
            target=_operate,
            args=(t0, sorted(ops, key=lambda op: op[0]), stop, errors),
            name="perfbench-operator",
            daemon=True,
        )
        operator.start()
    try:
        for i, j in enumerate(phase.rows.tolist()):
            _sleep_until(phase.due[i])
            if recorder is not None:
                recorder.set_request(f"req-{i}")
            phase.submit(handle, i, rows[j])
            if recorder is not None:
                recorder.set_request(None)
        if operator is not None:
            # Every scheduled call runs, however early the last arrival was.
            operator.join(timeout)
    finally:
        stop.set()
        if operator is not None:
            operator.join(timeout)
    if errors:
        raise errors[0]
    phase.settle(timeout)
    return phase


def flood(handle, rows: np.ndarray, order: Sequence[int], timeout: float) -> Phase:
    """Submit every row at once and wait for all of them."""
    phase = Phase(order)
    phase.due[:] = perf_counter()
    for i, j in enumerate(phase.rows.tolist()):
        phase.submit(handle, i, rows[j])
    phase.settle(timeout)
    return phase


def drain_batches(phase: Phase) -> List[Tuple[int, float, float]]:
    """``(rows, start, end)`` of each batch a flood drained, after the first.

    One queue thread flushes batches one after another, so in completion
    order the requests form consecutive groups of their reported batch
    size.  A batch's drain runs from the previous batch's completion to its
    own; the first batch, which also waited for the submissions, gives none.
    """
    order = np.argsort(phase.done[phase.ok])
    done = phase.done[phase.ok][order]
    sizes = phase.batch[phase.ok][order]
    ends, counts = [], []
    i = 0
    while i < done.size:
        size = int(sizes[i])
        ends.append(float(done[min(i + size, done.size) - 1]))
        counts.append(size)
        i += size
    return list(zip(counts[1:], ends[:-1], ends[1:]))
