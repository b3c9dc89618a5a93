"""Order statistics used by every metric the benchmark reports."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: A tail percentile is reported only as high as still leaves this many
#: samples beyond it, so a p99 needs at least 1000 samples.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def tail_quantile(count: int, q: float = 0.99) -> float:
    """``q``, lowered until at least :data:`TAIL_MIN_BEYOND` samples lie beyond it."""
    if count <= 2 * TAIL_MIN_BEYOND:
        return 0.5
    return min(q, 1.0 - TAIL_MIN_BEYOND / count)


def tail(values: Sequence[float], q: float = 0.99) -> Tuple[float, float]:
    """(value, quantile used) of the highest supported percentile up to ``q``."""
    used = tail_quantile(len(values), q)
    return percentile(values, used), used


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
