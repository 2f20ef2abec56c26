"""Percentiles and the sample-count rule for reporting a tail."""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered) / 100) - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank q-th percentile."""
    return count - math.ceil(q * count / 100)


def tail_is_sampled(count: int, q: float) -> bool:
    """Whether a q-th percentile of ``count`` samples has enough samples beyond it."""
    return beyond(count, q) >= MIN_BEYOND_TAIL
