"""Order statistics shared by the end-to-end and traced runs."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only where at least this many samples lie beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_level(n: int) -> float:
    """Highest percentile (0..100) with at least TAIL_BEYOND of ``n`` samples beyond it.

    With ``n`` samples sorted ascending, the value at 1-based rank ``n - 10``
    has exactly ten samples above it; its nearest-rank percentile is
    ``100 * (n - 10) / n``.
    """
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail percentile, got {n}")
    return 100.0 * (n - TAIL_BEYOND) / n


def nearest_rank(values, level: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``level``% of
    the samples at or below it. It is always one of the measured values."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(level / 100.0 * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def beyond(values, threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for v in values if v > threshold)


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` are mappings with ``id``, ``parent``, ``start`` and ``end``.
    Children of one span run one after another on one thread, so they do
    not overlap and their durations add.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + (s["end"] - s["start"])
    return {s["id"]: (s["end"] - s["start"]) - covered.get(s["id"], 0.0) for s in spans}
