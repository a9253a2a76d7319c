"""Order statistics used by the benchmark's reports."""
from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest last.  A fixed ladder keeps the tail
# comparable between two commits that complete different numbers of calls.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile of ascending values; returns (value, rank)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = min(n, max(1, math.ceil(round(pct * n / 100.0, 9))))
    return sorted_values[rank - 1], rank


def tail(values):
    """The highest ladder percentile with at least ten samples beyond it.

    Returns (value, percentile, samples, beyond).  Below 20 samples no
    percentile qualifies; the maximum is returned as percentile 100, and
    ``beyond`` under ten shows that the rule did not apply.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in reversed(TAIL_PERCENTILES):
        value, rank = nearest_rank(ordered, pct)
        if n - rank >= TAIL_MIN_BEYOND:
            return value, pct, n, n - rank
    return ordered[-1], 100.0, n, 0


def quartile_spread(values):
    """(q3 - q1) / median, with quartiles as ``statistics.quantiles`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")
