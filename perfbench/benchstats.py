"""Summary statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it, with the sample count; run-to-run
spread is the interquartile range over the median, with quartiles taken
the way Python's statistics.quantiles(values, n=4) gives them.
"""

import math
import statistics

# Percentiles considered for "the highest one with enough samples beyond".
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them; a
    single value is its own three quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def relative_spread(values):
    """Interquartile range as a share of the median (0 for a zero median)."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    return 0.0 if mid == 0 else (q3 - q1) / abs(mid)


def _rank(p, n):
    """1-based nearest rank of percentile p among n values; the epsilon keeps
    binary rounding (99.9 / 100 * 10000 = 9990.000000000002) off the
    next rank."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile p in (0, 100] of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    return sorted(values)[_rank(p, len(values)) - 1]


def top_percentile(values, min_beyond=10, ladder=PERCENTILE_LADDER):
    """(p, value) for the highest percentile in `ladder` that has at least
    `min_beyond` samples above its rank, or None when even the lowest has
    too few (fewer than 2 * min_beyond samples for p50)."""
    best = None
    for p in ladder:
        if len(values) - _rank(p, len(values)) >= min_beyond:
            best = (p, percentile(values, p))
    return best
