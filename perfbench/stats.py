"""Order statistics used by the benchmark report."""

import statistics

# Candidate tail percentiles in per mille, highest first.
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def tail_percentile(values):
    """Highest ladder percentile with at least ten samples beyond it.

    Uses the nearest-rank definition: the p-th percentile of n sorted
    samples is the one at rank ceil(p * n / 100), and the samples beyond
    it are the n - rank that follow. Returns (percentile, value, beyond),
    or None when even the median has fewer than ten samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for permille in TAIL_PERMILLE:
        rank = -(-permille * n // 1000)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return permille / 10, xs[rank - 1], n - rank
    return None


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
