"""Statistics the benchmark reports: medians, quartiles, sound tails and
the digest comparison."""

import statistics
from collections import Counter


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them; a single
    value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def beyond(n, q):
    """Samples expected above quantile q in a sample of n."""
    return n * (1.0 - q)


def supported(n, q, need=10):
    """A quantile is reported only with at least `need` samples beyond
    it; otherwise it is in effect the largest sample."""
    return beyond(n, q) >= need - 1e-9


def highest_supported(n, candidates=(0.5, 0.9, 0.99, 0.999, 0.9999)):
    """The highest candidate quantile that n samples support, or None."""
    ok = [q for q in candidates if supported(n, q)]
    return max(ok) if ok else None


def digest_mismatches(digests):
    """Number of runs whose digest differs from the most common one."""
    if not digests:
        return 0
    _, count = Counter(digests).most_common(1)[0]
    return len(digests) - count
