"""The tail of a set of timing samples."""

TAIL_BEYOND = 10


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  That percentile is the
    order statistic with exactly TAIL_BEYOND larger samples.  Below
    2 * TAIL_BEYOND samples it would fall under the median, so the
    maximum stands in (percentile 100, none beyond).
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND

