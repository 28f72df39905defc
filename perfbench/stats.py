"""Order statistics the benchmark reports.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count, so a
tail figure never rests on one or two outliers. End-to-end host times are
medians over the samples the hypervisor left alone (quiet): on a shared VM
it steals up to 40% of the CPU in bursts that last minutes, and a stolen
sample measures the neighbours, not the code.
"""

import statistics

TAIL_BEYOND = 10  # samples a reported tail must have beyond it
QUIET_NOISE = 0.0  # steal share up to which a sample counts as quiet
MIN_QUIET = 6  # fewest samples a quiet median rests on


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, by the same rule as
    statistics.quantiles(values, n=4) (the 'exclusive' method)."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile as a share of the
    median: the run-to-run spread a metric's bound is compared with."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def tail(values):
    """(value, level) of the highest percentile with at least TAIL_BEYOND
    samples above it.

    With n sorted samples that is the sample at index n - TAIL_BEYOND - 1,
    and `level` is the share of samples at or below it. With
    n <= TAIL_BEYOND no percentile qualifies; the maximum is returned with
    level 1.0 so the caller can see the tail is thin.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 1.0
    index = n - TAIL_BEYOND - 1
    return ordered[index], (index + 1) / n


def quiet(samples, noise):
    """The samples taken with at most QUIET_NOISE noise, from the whole run,
    in their original order. When fewer than MIN_QUIET qualify, the
    threshold rises to the MIN_QUIET-th smallest noise, so samples that tie
    on noise are kept or dropped together. Every sample kept is a figure the
    program measured; nothing is extrapolated."""
    if len(samples) != len(noise):
        raise ValueError("one noise value per sample")
    if not samples:
        return []
    ordered = sorted(noise)
    limit = max(QUIET_NOISE, ordered[min(MIN_QUIET, len(ordered)) - 1])
    return [s for s, x in zip(samples, noise) if x <= limit]
