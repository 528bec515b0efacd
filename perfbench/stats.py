"""Exact order statistics and the parent-vs-change verdict.

Quantiles here are computed from every sample a run recorded, never from
bucketed histograms. `quantile` interpolates linearly between order
statistics (the inclusive definition); run-to-run spread uses the quartiles
of `statistics.quantiles(values, n=4)`, the exclusive definition.
"""

import math
import statistics


def quantile(values, q):
    """The q-quantile (0 <= q <= 1) of `values`, exactly, by linear
    interpolation between the two nearest order statistics."""
    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def quartiles(values):
    """(first quartile, median, third quartile) as the reference spread
    check computes them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr(values):
    q1, _, q3 = quartiles(values)
    return q3 - q1


def iqr_share(values):
    """Interquartile range as a share of the median (0 when the median is
    0 and the values do not spread)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


IMPROVED, UNCHANGED, WORSE, UNRESOLVED = (
    "improved", "unchanged", "worse", "unresolved")


def verdict(parent, change, better, bound=None):
    """Judge one (metric, workload) from paired runs.

    `parent` and `change` are equal-length lists; pair i ran parent and
    change back to back (alternating which went first). `better` is "lower"
    or "higher"; `bound` is the share of the parent's median by which the
    metric may worsen (None for per-layer metrics, which have no bound).

    improved: the change wins at least 9 of every 10 pairs (ties count for
      neither side) and the medians differ by more than the parent's IQR.
    worse: the same rule in the other direction, or, with a bound, the
      change's median is worse than the parent's by more than the bound.
    unresolved: the parent's own spread is wider than the bound (or, with
      no bound, the gap exceeds the parent's IQR without a 9/10 win rate),
      unless every change run reads better than every parent run.
    unchanged: otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change runs")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    need = math.ceil(0.9 * len(parent))
    mp, mc = median(parent), median(change)
    gap = sign * (mc - mp)  # > 0: the change is better
    spread = iqr(parent)
    if wins >= need and gap > spread:
        return IMPROVED
    if losses >= need and -gap > spread:
        return WORSE
    if all(sign * (c - p) > 0 for c in change for p in parent):
        return IMPROVED if gap > spread else UNCHANGED
    if bound is None:
        return UNRESOLVED if abs(gap) > spread else UNCHANGED
    if mp != 0 and iqr_share(parent) > bound:
        return UNRESOLVED
    if -gap > bound * abs(mp):
        return WORSE
    return UNCHANGED
