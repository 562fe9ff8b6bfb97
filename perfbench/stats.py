"""Statistics the benchmark reports: medians, tails with enough samples
beyond them, geometric means and span self times."""

import math
import statistics

# A tail percentile is reported only with at least this many samples
# strictly beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank p-th percentile of `values`, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def geomean(values):
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover (overlapping children counted once).

    `spans` holds rows [name, start, end, id, parent, request]; the result
    maps span id to seconds."""
    children = {}
    for row in spans:
        children.setdefault(row[4], []).append((row[1], row[2]))
    out = {}
    for name, start, end, sid, _parent, _request in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, [])):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def self_times_by_name(spans):
    """Span name -> list of self times."""
    selves = self_times(spans)
    by_name = {}
    for row in spans:
        by_name.setdefault(row[0], []).append(selves[row[3]])
    return by_name


def spread(values):
    """(median, q1, q3, iqr/median, coefficient of variation)."""
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mean = statistics.fmean(values)
    cv = statistics.stdev(values) / mean if len(values) > 1 and mean else 0.0
    return med, q1, q3, (q3 - q1) / med if med else 0.0, cv
