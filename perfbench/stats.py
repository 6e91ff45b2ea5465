"""Statistics of the benchmark: percentiles, geomean, span self time and
error rate. run.py and compare.py use them; test_stats.py tests them."""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond
# it, so a p90 needs 100 samples.
MIN_BEYOND = 10


def percentile(samples, p, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile (p in (0, 100]) of `samples`, or None when
    fewer than `min_beyond` samples lie beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def median(samples):
    return statistics.median(samples) if samples else None


def geomean(values):
    """Geometric mean of positive values; None when empty or any is <= 0."""
    if not values or any(v <= 0 for v in values):
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def self_times(spans):
    """Self time of every span, in ns: its duration minus the part of its
    interval that its children cover. Overlapping children (client threads
    working in parallel under one span) are counted once."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    result = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cur_start = cur_end = None
        intervals = sorted(
            (max(lo, spans[c]["start_ns"]), min(hi, spans[c]["end_ns"]))
            for c in children[i])
        for a, b in intervals:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        result.append(hi - lo - covered)
    return result


def error_rate(statuses):
    """(failed, attempted, rate): every status other than "ok" (a wrong
    result, a failure or a rejection) counts against the attempts."""
    attempted = len(statuses)
    failed = sum(1 for s in statuses if s != "ok")
    return failed, attempted, (failed / attempted if attempted else 0.0)
