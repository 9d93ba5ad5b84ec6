"""Pure helpers that turn one run's raw samples and spans into metrics.

Kept free of I/O so perfbench/test_stats.py can pin their rules down:
self time is a span's duration minus the part of it that child spans
cover; a tail percentile is reported only when at least ten samples lie
beyond it; the error rate is failed operations over attempted ones.
"""

import math
import statistics

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tail_percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile, or None when fewer than min_beyond samples
    lie beyond it (too few to say anything about that tail)."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Per span name, the self time of every call: the span's duration
    minus the part of its interval its direct children cover.

    spans: sequence of (name, parent_index, start, end); parent_index is
    -1 for a top-level span.
    """
    children = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for index, (name, _, start, end) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(index, [])]
        covered = _covered([(s, e) for s, e in inside if e > s])
        result.setdefault(name, []).append((end - start) - covered)
    return result


def top_level_seconds(spans):
    """Total duration of the spans that have no parent."""
    return sum(end - start for _, parent, start, end in spans if parent < 0)


def error_rate(attempted, failed):
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted
