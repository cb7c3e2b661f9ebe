"""Statistics of the repository benchmark: percentiles, span self times,
ratios with their base. Tested by perfbench/test_stats.py."""

import math
from collections import defaultdict

# Percentiles considered for the tail, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def mean(values):
    """Arithmetic mean of a non-empty sequence."""
    if not values:
        raise ValueError("mean of no samples")
    return sum(values) / len(values)


def windowed_median(samples, width, min_samples=3):
    """The median of the values that start in each `width`-second window
    of a run, averaged over the windows that hold at least `min_samples`.

    `samples` are (start seconds, value) pairs. The machine the benchmark
    runs on switches between a fast and a slow speed for seconds at a time,
    which splits a run's latencies into two modes; the median of the whole
    run jumps from one mode to the other as their shares change, while the
    average of the windows' medians moves in proportion to the shares."""
    windows = defaultdict(list)
    for start, value in samples:
        windows[int(start // width)].append(value)
    medians = [median(v) for v in windows.values() if len(v) >= min_samples]
    if not medians:
        raise ValueError("no window holds %d samples" % min_samples)
    return mean(medians)


def percentile(values, p):
    """The p-th percentile by linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """The highest percentile, at most the 99th, that leaves at least ten
    samples beyond it among n; None when even the 75th does not."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def summarize(values):
    """Median plus the highest percentile with >= 10 samples beyond it,
    with the sample count: {"n", "p50", "tail_p", "tail"}."""
    n = len(values)
    p = tail_percentile(n)
    return {
        "n": n,
        "p50": median(values),
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
    }


def ratio(part, base):
    """A ratio reported with its base: {"value", "base"}; value 0 when the
    base is 0 (nothing was attempted)."""
    return {"value": part / base if base else 0.0, "base": base}


def span_file_totals(path, root=None):
    """Self time and duration per span name, in ns, over the driver's span
    file, counting only spans whose root span is named `root` (all spans
    when None).

    The file holds groups of lines: '#group' starts a group, other lines
    are '<name> <start_ns> <end_ns> <parent> <op>' with parent an index
    into the group (-1 for a root), always below the child's own index.
    Self time is a span's duration minus the time its children cover.
    A span's children run on its thread one after another, so the time
    they cover is the sum of their durations, each clipped to the parent.
    Streams the file."""
    from array import array
    selfs, durs = defaultdict(int), defaultdict(int)
    names, start, end, roots, covered = [], array("q"), array("q"), \
        array("q"), array("q")

    def flush():
        for i, name in enumerate(names):
            if root is None or names[roots[i]] == root:
                selfs[name] += end[i] - start[i] - covered[i]
                durs[name] += end[i] - start[i]
        del names[:], start[:], end[:], roots[:], covered[:]

    interned = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#group"):
                flush()
                continue
            parts = line.split()
            if len(parts) != 5:
                continue
            name = interned.setdefault(parts[0], parts[0])
            s, e, p = int(parts[1]), int(parts[2]), int(parts[3])
            i = len(names)
            names.append(name)
            start.append(s)
            end.append(e)
            roots.append(i if p < 0 else roots[p])
            covered.append(0)
            if p >= 0:
                covered[p] += max(0, min(e, end[p]) - max(s, start[p]))
    flush()
    return dict(selfs), dict(durs)
