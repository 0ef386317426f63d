"""Arithmetic of the benchmark: medians, quartiles, tail percentiles, span
self times and the derived end-to-end figures.

Kept free of any ``logalign`` import so that ``selftest.py`` can check it on
synthetic data alone.
"""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    values = list(values)
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``n`` samples."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile, 0 with no samples."""
    xs = sorted(values)
    return xs[_rank(pct, len(xs)) - 1] if xs else 0.0


def tail_percentile(values) -> tuple[float, float, int]:
    """(percentile, value, sample count) for the highest percentile of
    TAIL_PERCENTILES that has at least ten samples beyond its nearest rank.

    With fewer than twenty samples no percentile qualifies; the maximum is
    reported as percentile 100.  With no samples every field is 0.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    for pct in TAIL_PERCENTILES:
        k = _rank(pct, n)
        if n - k >= TAIL_MIN_BEYOND:
            return pct, xs[k - 1], n
    return 100.0, xs[-1], n


def ratio(num, den) -> float:
    """num / den, or 0 when there is no base to divide by."""
    return num / den if den else 0.0


def cost_per_trace(logs) -> float:
    """Alignment cost per trace over several logs, given as
    (frequency-weighted total cost, trace count) pairs, one per log."""
    logs = list(logs)
    return ratio(sum(cost for cost, _ in logs), sum(traces for _, traces in logs))


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans, minus the time it spent in aggregated leaf
    calls and in the tracer's own bookkeeping for its children.

    ``spans`` is a list of dicts with ``start``, ``end``, ``parent`` (index
    into the list or -1), ``leaf_s`` and ``overhead_s``.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(kids):
            a, b = max(a, s["start"]), min(b, s["end"])
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
        own = s["end"] - s["start"] - covered - s.get("leaf_s", 0.0) - s.get("overhead_s", 0.0)
        out.append(max(0.0, own))
    return out


def run_figures(wall_s: float, align_ms: float, distinct: int, scale: float = 1.0) -> dict:
    """Per-process figures of one untraced ``logalign check`` run.

    setup_s is everything before the first trace aligns: the wall time
    minus the report's align phase.  align_traces_per_s is the distinct
    trace count over the align phase.  ``scale`` converts the host's
    seconds at the time of the run into reference seconds (``run.py``).
    """
    wall = wall_s * scale
    align_s = align_ms / 1000.0 * scale
    return {"wall_s": wall, "setup_s": wall - align_s,
            "align_traces_per_s": ratio(distinct, align_s)}
