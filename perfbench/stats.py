"""Pure helpers of the benchmark: percentiles, schedules, span self time.

Nothing here imports ``repro`` or starts anything, so ``selftest.py``
can check every helper in isolation.
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples a reported percentile must leave beyond it.
TAIL_SAMPLES = 10
#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (``nan`` when empty)."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    if pos == lo or data[hi] == data[lo]:
        return data[lo]
    if math.isinf(data[hi]):  # failed requests count as infinitely late
        return data[hi]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def supported_percentile(n: int, wanted: float = 99.0) -> float:
    """Highest percentile up to *wanted* with >= 10 samples beyond it."""
    for q in TAIL_LADDER:
        if q <= wanted and n * (100.0 - q) / 100.0 >= TAIL_SAMPLES:
            return q
    return 50.0


def tail_percentile(values: Sequence[float], wanted: float = 99.0) -> Tuple[float, float]:
    """``(q, value)``: the highest supported percentile and its value."""
    q = supported_percentile(len(values), wanted)
    return q, percentile(values, q)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0]) if values else float("nan")
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def poisson_schedule(rate: float, duration: float, seed: int) -> List[float]:
    """Seeded Poisson arrival offsets (seconds) inside ``[0, duration)``."""
    rng = random.Random(seed)
    out: List[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def rate_ladder(low: float, high: float, ratio: float) -> List[float]:
    """Fixed geometric rate ladder from *low* up to *high*."""
    if not 1.0 < ratio <= 1.10:
        raise ValueError(f"ladder steps must be 0-10% apart, got ratio {ratio}")
    rates = [low]
    while rates[-1] * ratio <= high:
        rates.append(rates[-1] * ratio)
    return [round(rate, 3) for rate in rates]


def highest_passing(ladder: Sequence[float], passes) -> Tuple[Optional[float], List[Tuple[float, bool]]]:
    """Binary search for the highest ladder rate where ``passes(rate)``.

    Assumes that passing is monotone in the rate; every probe made is
    returned so the search can be reported.
    """
    lo, hi = -1, len(ladder)
    probes: List[Tuple[float, bool]] = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = bool(passes(ladder[mid]))
        probes.append((ladder[mid], ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return (ladder[lo] if lo >= 0 else None), probes


def _covered(parent: Dict, children: List[Dict]) -> float:
    """Seconds of *parent*'s interval its children cover.

    Children with a known ``start`` contribute the union of their
    intervals clipped to the parent; children without one (spans
    adopted from another process carry durations only) contribute their
    summed durations.  The total never exceeds the parent's duration.
    """
    p_start = parent.get("start")
    p_dur = float(parent["duration_s"] or 0.0)
    timed, untimed = [], 0.0
    for child in children:
        dur = float(child["duration_s"] or 0.0)
        if p_start is not None and child.get("start") is not None:
            lo = max(child["start"], p_start)
            hi = min(child["start"] + dur, p_start + p_dur)
            if hi > lo:
                timed.append((lo, hi))
        else:
            untimed += dur
    covered, end = 0.0, -math.inf
    for lo, hi in sorted(timed):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return min(p_dur, covered + untimed)


def self_times(records: Iterable[Dict]) -> Dict[str, float]:
    """Self time per span id: duration minus the part children cover."""
    records = list(records)
    children: Dict[str, List[Dict]] = {}
    for rec in records:
        if rec.get("parent_id") is not None:
            children.setdefault(rec["parent_id"], []).append(rec)
    return {
        rec["span_id"]: float(rec["duration_s"] or 0.0)
        - _covered(rec, children.get(rec["span_id"], []))
        for rec in records
    }


def link_orphans(records: List[Dict], parent_name: str, child_name: str) -> int:
    """Parent root *child_name* spans under the *parent_name* span enclosing them.

    The gateway's explicit-batch route runs the backend on an executor
    thread with no span context, so its backend spans start new traces.
    Each is re-parented under the earliest-starting unmatched request
    span whose interval contains it (same-process monotonic starts).
    Returns the number of spans linked.
    """
    parents = sorted(
        (r for r in records if r["name"] == parent_name and r.get("start") is not None),
        key=lambda r: r["start"],
    )
    orphans = sorted(
        (
            r for r in records
            if r["name"] == child_name and r.get("parent_id") is None
            and r.get("start") is not None
        ),
        key=lambda r: r["start"],
    )
    taken = set()
    linked = 0
    for child in orphans:
        c_end = child["start"] + child["duration_s"]
        for parent in parents:
            if parent["start"] > child["start"]:
                break
            if id(parent) in taken:
                continue
            if parent["start"] + parent["duration_s"] >= c_end:
                child["parent_id"] = parent["span_id"]
                child["trace_id"] = parent["trace_id"]
                taken.add(id(parent))
                linked += 1
                break
    return linked
