"""Pure helpers shared by the workloads: percentiles, spans, schedules.

Nothing here imports ``repro``; ``perfbench/tests`` exercises every
function without the program.
"""

from __future__ import annotations

import math
import random
import re
import statistics
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Allowed metric-name alphabet (``BENCHMARK.json`` and every emitted key).
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Percentiles the tail rule may report, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it may be reported.
MIN_BEYOND = 10

#: Seconds the last quarter's median latency may exceed twice the first
#: quarter's before :func:`backlog_grows` calls the queue growing.
BACKLOG_SLACK_S = 0.001


def validate_metric_name(name: str) -> str:
    """Return ``name`` or raise ``ValueError`` if it is not a metric name."""
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name) \
            or len(name) > 64 or not name[0].isalnum():
        raise ValueError(f"invalid metric name {name!r}")
    return name


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (``pct`` in (0, 100])."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[len(ordered) - beyond(len(ordered), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` nearest rank."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return count - max(1, math.ceil(round(pct / 100.0 * count, 9)))


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(pct, value, n)`` for the highest percentile with enough samples.

    The reported percentile is the highest of :data:`TAIL_PERCENTILES`
    with at least :data:`MIN_BEYOND` samples beyond it; with fewer than
    enough samples for even the median, ``pct`` is 0 and ``value`` the
    maximum, so a short series never passes for a tail estimate.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("tail of no samples")
    chosen = 0.0
    for pct in TAIL_PERCENTILES:
        if beyond(n, pct) >= MIN_BEYOND:
            chosen = pct
    if chosen == 0.0:
        return 0.0, max(samples), n
    return chosen, percentile(samples, chosen), n


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps once."""
    covered = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def _uncovered(lo: float, hi: float,
               covers: Iterable[Tuple[float, float]]) -> List[Tuple[float,
                                                                   float]]:
    """The pieces of ``[lo, hi]`` that no interval in ``covers`` covers."""
    pieces = []
    cursor = lo
    for start, end in sorted(covers):
        if start > cursor:
            pieces.append((cursor, min(start, hi)))
        cursor = max(cursor, end)
        if cursor >= hi:
            break
    if cursor < hi:
        pieces.append((cursor, hi))
    return [(a, b) for a, b in pieces if b > a]


def layer_self_times(spans: Iterable[Mapping]) -> Dict[str, float]:
    """Self time per span name, so that the names partition the root.

    Each span contributes the pieces of its interval that its children do
    not cover; a name's time is the union of its spans' pieces, so
    overlapping calls of one layer (concurrent requests) count once. For
    a tree whose children lie inside their parents, the values sum to the
    root span's duration.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    pieces: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        pieces.setdefault(span["name"], []).extend(_uncovered(
            span["start"], span["end"], children.get(span["id"], ())))
    return {name: union_length(own) for name, own in pieces.items()}


def counter_delta(before: Mapping[str, float],
                  after: Mapping[str, float]) -> Dict[str, float]:
    """``after - before`` for every key of either snapshot (missing = 0).

    A counter that went down means the snapshots came from different
    runs, so that raises.
    """
    delta = {}
    for key in sorted(set(before) | set(after)):
        change = after.get(key, 0) - before.get(key, 0)
        if change < 0:
            raise ValueError(f"counter {key!r} went backwards "
                             f"({before.get(key, 0)} -> {after.get(key, 0)})")
        delta[key] = change
    return delta


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def poisson_schedule(rate: float, duration: float,
                     rng: random.Random) -> List[float]:
    """Due times (seconds from the start) of a Poisson arrival process."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    due = []
    t = rng.expovariate(rate)
    while t < duration:
        due.append(t)
        t += rng.expovariate(rate)
    return due


def open_loop_latencies(due: Sequence[float], sent: Sequence[float],
                        done: Sequence[float]) -> Tuple[List[float],
                                                        List[float]]:
    """``(latency, lateness)`` per request of an open-loop run.

    Latency runs from when the request was *due*, not from when the
    generator got round to sending it, so a stall charges every request
    it delayed; lateness is how far behind its schedule the generator
    sent each request.
    """
    if not (len(due) == len(sent) == len(done)):
        raise ValueError("due, sent and done must have one entry each")
    latency = [d - u for u, d in zip(due, done)]
    lateness = [max(0.0, s - u) for u, s in zip(due, sent)]
    return latency, lateness


def backlog_grows(latencies: Sequence[float]) -> bool:
    """True when latency climbs through the run (the queue is growing).

    Compares the median latency of the last quarter of requests, in due
    order, with that of the first quarter: a stable queue keeps them
    close, a growing one makes the last quarter wait for everything
    queued before it.
    """
    n = len(latencies)
    if n < 8:
        return False
    quarter = n // 4
    first = statistics.median(latencies[:quarter])
    last = statistics.median(latencies[-quarter:])
    return last > 2.0 * first + BACKLOG_SLACK_S


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0
