"""Helpers of the benchmark driver that need nothing from ``repro``.

- :class:`Tracer` records spans (name, start, end, parent) in memory;
  :data:`NULL_TRACER` is the untraced stand-in whose spans cost one
  attribute lookup and a shared no-op context manager.
- :func:`self_times` splits one pass's wall time among its layers: each
  span's duration minus its children's, and what no layer covers is the
  residual.
- :func:`tail_percentile` picks the highest percentile that still has at
  least ten samples beyond it, and reports the sample count.
- :func:`due_latency`, :func:`lateness` and :func:`backlog_growing` are
  the open-loop timing rules: a request is timed from when it was due,
  not from when the generator got round to sending it.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Measurement",
    "Tracer",
    "NULL_TRACER",
    "self_times",
    "nearest_rank",
    "tail_percentile",
    "due_latency",
    "lateness",
    "backlog_growing",
    "iqr_share",
    "check_metrics",
]


class Span(NamedTuple):
    """One timed call into a layer; ``parent`` indexes the enclosing span
    in the same tracer's list (-1 for the pass root)."""

    name: str
    start: float
    end: float
    parent: int


@dataclass
class Measurement:
    """What one run measured, before it becomes metrics."""

    #: Wall seconds of each untraced pass.
    walls: List[float] = field(default_factory=list)
    #: Spans of each traced pass, root first (one tracer per pass).
    traced: List[List[Span]] = field(default_factory=list)
    #: Per-layer counters and simulated values (last pass's).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Extra detail for the results file (percentile sample counts...).
    detail: Dict[str, object] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder (nothing is written until the run ends)."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = Span(name, start, end, parent)


class _NullTracer:
    _null = nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = _NullTracer()


def self_times(spans: Sequence[Span]) -> Tuple[Dict[str, float], float]:
    """Per-layer self time of one pass and its residual.

    ``spans`` are one :class:`Tracer`'s spans: ``spans[0]`` is the pass
    root and ``parent`` indexes the list.  A span's self time is its
    duration minus its direct children's; the residual is the root's own
    self time, so the layer self times plus the residual add up to the
    root's duration.  Spans must nest — each inside its parent, siblings
    one after another, as sequential code opens them — or ValueError.
    """
    own = [s.end - s.start for s in spans]
    free_from = [s.start for s in spans]  # where the next child may start
    for i in range(1, len(spans)):
        s = spans[i]
        p = s.parent
        if not (0 <= p < i and free_from[p] <= s.start
                and s.end <= spans[p].end):
            raise ValueError(f"span {i} ({s.name}) does not nest in "
                             f"span {p}")
        free_from[p] = s.end
        own[p] -= s.end - s.start
    charged: Dict[str, float] = {}
    for s, t in zip(spans[1:], own[1:]):
        charged[s.name] = charged.get(s.name, 0.0) + t
    return charged, own[0]


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(
    samples: Sequence[float],
    candidates: Iterable[float] = (99.9, 99.0, 90.0, 75.0, 50.0),
    min_beyond: int = 10,
) -> Optional[Tuple[float, float, int]]:
    """The highest candidate percentile with at least ``min_beyond``
    samples ranked beyond it, as ``(q, value, n_samples)``; None when
    even the lowest candidate lacks them."""
    n = len(samples)
    for q in sorted(candidates, reverse=True):
        if n - math.ceil(q / 100.0 * n) >= min_beyond:
            return q, nearest_rank(samples, q), n
    return None


def due_latency(due: float, done: float) -> float:
    """Open-loop latency: completion minus the time the request was due,
    so a stall also charges the requests queued behind it."""
    return done - due


def lateness(due: float, dispatched: float) -> float:
    """How late the generator handed a request out (never negative)."""
    return max(0.0, dispatched - due)


def backlog_growing(backlog: Sequence[int], slack: float = 1.0) -> bool:
    """True when the outstanding-request count sampled over a fixed-rate
    step rises: the mean of the last third exceeds the first third's by
    more than ``slack`` requests."""
    if len(backlog) < 3:
        return False
    third = len(backlog) // 3
    first = statistics.fmean(backlog[:third])
    last = statistics.fmean(backlog[-third:])
    return last > first + slack


def iqr_share(values: Sequence[float]) -> float:
    """Distance between first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def check_metrics(metrics: Dict[str, dict],
                  spec: Sequence[dict]) -> List[str]:
    """Problems with ``metrics`` against BENCHMARK.json metric entries:
    every named metric present, numeric and in its declared unit, and
    no metric the spec does not name."""
    problems = []
    names = {m["name"] for m in spec}
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, "
                            f"expected {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or not \
                math.isfinite(got["value"]):
            problems.append(f"{m['name']}: bad value {got.get('value')!r}")
    for extra in sorted(set(metrics) - names):
        problems.append(f"unexpected metric {extra}")
    return problems
