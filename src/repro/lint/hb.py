"""The happens-before engine: interval vector clocks over two orderings.

DaYu's traces show *one* interleaving of a workflow; the DY2xx hazard
rules convict only conflicts that interleaving happened to leave
unordered.  Before the engine's dataflow mode (``--deps dataflow``) is
allowed to reorder tasks, the race pass (:mod:`repro.lint.race`) must know which
orderings are guaranteed by true dataflow and which are accidents of the
stage plan.  This module provides the machinery:

- :class:`IntervalSet` — a sorted union of half-open integer intervals.
  A task's *vector clock* is the set of topological indices of every
  task that happens-before it (its downset, itself included).  Under an
  as-executed total order task ``k``'s clock is the single interval
  ``[0, k+1)``; under a dependency-only order clocks stay highly
  clustered because topological indexing packs ancestors together — so
  clock joins (set unions) over ~100k tasks stay near-linear instead of
  the O(n²) bitmap cost of dense vectors.
- :class:`HbOrder` — one partial order with per-task interval clocks.
  Built three ways: :meth:`HbOrder.from_graph` (a dependency DAG — SCCs
  are condensed first, so cyclic traces degrade exactly like
  :class:`~repro.lint.context.OrderingInfo`), :meth:`HbOrder.total`
  (an observed execution sequence), and :meth:`HbOrder.ranked`
  (a stage plan: tasks compare by rank tuples, equal ranks are
  concurrent — the pre-run *as-scheduled* order).
- :func:`reorder_witness` — a concrete legal topological reordering of
  the dependency-only order under which a racing pair flips.  Every
  DY5xx conviction ships one, so "this could reorder" is never abstract:
  replaying the witness order is a legal schedule and produces a
  different outcome.

``a happens-before b`` is written ``order.ordered_before(a, b)``;
``order.concurrent(a, b)`` means no direction holds — the race
condition's precondition.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["IntervalSet", "HbOrder", "reorder_witness"]


class IntervalSet:
    """An immutable sorted union of half-open ``[lo, hi)`` int intervals.

    The vector-clock lattice: *join* is :meth:`union`, the partial order
    is :meth:`issuperset`.  Construction normalizes (sorts, merges
    touching/overlapping intervals), so equal sets compare equal
    structurally.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Tuple[int, int]] = ()) -> None:
        merged: List[Tuple[int, int]] = []
        for lo, hi in sorted((int(a), int(b)) for a, b in intervals):
            if hi <= lo:
                continue
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        self.intervals: Tuple[Tuple[int, int], ...] = tuple(merged)

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "IntervalSet":
        return cls((i, i + 1) for i in indices)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, index: int) -> bool:
        pos = bisect_right(self.intervals, (index, float("inf"))) - 1
        if pos < 0:
            return False
        lo, hi = self.intervals[pos]
        return lo <= index < hi

    def __len__(self) -> int:
        """Total indices covered (the dense-vector cardinality)."""
        return sum(hi - lo for lo, hi in self.intervals)

    def __iter__(self) -> Iterator[int]:
        for lo, hi in self.intervals:
            yield from range(lo, hi)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntervalSet)
                and self.intervals == other.intervals)

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"[{lo},{hi})" for lo, hi in self.intervals)
        return f"IntervalSet({body})"

    def issuperset(self, other: "IntervalSet") -> bool:
        """Lattice order: every index of ``other`` is in ``self``."""
        i = 0
        for lo, hi in other.intervals:
            while i < len(self.intervals) and self.intervals[i][1] < hi:
                if self.intervals[i][0] <= lo < self.intervals[i][1]:
                    return False  # starts inside but ends beyond
                i += 1
            if i >= len(self.intervals):
                return False
            slo, shi = self.intervals[i]
            if not (slo <= lo and hi <= shi):
                return False
        return True

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------
    def union(self, *others: "IntervalSet") -> "IntervalSet":
        """The lattice join — linear in the total interval count."""
        if not others:
            return self
        merged: List[Tuple[int, int]] = []
        for s in (self, *others):
            merged.extend(s.intervals)
        return IntervalSet(merged)

    @staticmethod
    def union_all(sets: Sequence["IntervalSet"]) -> "IntervalSet":
        if not sets:
            return IntervalSet()
        return sets[0].union(*sets[1:])


class HbOrder:
    """One happens-before partial order with interval vector clocks.

    Attributes:
        order: The canonical linear extension — task names in topological
            index order (ties broken by the construction's priority).
            For :meth:`total` this *is* the observed sequence.
        position: ``task -> index`` into ``order``.
        graph: The underlying DAG for :meth:`from_graph` orders (None
            for total/ranked orders); :func:`reorder_witness` needs it.
        cyclic: True when the source graph had a cycle (its SCCs were
            condensed; members of one SCC are mutually ordered, matching
            :class:`~repro.lint.context.OrderingInfo`).
    """

    def __init__(self) -> None:
        self.order: List[str] = []
        self.position: Dict[str, int] = {}
        self.graph = None
        self.cyclic: bool = False
        #: task -> clock index of its component (SCC for graphs).
        self._comp: Dict[str, int] = {}
        #: component clock index -> IntervalSet downset (lazy for the
        #: total/ranked fast paths, eager for graphs).
        self._clocks: Dict[int, IntervalSet] = {}
        self._kind: str = "graph"
        self._ranks: Dict[str, Tuple] = {}
        self._rank_start: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def total(cls, tasks: Sequence[str]) -> "HbOrder":
        """The as-executed order of a trace: a total order.

        Clock of the ``k``-th task is the single interval ``[0, k+1)`` —
        the representation's best case, built in O(n).
        """
        hb = cls()
        hb._kind = "total"
        hb.order = list(tasks)
        hb.position = {t: i for i, t in enumerate(hb.order)}
        if len(hb.position) != len(hb.order):
            raise ValueError("total order contains duplicate tasks")
        hb._comp = hb.position
        return hb

    @classmethod
    def ranked(cls, ranks: Dict[str, Tuple]) -> "HbOrder":
        """A stage-plan order: ``a`` happens-before ``b`` iff
        ``ranks[a] < ranks[b]``; equal ranks are concurrent (one parallel
        stage).  Rank tuples must be mutually comparable."""
        hb = cls()
        hb._kind = "ranked"
        hb._ranks = dict(ranks)
        hb.order = sorted(ranks, key=lambda t: (ranks[t], t))
        hb.position = {t: i for i, t in enumerate(hb.order)}
        hb._comp = hb.position
        # Index of the first task sharing each task's rank: everything
        # before it is a strict predecessor (a prefix — interval clocks).
        hb._rank_start = {}
        start = 0
        for i, t in enumerate(hb.order):
            if hb._ranks[t] != hb._ranks[hb.order[start]]:
                start = i
            hb._rank_start[t] = start
        return hb

    @classmethod
    def from_graph(cls, graph, priority: Optional[Dict[str, Tuple]] = None
                   ) -> "HbOrder":
        """Clocks over a dependency DAG (cycles condensed first).

        ``priority`` breaks topological ties deterministically (e.g. the
        observed start times); it defaults to task name.
        """
        import networkx as nx

        hb = cls()
        hb.graph = graph
        cond = nx.condensation(graph)
        hb.cyclic = cond.number_of_nodes() != graph.number_of_nodes()
        members: Dict[int, List[str]] = {
            c: sorted(cond.nodes[c]["members"]) for c in cond.nodes
        }

        def comp_key(c: int) -> Tuple:
            if priority is None:
                return (min(members[c]),)
            return min(priority.get(t, ()) for t in members[c])

        # Deterministic Kahn over the condensation, min-priority first.
        indeg = {c: d for c, d in cond.in_degree()}
        ready = [(comp_key(c), c) for c, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        comp_index: Dict[int, int] = {}
        index = 0
        while ready:
            _, c = heapq.heappop(ready)
            comp_index[c] = index
            preds = [hb._clocks[comp_index[p]] for p in cond.predecessors(c)]
            own = IntervalSet([(index, index + 1)])
            hb._clocks[index] = own.union(*preds) if preds else own
            for t in members[c]:
                hb._comp[t] = index
                hb.position[t] = len(hb.order)
                hb.order.append(t)
            index += 1
            for succ in cond.successors(c):
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    heapq.heappush(ready, (comp_key(succ), succ))
        return hb

    # ------------------------------------------------------------------
    # Clocks and ordering
    # ------------------------------------------------------------------
    def clock(self, task: str) -> IntervalSet:
        """The task's vector clock: indices of every task (component)
        ordered at-or-before it, itself included."""
        if self._kind == "total":
            i = self.position[task]
            return IntervalSet([(0, i + 1)])
        if self._kind == "ranked":
            # Strict predecessors are exactly the strictly-lower ranks —
            # a prefix of the rank-sorted canonical order.
            i = self.position[task]
            return IntervalSet([(0, self._rank_start[task]), (i, i + 1)])
        return self._clocks[self._comp[task]]

    def __contains__(self, task: str) -> bool:
        return task in self.position

    def ordered_before(self, a: str, b: str) -> bool:
        """True when ``a`` happens-before ``b`` (or they share an SCC)."""
        if a not in self.position or b not in self.position:
            return False
        if self._kind == "total":
            return self.position[a] < self.position[b]
        if self._kind == "ranked":
            return self._ranks[a] < self._ranks[b]
        ca, cb = self._comp[a], self._comp[b]
        if ca == cb:
            return a != b  # same SCC: mutually reachable
        return ca in self._clocks[cb]

    def concurrent(self, a: str, b: str) -> bool:
        """Neither direction holds — the race precondition."""
        if a == b:
            return False
        return not self.ordered_before(a, b) and \
            not self.ordered_before(b, a)


def reorder_witness(dep: HbOrder, first: str, second: str,
                    max_tasks: int = 200) -> Optional[dict]:
    """A legal linear extension of ``dep`` running ``second`` before
    ``first`` (the reverse of the observed order).

    ``first`` and ``second`` must be concurrent under ``dep``; the
    witness is produced by a deterministic Kahn walk (canonical-position
    priority) that simply *holds back* ``first`` until ``second`` has
    been placed.  That is always legal: if any released task depended on
    ``first`` there would be a ``first → ... → second`` path,
    contradicting concurrency.  Returns None when ``dep`` carries no
    graph (total orders), has a cycle, or the pair is actually ordered.

    The returned dict is the ``witness`` evidence the DY5xx findings
    serialize::

        {"schema": "dayu-witness/v1",
         "reordered": [second, first],     # second now runs first
         "order": [...],                   # the legal schedule (window)
         "window": [lo, hi],               # order[] covers these indices
         "total_tasks": N}

    When the workflow exceeds ``max_tasks`` only a window around the
    reordered pair is serialized (``window`` says which slice).
    """
    graph = dep.graph
    if graph is None or dep.cyclic:
        return None
    if first not in dep.position or second not in dep.position:
        return None
    if not dep.concurrent(first, second):
        return None
    indeg = {n: d for n, d in graph.in_degree()}
    ready = [(dep.position[n], n) for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: List[str] = []
    held = False
    placed_second = False
    while ready or held:
        if not ready:
            # Only ``first`` is runnable but still held — impossible for
            # a concurrent pair (see soundness note above).
            return None
        _, node = heapq.heappop(ready)
        if node == first and not placed_second:
            held = True
            continue
        order.append(node)
        if node == second:
            placed_second = True
            if held:
                heapq.heappush(ready, (dep.position[first], first))
                held = False
        for succ in graph.successors(node):
            indeg[succ] -= 1
            if indeg[succ] == 0:
                heapq.heappush(ready, (dep.position[succ], succ))
    if len(order) != graph.number_of_nodes():
        return None
    total = len(order)
    lo, hi = 0, total
    if total > max_tasks:
        pivot_lo = order.index(second)
        pivot_hi = order.index(first) + 1
        margin = max((max_tasks - (pivot_hi - pivot_lo)) // 2, 0)
        lo = max(pivot_lo - margin, 0)
        hi = min(pivot_hi + margin, total)
    return {
        "schema": "dayu-witness/v1",
        "reordered": [second, first],
        "order": order[lo:hi],
        "window": [lo, hi],
        "total_tasks": total,
    }
