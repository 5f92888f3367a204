"""FTG and SDG construction.

Both graphs are ``networkx.DiGraph`` instances with typed nodes and
statistics-decorated edges:

Node attributes:
    ``kind`` (:class:`NodeKind` value), ``label`` (display name), and for
    task nodes ``start``/``end`` (execution span); for data-bearing nodes
    ``volume`` (bytes moved through the node).

Edge attributes:
    ``operation`` (``"read"`` or ``"write"`` — the direction of data flow),
    ``count`` (I/O operations), ``volume`` (bytes), ``bandwidth``
    (bytes/second), ``data_ops``/``data_bytes`` and
    ``metadata_ops``/``metadata_bytes`` (the HDF5 raw vs. metadata split
    interactable in the paper's HTML graphs), and ``start``/``end``
    (first/last touch times, used for temporal layout).

Direction convention (matching the paper's left-to-right data flow):
    *reads* flow ``file → [region → dataset →] task`` and *writes* flow
    ``task → [dataset → region →] file``.

Construction is incremental: a :class:`GraphBuilder` accepts profiles one
at a time, in any order, and can emit the finished graph at any point, so
analyses over a growing trace directory (or a baseline kept across
:func:`compare_runs` calls, or a service run whose traces arrive shuffled)
never rebuild from scratch.  Edge statistics accumulate through the
commutative :func:`merge_edge_stats` — per-contribution ``io_time``
samples are kept in an ``_io_times`` list and folded with
:func:`math.fsum` at finalization, so every arrival order produces
identical floats.
"""

from __future__ import annotations

import bisect
import enum
import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import networkx as nx

from repro.mapper.mapper import TaskProfile
from repro.mapper.stats import FILE_METADATA_OBJECT, DatasetIoStats

__all__ = [
    "NodeKind",
    "task_node",
    "file_node",
    "dataset_node",
    "region_node",
    "opt_min",
    "opt_max",
    "merge_edge_stats",
    "GraphBuilder",
    "build_ftg",
    "build_sdg",
    "mark_data_reuse",
]


class NodeKind(str, enum.Enum):
    """Typed graph node categories (drive colors in the visualizer)."""

    TASK = "task"
    FILE = "file"
    DATASET = "dataset"
    REGION = "region"


def task_node(name: str) -> str:
    return f"task:{name}"


def file_node(path: str) -> str:
    return f"file:{path}"


def dataset_node(file: str, obj: str) -> str:
    return f"dataset:{file}:{obj}"


def region_node(file: str, lo: int, hi: int) -> str:
    return f"region:{file}:[{lo}-{hi})"


_N = TypeVar("_N", int, float)


def opt_min(a: Optional[_N], b: Optional[_N]) -> Optional[_N]:
    """``min`` where ``None`` means "no observation", not zero."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def opt_max(a: Optional[_N], b: Optional[_N]) -> Optional[_N]:
    """``max`` where ``None`` means "no observation", not zero."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


#: Additive edge-statistic keys (ints; merge by summation).
_COUNTER_KEYS = (
    "count",
    "volume",
    "data_ops",
    "data_bytes",
    "metadata_ops",
    "metadata_bytes",
)


def _edge_delta(stats: DatasetIoStats, op: str) -> dict:
    """One edge-stat contribution: the given operation's share of ``stats``."""
    if op == "read":
        count, volume = stats.reads, stats.bytes_read
    else:
        count, volume = stats.writes, stats.bytes_written
    return {
        "count": count,
        "volume": volume,
        "data_ops": stats.data_ops,
        "data_bytes": stats.data_bytes,
        "metadata_ops": stats.metadata_ops,
        "metadata_bytes": stats.metadata_bytes,
        "start": stats.first_start,
        "end": stats.last_end,
        "_io_times": [stats.io_time],
    }


def merge_edge_stats(data: dict, delta: dict) -> dict:
    """Fold one edge-stat contribution into ``data``, in place.

    Commutative and associative over contribution *sets*: counters add,
    spans widen via :func:`opt_min`/:func:`opt_max`, and per-contribution
    ``io_time`` samples accumulate in ``_io_times`` (summed with
    :func:`math.fsum` at finalization, which is correctly rounded and thus
    order-independent).  ``delta`` is a raw delta from
    :func:`_edge_delta`.
    """
    for key in _COUNTER_KEYS:
        data[key] = data.get(key, 0) + delta.get(key, 0)
    data["start"] = opt_min(data.get("start"), delta.get("start"))
    data["end"] = opt_max(data.get("end"), delta.get("end"))
    data.setdefault("_io_times", []).extend(delta.get("_io_times", ()))
    return data


def _ensure_node(g: nx.DiGraph, node: str, kind: NodeKind, label: str, **attrs) -> None:
    if node not in g:
        g.add_node(node, kind=kind.value, label=label, volume=0, **attrs)


def _bump_edge(g: nx.DiGraph, u: str, v: str, op: str, delta: dict) -> None:
    """Add/merge an edge carrying one contribution (see :func:`_edge_delta`).

    ``delta`` is only read, never mutated — the columnar bulk path reuses
    one delta dict for both SDG edges of an operation.
    """
    if delta["count"] == 0 and delta["volume"] == 0:
        return
    data = g.get_edge_data(u, v)
    if data is None:
        g.add_edge(
            u, v,
            operation=op,
            count=0,
            volume=0,
            io_time=0.0,
            data_ops=0,
            data_bytes=0,
            metadata_ops=0,
            metadata_bytes=0,
            start=None,
            end=None,
            bandwidth=0.0,
        )
        data = g.get_edge_data(u, v)
    merge_edge_stats(data, delta)
    g.nodes[u]["volume"] += delta["volume"]
    g.nodes[v]["volume"] += delta["volume"]


def _finalize_edges(g: nx.DiGraph) -> None:
    """Resolve accumulated ``_io_times`` into ``io_time``/``bandwidth``."""
    for _, _, data in g.edges(data=True):
        times = data.pop("_io_times", None)
        if times is not None:
            data["io_time"] = math.fsum(times)
        io_time = data.get("io_time", 0.0)
        data["bandwidth"] = data["volume"] / io_time if io_time > 0 else 0.0


def _ordered_profiles(
    profiles: Iterable[TaskProfile], task_order: Optional[Sequence[str]]
) -> List[TaskProfile]:
    items = list(profiles)
    if task_order is not None:
        index = {name: i for i, name in enumerate(task_order)}
        missing = [p.task for p in items if p.task not in index]
        if missing:
            raise ValueError(f"task_order missing tasks: {missing}")
        items.sort(key=lambda p: index[p.task])
    return items


class GraphBuilder:
    """Incremental FTG/SDG constructor that accepts profiles in any order.

    Feed profiles with :meth:`add_profile` / :meth:`add_profiles` as they
    arrive; call :meth:`build` for a finished graph at any point and keep
    adding afterwards.

    **Arrival order.**  Profiles fed without a key take their places in
    arrival order, and the builder records nothing extra.  Profiles fed
    with a ``key`` (unique and mutually comparable; give one for every
    profile or for none) take their places by key, whatever order they
    arrive in: every node and edge records its first-touch key,
    ``(profile key, position in that profile's fold)``, while counters,
    spans and ``io_time`` samples already merge order-free.
    :meth:`build` then emits nodes in first-touch order, each node's
    edges in first-touch order, and numbers each task's ``order`` by its
    profile's rank — the graph an in-order fold builds.  While keys
    arrive ascending the folded graph already is that graph; only after
    an earlier-keyed arrival does :meth:`build` assemble a reordered
    copy, in bulk.

    Args:
        kind: ``"ftg"`` or ``"sdg"``.
        with_regions: (SDG only) insert file address-region nodes.
        region_bytes: Width of one address region in bytes.
        page_size: Page size of the profiles' region histograms.
    """

    def __init__(
        self,
        kind: str = "ftg",
        with_regions: bool = False,
        region_bytes: int = 65536,
        page_size: int = 4096,
    ) -> None:
        if kind not in ("ftg", "sdg"):
            raise ValueError(f"kind must be 'ftg' or 'sdg', got {kind!r}")
        self.kind = kind
        self.with_regions = with_regions and kind == "sdg"
        self.region_bytes = region_bytes
        self.page_size = page_size
        if kind == "sdg":
            if region_bytes % page_size != 0:
                raise ValueError(
                    f"region_bytes ({region_bytes}) must be a multiple of "
                    f"the profile page size ({page_size})"
                )
            self._pages_per_region = region_bytes // page_size
            self.graph = nx.DiGraph(graph_type="SDG", region_bytes=region_bytes)
        else:
            self.graph = nx.DiGraph(graph_type="FTG")
        self._seq = 0
        #: First-touch key of every node and edge.
        self._node_key: Dict[str, tuple] = {}
        self._edge_key: Dict[Tuple[str, str], tuple] = {}
        #: Keys of the profiles folded so far, and the largest of them.
        self._profile_keys: list = []
        self._max_key = None
        #: Some profile arrived behind a larger key: build() reorders.
        self._reordered = False
        #: The fold in progress arrived behind a larger key, so its
        #: touches may lower existing first-touch keys.
        self._behind = False
        #: Key and next touch position of the fold in progress.
        self._key = None
        self._pos = 0

    # ------------------------------------------------------------------
    # Touches
    # ------------------------------------------------------------------
    def _begin(self, task: str, start: float, end: float, key):
        """Open one profile's fold under ``key``.

        Returns its task node and the fold's node/edge touch functions
        (signatures of :func:`_ensure_node` and :func:`_bump_edge`).  A
        builder fed without keys is in order by definition and records
        nothing; a keyed builder records first-touch keys.
        """
        if self._seq and (key is not None) != bool(self._profile_keys):
            raise ValueError("give a key for every profile or for none")
        if key is None:
            node, edge = _ensure_node, _bump_edge
        else:
            self._behind = self._max_key is not None and key < self._max_key
            if self._behind:
                self._reordered = True
            else:
                self._max_key = key
            self._profile_keys.append(key)
            self._key = key
            self._pos = 0
            node, edge = self._keyed_node, self._keyed_edge
        t = task_node(task)
        node(self.graph, t, NodeKind.TASK, task, start=start, end=end,
             order=self._seq)
        self._seq += 1
        return t, node, edge

    # A touch's position only has to grow within its fold.  An in-order
    # fold never lowers a key, so only its creations take a position;
    # a fold behind a larger key numbers every touch.
    def _keyed_node(self, g: nx.DiGraph, node: str, kind: NodeKind,
                    label: str, **attrs) -> None:
        if node not in g:
            self._node_key[node] = (self._key, self._pos)
            self._pos += 1
            _ensure_node(g, node, kind, label, **attrs)
        elif self._behind:
            key = (self._key, self._pos)
            self._pos += 1
            if key < self._node_key[node]:
                self._node_key[node] = key
                g.nodes[node].update(attrs)

    def _keyed_edge(self, g: nx.DiGraph, u: str, v: str, op: str,
                    delta: dict) -> None:
        if delta["count"] == 0 and delta["volume"] == 0:
            return
        if not g.has_edge(u, v):
            self._edge_key[u, v] = (self._key, self._pos)
            self._pos += 1
        elif self._behind:
            key = (self._key, self._pos)
            self._pos += 1
            if key < self._edge_key[u, v]:
                self._edge_key[u, v] = key
        _bump_edge(g, u, v, op, delta)

    # ------------------------------------------------------------------
    # Folds
    # ------------------------------------------------------------------
    def add_profile(self, profile: TaskProfile, key=None) -> None:
        """Fold one task profile into the graph under construction.

        ``key`` places the profile in the canonical sequence (default:
        after every profile folded so far); see the class docstring.
        """
        g = self.graph
        t, node, edge = self._begin(profile.task, profile.span.start,
                                    profile.span.end, key)
        if self.kind == "ftg":
            for stats in profile.dataset_stats:
                f = file_node(stats.file)
                node(g, f, NodeKind.FILE, stats.file)
                if stats.reads:
                    edge(g, f, t, "read", _edge_delta(stats, "read"))
                if stats.writes:
                    edge(g, t, f, "write", _edge_delta(stats, "write"))
            return
        for stats in profile.dataset_stats:
            f = file_node(stats.file)
            node(g, f, NodeKind.FILE, stats.file)
            d = dataset_node(stats.file, stats.data_object)
            label = stats.data_object.lstrip("/") or stats.data_object
            node(g, d, NodeKind.DATASET, label, file=stats.file)
            if stats.reads:
                delta = _edge_delta(stats, "read")
                edge(g, f, d, "read", delta)
                edge(g, d, t, "read", delta)
            if stats.writes:
                delta = _edge_delta(stats, "write")
                edge(g, t, d, "write", delta)
                edge(g, d, f, "write", delta)
            if self.with_regions:
                _wire_regions(g, stats, d, f, self._pages_per_region,
                              self.region_bytes, node, edge)

    def add_stats_columns(self, task: str, start: float, end: float,
                          cols) -> None:
        """Fold one profile's joined-stats *columns* into the graph.

        The bulk path for columnar traces: ``cols`` is a
        :class:`repro.mapper.columnar.StatsColumns` (parallel per-row
        lists) and edge contributions are assembled straight from the
        arrays — no :class:`DatasetIoStats` rows are materialized except,
        when ``with_regions`` is set, the transient slices region wiring
        needs.  Feeding the same profiles in the same order as
        :meth:`add_profile` produces a byte-identical graph.
        """
        g = self.graph
        t, node, edge = self._begin(task, start, end, None)
        is_ftg = self.kind == "ftg"
        files, objects = cols.file, cols.data_object
        for i in range(len(files)):
            reads, writes = cols.reads[i], cols.writes[i]
            file = files[i]
            f = file_node(file)
            node(g, f, NodeKind.FILE, file)

            def delta(count: int, volume: int, i: int = i) -> dict:
                return {
                    "count": count,
                    "volume": volume,
                    "data_ops": cols.data_ops[i],
                    "data_bytes": cols.data_bytes[i],
                    "metadata_ops": cols.metadata_ops[i],
                    "metadata_bytes": cols.metadata_bytes[i],
                    "start": cols.first_start[i],
                    "end": cols.last_end[i],
                    "_io_times": [cols.io_time[i]],
                }

            if is_ftg:
                if reads:
                    edge(g, f, t, "read", delta(reads, cols.bytes_read[i]))
                if writes:
                    edge(g, t, f, "write",
                         delta(writes, cols.bytes_written[i]))
                continue
            obj = objects[i]
            d = dataset_node(file, obj)
            label = obj.lstrip("/") or obj
            node(g, d, NodeKind.DATASET, label, file=file)
            if reads:
                rd = delta(reads, cols.bytes_read[i])
                edge(g, f, d, "read", rd)
                edge(g, d, t, "read", rd)
            if writes:
                wd = delta(writes, cols.bytes_written[i])
                edge(g, t, d, "write", wd)
                edge(g, d, f, "write", wd)
            if self.with_regions:
                if cols.region_runs is None:
                    raise ValueError(
                        "with_regions build needs StatsColumns decoded "
                        "with region runs")
                stats = DatasetIoStats(
                    task=task, file=file, data_object=obj,
                    reads=reads, writes=writes,
                    bytes_read=cols.bytes_read[i],
                    bytes_written=cols.bytes_written[i],
                    data_ops=cols.data_ops[i],
                    data_bytes=cols.data_bytes[i],
                    metadata_ops=cols.metadata_ops[i],
                    metadata_bytes=cols.metadata_bytes[i],
                    io_time=cols.io_time[i],
                    first_start=cols.first_start[i],
                    last_end=cols.last_end[i],
                )
                stats.set_region_runs(cols.region_runs[i])
                _wire_regions(g, stats, d, f, self._pages_per_region,
                              self.region_bytes, node, edge)

    def add_profiles(self, profiles: Iterable[TaskProfile]) -> None:
        for profile in profiles:
            self.add_profile(profile)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def _in_key_order(self) -> nx.DiGraph:
        """A new graph holding the folded one in first-touch order, with
        task ``order`` renumbered by canonical rank.

        Inserting nodes, then edges, each in first-touch order is exactly
        the in-order fold's insertion sequence, so every adjacency (out-
        and in-edges alike) comes out in that fold's order too.
        """
        src = self.graph
        node_key, edge_key = self._node_key, self._edge_key
        ranks = sorted(self._profile_keys)
        task = NodeKind.TASK.value

        def node_attrs(n: str) -> dict:
            attrs = src.nodes[n]
            if attrs["kind"] == task:
                rank = bisect.bisect_left(ranks, node_key[n][0])
                attrs = dict(attrs, order=rank)
            return attrs

        g = nx.DiGraph()
        g.graph.update(src.graph)
        g.add_nodes_from((n, node_attrs(n))
                         for n in sorted(node_key, key=node_key.__getitem__))
        succ = src.succ
        g.add_edges_from((u, v, succ[u][v])
                         for u, v in sorted(edge_key,
                                            key=edge_key.__getitem__))
        return g

    def build(self, copy: bool = True) -> nx.DiGraph:
        """Finalize and return the graph.

        With ``copy=True`` (default) the builder stays usable: further
        :meth:`add_profile` calls keep accumulating and a later ``build``
        reflects them.  ``copy=False`` hands over the internal graph —
        cheaper, but the builder must not be fed afterwards.  After an
        out-of-order arrival the result is always a new graph.
        """
        if self._reordered:
            g = self._in_key_order()
        else:
            g = self.graph.copy() if copy else self.graph
        if self.with_regions:
            _strip_direct_dataset_file_edges(g)
        _finalize_edges(g)
        mark_data_reuse(g)
        return g


def build_ftg(
    profiles: Iterable[TaskProfile],
    task_order: Optional[Sequence[str]] = None,
) -> nx.DiGraph:
    """Build a File-Task Graph from per-task profiles.

    Files and tasks are nodes; a read becomes a ``file → task`` edge and a
    write a ``task → file`` edge, each decorated with the aggregated access
    statistics of every data object moved over it.

    Args:
        profiles: Task profiles, normally in execution order.
        task_order: Explicit execution order (the manual task ordering the
            paper's current FTG construction requires); validated against
            the profiles when given.
    """
    builder = GraphBuilder("ftg")
    builder.add_profiles(_ordered_profiles(profiles, task_order))
    return builder.build(copy=False)


def build_sdg(
    profiles: Iterable[TaskProfile],
    task_order: Optional[Sequence[str]] = None,
    with_regions: bool = False,
    region_bytes: int = 65536,
    page_size: int = 4096,
) -> nx.DiGraph:
    """Build a Semantic Dataflow Graph.

    Adds a data-object layer between files and tasks, and optionally file
    address-region nodes showing where each dataset's content lands in the
    file (the paper's Figure 3 / Figure 8 view).

    Args:
        profiles: Task profiles.
        task_order: Optional explicit execution order.
        with_regions: Insert ``addr[lo-hi)`` nodes between datasets and
            their files.
        region_bytes: Width of one address region in bytes.
        page_size: Page size the profiles' region histograms were recorded
            at (``DaYuConfig.page_size``); region membership is computed
            from those page indices.
    """
    builder = GraphBuilder(
        "sdg", with_regions=with_regions, region_bytes=region_bytes,
        page_size=page_size,
    )
    builder.add_profiles(_ordered_profiles(profiles, task_order))
    return builder.build(copy=False)


def _region_page_counts(
    stats: DatasetIoStats, pages_per_region: int
) -> Dict[int, int]:
    """Page-touch count per address region, from the coalesced page runs.

    Equivalent to summing the per-page histogram grouped by region, but
    O(runs) instead of O(pages): each uniform run is split arithmetically
    at region boundaries.
    """
    counts: Dict[int, int] = defaultdict(int)
    for first, last, count in stats.region_runs():
        r0 = first // pages_per_region
        r1 = last // pages_per_region
        if r0 == r1:
            counts[r0] += (last - first + 1) * count
            continue
        counts[r0] += ((r0 + 1) * pages_per_region - first) * count
        for r in range(r0 + 1, r1):
            counts[r] += pages_per_region * count
        counts[r1] += (last - r1 * pages_per_region + 1) * count
    return counts


def _apportion(total: int, weights: Sequence[int]) -> List[int]:
    """Split an integer ``total`` proportionally to ``weights``, exactly.

    Largest-remainder apportionment: each share gets the floor of its
    exact quota, and the leftover units go to the largest fractional
    remainders (ties broken toward the heavier weight, then the earlier
    index).  The shares always sum to ``total`` — unlike independent
    rounding, which drifts.
    """
    wsum = sum(weights)
    if total <= 0 or wsum <= 0:
        return [0] * len(weights)
    scaled = [total * w for w in weights]
    floors = [s // wsum for s in scaled]
    leftover = total - sum(floors)
    if leftover:
        order = sorted(
            range(len(weights)),
            key=lambda i: (scaled[i] % wsum, weights[i], -i),
            reverse=True,
        )
        for i in order[:leftover]:
            floors[i] += 1
    return floors


#: Integer DatasetIoStats fields sliced per region by :func:`_apportion`.
_APPORTIONED_FIELDS = (
    "reads",
    "writes",
    "bytes_read",
    "bytes_written",
    "data_ops",
    "data_bytes",
    "metadata_ops",
    "metadata_bytes",
)


def _region_slices(
    stats: DatasetIoStats, weights: Sequence[int]
) -> List[DatasetIoStats]:
    """Proportional slices of ``stats``, one per region, conserving totals."""
    wsum = sum(weights)
    shares = {
        name: _apportion(getattr(stats, name), weights)
        for name in _APPORTIONED_FIELDS
    }
    out = []
    for i, weight in enumerate(weights):
        part = DatasetIoStats(
            task=stats.task, file=stats.file, data_object=stats.data_object
        )
        for name, values in shares.items():
            setattr(part, name, values[i])
        part.io_time = stats.io_time * (weight / wsum) if wsum else 0.0
        part.first_start = stats.first_start
        part.last_end = stats.last_end
        out.append(part)
    return out


def _wire_regions(
    g: nx.DiGraph,
    stats: DatasetIoStats,
    d: str,
    f: str,
    pages_per_region: int,
    region_bytes: int,
    node,
    edge,
) -> None:
    """Insert region nodes between a dataset and its file, through the
    fold's node/edge touch functions (see :meth:`GraphBuilder._begin`)."""
    counts = _region_page_counts(stats, pages_per_region)
    if not counts:
        return
    region_ids = sorted(counts)
    slices = _region_slices(stats, [counts[r] for r in region_ids])
    for region_idx, part in zip(region_ids, slices):
        wants_write = stats.writes and (part.writes or part.bytes_written)
        wants_read = stats.reads and (part.reads or part.bytes_read)
        if not (wants_write or wants_read):
            continue
        lo = region_idx * region_bytes
        hi = lo + region_bytes
        r = region_node(stats.file, lo, hi)
        node(
            g, r, NodeKind.REGION, f"addr[{lo}-{hi})", file=stats.file,
            region=(lo, hi),
        )
        if wants_write:
            delta = _edge_delta(part, "write")
            edge(g, d, r, "write", delta)
            edge(g, r, f, "write", delta)
        if wants_read:
            delta = _edge_delta(part, "read")
            edge(g, f, r, "read", delta)
            edge(g, r, d, "read", delta)


def _strip_direct_dataset_file_edges(g: nx.DiGraph) -> None:
    """With region nodes in place, remove redundant dataset↔file edges."""
    drop = []
    for u, v in g.edges:
        ku, kv = g.nodes[u]["kind"], g.nodes[v]["kind"]
        if {ku, kv} == {NodeKind.DATASET.value, NodeKind.FILE.value}:
            drop.append((u, v))
    g.remove_edges_from(drop)


def mark_data_reuse(g: nx.DiGraph) -> List[str]:
    """Flag data nodes consumed by multiple downstream consumers.

    A file or dataset node with more than one outgoing edge means its
    content is reused (the orange edges of the paper's Figure 4).  Sets
    ``reused=True`` on the node and ``reuse=True`` on its out-edges;
    returns the flagged node ids.
    """
    flagged = []
    for node, attrs in g.nodes(data=True):
        if attrs["kind"] in (NodeKind.FILE.value, NodeKind.DATASET.value):
            out = list(g.successors(node))
            reused = len(out) >= 2
            g.nodes[node]["reused"] = reused
            for v in out:
                g.edges[node, v]["reuse"] = reused
            if reused:
                flagged.append(node)
    return flagged
