"""Access summaries the cross-task lint rules are evaluated against.

Hazard (DY2xx) and cross-task semantic (DY1xx) rules never walk raw
profiles directly; they consume one :class:`ObjectAccess` per
``(task, file, data_object)`` triple — a compact, picklable digest of who
touched which bytes of which object, at which layer, when.  Digests are
built per profile (:func:`summarize_profile`), once per task, and only
the small summaries enter the cross-task join.  Streaming lint
(:mod:`repro.monitor.streamlint`) folds live operations into the same
digests through :func:`fold_record`.

Two precision tiers, decided per profile:

- **exact** — the profile still carries its per-operation
  :class:`~repro.vfd.tracing.VfdIoRecord` list; raw-data byte extents and
  operation times come straight from the records.
- **approximate** — records were dropped (``with_io_records=False`` loads
  or ``trace_io=False`` captures); the digest falls back to the joined
  :class:`~repro.mapper.stats.DatasetIoStats` rows, whose page-granular
  region runs bound the extents and whose read/write raw split is inferred
  conservatively (a mixed read+write row counts as both).  Byte-precise
  rules (DY204 overlap discrimination, DY303/DY305 record reconciliation)
  degrade or skip on approximate digests rather than guess.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.analyzer.ordering import dependency_dag, find_dependency_cycle
from repro.mapper.mapper import TaskProfile
from repro.mapper.stats import FILE_METADATA_OBJECT
from repro.vfd.base import IoClass

__all__ = [
    "ObjectAccess",
    "ProfileSummary",
    "WorkflowIndex",
    "OrderingInfo",
    "merge_extents",
    "fold_record",
    "extents_overlap",
    "summarize_profile",
    "build_index",
    "compute_ordering",
    "execution_order",
]


def merge_extents(extents: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sorted, disjoint union of half-open byte intervals ``[lo, hi)``."""
    out: List[Tuple[int, int]] = []
    for lo, hi in sorted(e for e in extents if e[1] > e[0]):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def extents_overlap(
    a: Sequence[Tuple[int, int]], b: Sequence[Tuple[int, int]]
) -> Optional[Tuple[int, int]]:
    """First overlapping byte range between two merged extent lists."""
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            return (lo, hi)
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return None


@dataclass
class ObjectAccess:
    """One task's raw-data interaction with one data object.

    ``vol_*`` fields carry the VOL (semantic) layer's accounting for the
    same object, so rules can cross-check the two layers.  Extents are
    merged half-open byte intervals; on approximate digests they are page
    bounds, not exact bytes (``exact`` is False then).
    """

    task: str
    file: str
    data_object: str
    raw_reads: int = 0
    raw_writes: int = 0
    raw_read_bytes: int = 0
    raw_write_bytes: int = 0
    first_raw_read: Optional[float] = None
    first_raw_write: Optional[float] = None
    last_raw_read: Optional[float] = None
    last_raw_write: Optional[float] = None
    read_extents: List[Tuple[int, int]] = field(default_factory=list)
    write_extents: List[Tuple[int, int]] = field(default_factory=list)
    #: Object-scoped metadata traffic (resize/attribute/shape queries) —
    #: a task with ``meta_writes`` but no raw writes is a pure metadata
    #: mutator (the DY503 subject).  Approximate digests infer these from
    #: pure-metadata stats rows.
    meta_reads: int = 0
    meta_writes: int = 0
    #: Dataset *definitions* (dataless creates) — metadata production,
    #: not mutation; kept apart so creators never read as DY503
    #: mutators.  Only the static (contract-synthesized) digests can
    #: distinguish these; traced metadata records fold them into
    #: ``meta_writes``, where the creator's file-metadata writes order
    #: it against readers in the dependency DAG instead.
    meta_creates: int = 0
    first_meta_write: Optional[float] = None
    vol_reads: int = 0
    vol_writes: int = 0
    vol_elements_read: int = 0
    vol_elements_written: int = 0
    #: Storage layout the VOL layer recorded for the object ("" if the
    #: task's trace never captured it).
    layout: str = ""
    exact: bool = True

    @property
    def raw_read(self) -> bool:
        return self.raw_reads > 0

    @property
    def raw_written(self) -> bool:
        return self.raw_writes > 0


@dataclass
class ProfileSummary:
    """Digest of one task profile for the cross-task rules."""

    task: str
    start: float
    end: float
    #: (file, data_object) -> ObjectAccess, File-Metadata excluded.
    objects: Dict[Tuple[str, str], ObjectAccess] = field(default_factory=dict)
    #: Files this task wrote at all (any class — marks in-workflow files).
    files_written: Set[str] = field(default_factory=set)
    exact: bool = True


def fold_record(acc: ObjectAccess, rec, io_class: IoClass) -> None:
    """Fold one operation on ``acc``'s object into the digest.

    ``rec`` is a saved :class:`~repro.vfd.tracing.VfdIoRecord` or a live
    :class:`~repro.monitor.events.VfdOp` (both carry ``op``, ``offset``,
    ``nbytes`` and ``start``); ``io_class`` is its I/O class.  Extents are
    appended unmerged — callers merge them with :func:`merge_extents`.
    """
    if io_class is not IoClass.RAW:
        # Object-scoped metadata traffic (resize updates the shape
        # message, shape queries read it) — tracked for DY503.
        if rec.op == "write":
            acc.meta_writes += 1
            if acc.first_meta_write is None or \
                    rec.start < acc.first_meta_write:
                acc.first_meta_write = rec.start
        else:
            acc.meta_reads += 1
        return
    extent = (rec.offset, rec.offset + rec.nbytes)
    if rec.op == "read":
        acc.raw_reads += 1
        acc.raw_read_bytes += rec.nbytes
        acc.read_extents.append(extent)
        if acc.first_raw_read is None or rec.start < acc.first_raw_read:
            acc.first_raw_read = rec.start
        if acc.last_raw_read is None or rec.start > acc.last_raw_read:
            acc.last_raw_read = rec.start
    else:
        acc.raw_writes += 1
        acc.raw_write_bytes += rec.nbytes
        acc.write_extents.append(extent)
        if acc.first_raw_write is None or rec.start < acc.first_raw_write:
            acc.first_raw_write = rec.start
        if acc.last_raw_write is None or rec.start > acc.last_raw_write:
            acc.last_raw_write = rec.start


def _summary_from_records(profile: TaskProfile,
                          summary: ProfileSummary) -> None:
    for rec in profile.io_records:
        if rec.op == "write":
            summary.files_written.add(rec.file)
        obj = rec.data_object
        if obj is None or obj == FILE_METADATA_OBJECT:
            continue
        key = (rec.file, obj)
        acc = summary.objects.get(key)
        if acc is None:
            acc = ObjectAccess(task=profile.task, file=rec.file,
                               data_object=obj)
            summary.objects[key] = acc
        fold_record(acc, rec, rec.access_type)


def _summary_from_stats(profile: TaskProfile, summary: ProfileSummary,
                        page_size: int) -> None:
    """Conservative fallback when per-operation records are unavailable.

    The joined stats don't split raw operations by direction, so a mixed
    read+write row is assumed to have done both kinds of raw access, and
    byte extents are widened to the page runs of the region histogram.
    """
    summary.exact = False
    for s in profile.dataset_stats:
        if s.writes:
            summary.files_written.add(s.file)
        if s.data_object == FILE_METADATA_OBJECT:
            continue
        if s.data_ops == 0:
            # Pure-metadata row: no raw traffic, but resize/lookup
            # activity against the object is still DY503-relevant.
            if s.metadata_ops and (s.reads or s.writes):
                acc = ObjectAccess(task=profile.task, file=s.file,
                                   data_object=s.data_object, exact=False)
                acc.meta_reads = s.reads
                acc.meta_writes = s.writes
                if s.writes:
                    acc.first_meta_write = s.first_start
                summary.objects[(s.file, s.data_object)] = acc
            continue
        acc = ObjectAccess(task=profile.task, file=s.file,
                           data_object=s.data_object, exact=False)
        page_extents = [
            (first * page_size, (last + 1) * page_size)
            for first, last, _ in s.region_runs()
        ]
        reads_raw = s.reads > 0
        writes_raw = s.writes > 0
        if reads_raw and writes_raw and s.data_ops == 1:
            # A single raw op can't be both; trust the recorded first kind.
            reads_raw = s.first_raw_op == "read"
            writes_raw = s.first_raw_op == "write"
        if reads_raw:
            acc.raw_reads = max(s.data_ops - (1 if writes_raw else 0), 1)
            acc.raw_read_bytes = s.bytes_read
            acc.first_raw_read = s.first_start
            acc.last_raw_read = s.last_end
            acc.read_extents = list(page_extents)
        if writes_raw:
            acc.raw_writes = max(s.data_ops - (1 if reads_raw else 0), 1)
            acc.raw_write_bytes = s.bytes_written
            acc.first_raw_write = s.first_start
            acc.last_raw_write = s.last_end
            acc.write_extents = list(page_extents)
        if acc.raw_reads or acc.raw_writes:
            summary.objects[(s.file, s.data_object)] = acc


def summarize_profile(profile: TaskProfile,
                      page_size: int = 4096) -> ProfileSummary:
    """Build the cross-task digest of one profile (see module docstring)."""
    summary = ProfileSummary(
        task=profile.task, start=profile.span.start, end=profile.span.end)
    if profile.io_records:
        _summary_from_records(profile, summary)
        # Metadata-only writers (e.g. a task that created datasets without
        # writing data) still mark the file as produced in-workflow.
        for s in profile.dataset_stats:
            if s.writes:
                summary.files_written.add(s.file)
    else:
        _summary_from_stats(profile, summary, page_size)
    for op in profile.object_profiles:
        key = (op.file, op.object_name)
        acc = summary.objects.get(key)
        if acc is None and (op.reads or op.writes):
            acc = ObjectAccess(task=profile.task, file=op.file,
                               data_object=op.object_name,
                               exact=summary.exact)
            summary.objects[key] = acc
        if acc is not None:
            acc.vol_reads += op.reads
            acc.vol_writes += op.writes
            acc.vol_elements_read += op.elements_read
            acc.vol_elements_written += op.elements_written
            if op.layout:
                acc.layout = op.layout
    for acc in summary.objects.values():
        acc.read_extents = merge_extents(acc.read_extents)
        acc.write_extents = merge_extents(acc.write_extents)
    return summary


@dataclass
class WorkflowIndex:
    """The cross-task join: every task's digest, grouped per object."""

    summaries: List[ProfileSummary]
    #: (file, data_object) -> accesses by task, in task-digest order.
    by_object: Dict[Tuple[str, str], List[ObjectAccess]]
    #: file -> tasks that wrote it at all (any I/O class).
    file_writers: Dict[str, Set[str]]
    exact: bool
    #: The decoded profiles the digests came from, in execution order
    #: (:func:`execution_order`), for the DY7xx advisory rules that need
    #: fields the digests drop (object sizes, dtypes, first raw operation,
    #: session sequentiality).  Empty when the index was built from
    #: digests alone (race and static contexts).
    profiles: List[TaskProfile] = field(default_factory=list)

    def tasks(self) -> List[str]:
        return [s.task for s in self.summaries]


class OrderingInfo:
    """Happens-before oracle over the trace-derived dependency DAG.

    Reachability (computed lazily per source task and memoised) is the
    hazard rules' definition of ordering: two tasks with no directed path
    between them in either direction are concurrent as far as the traces
    can prove, and conflicting accesses between them are races.
    """

    def __init__(self, dag: "nx.DiGraph", cycle: Sequence[str] = ()):
        self.dag = dag
        #: Tasks forming a dependency cycle, empty when the graph is a DAG.
        self.cycle: List[str] = list(cycle)
        self._desc: Dict[str, Set[str]] = {}

    def descendants(self, task: str) -> Set[str]:
        if task not in self._desc:
            if task in self.dag:
                self._desc[task] = set(nx.descendants(self.dag, task))
            else:
                self._desc[task] = set()
        return self._desc[task]

    def ordered(self, a: str, b: str) -> bool:
        """True when a happens-before path exists in either direction."""
        return b in self.descendants(a) or a in self.descendants(b)


def compute_ordering(profiles: Sequence[TaskProfile],
                     dag: Optional["nx.DiGraph"] = None) -> OrderingInfo:
    """Build the happens-before oracle (and note any dependency cycle)
    over ``dag``, the profiles' dependency DAG (built when not given)."""
    if dag is None:
        dag = dependency_dag(profiles)
    return OrderingInfo(dag, find_dependency_cycle(dag))


def execution_order(profiles: Sequence[TaskProfile],
                    task_order: Optional[Sequence[str]] = None,
                    ) -> List[TaskProfile]:
    """``profiles`` in the order the workflow ran them.

    That is ``task_order``'s order when one is given (a recovered order
    such as :func:`repro.analyzer.infer_task_order`'s; tasks it omits go
    last), else ``(span.start, task)`` — the same sequence whichever order
    a trace directory or a columnar run file was loaded in.
    """
    if task_order is None:
        return sorted(profiles, key=lambda p: (p.span.start, p.task))
    rank = {task: i for i, task in enumerate(task_order)}
    return sorted(profiles, key=lambda p: (rank.get(p.task, len(rank)),
                                           p.span.start, p.task))


def build_index(summaries: Sequence[ProfileSummary],
                profiles: Sequence[TaskProfile] = (),
                task_order: Optional[Sequence[str]] = None) -> WorkflowIndex:
    by_object: Dict[Tuple[str, str], List[ObjectAccess]] = defaultdict(list)
    file_writers: Dict[str, Set[str]] = defaultdict(set)
    for summary in summaries:
        for key, acc in summary.objects.items():
            by_object[key].append(acc)
        for file in summary.files_written:
            file_writers[file].add(summary.task)
    return WorkflowIndex(
        summaries=list(summaries),
        by_object=dict(by_object),
        file_writers=dict(file_writers),
        exact=all(s.exact for s in summaries),
        profiles=execution_order(profiles, task_order),
    )
