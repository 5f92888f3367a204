"""Streaming lint: the batch DY2xx/DY302/DY5xx rules evaluated mid-run.

The batch engine (:mod:`repro.lint`) sees finished profiles; this module
sees the live :class:`~repro.monitor.events.VfdOp` stream and raises
alerts *while the workflow is still running*.  It has no rule logic of
its own, only the batch rules' inputs, built incrementally:

- each recorded operation on a data object is folded into the batch
  :class:`~repro.lint.context.ObjectAccess` digest
  (:func:`~repro.lint.context.fold_record`); a digest keeps at most
  :data:`MAX_EXTENTS_PER_ACCESS` merged extents, beyond which it
  collapses to its bounding interval and is marked inexact;
- per-(task, file) first-read/first-write times feed
  :func:`~repro.analyzer.ordering.dag_from_first_access`, the graph
  :func:`~repro.analyzer.ordering.dependency_dag` builds post-hoc; task
  lifecycle events give each task's span, batch's tie-break order.

When a task touches an object with a kind of access it had not used
there and another task already touched it, the registered DY201/202/203
rules run over a one-object :class:`~repro.lint.context.WorkflowIndex`;
with ``races=True`` so do DY501/502/503, over a ``RaceContext`` in
``"stream"`` mode whose witnesses reorder the DAG seen so far (DY504/505
are whole-run and never stream).  DY302 checks each operation with
:func:`~repro.lint.integrity.invalid_record_finding`, as batch does.
Alerts carry the batch wording and fingerprints.

A happens-before edge can appear *retroactively* (a later write lowers
the producer's first-write time), so :meth:`StreamLint.finalize` runs
the same rules over the whole online index: confirmed findings are
returned and alerts whose hazard did not survive are marked
``retracted``.  For the streamed codes the confirmed findings equal
batch ``lint_profiles``' on every bundled workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.analyzer.ordering import dag_from_first_access, note_first
from repro.lint.context import (
    ObjectAccess,
    OrderingInfo,
    WorkflowIndex,
    fold_record,
    merge_extents,
)
from repro.lint.findings import Finding
from repro.lint.hb import HbOrder
from repro.lint.integrity import invalid_record_finding
from repro.lint.race import RaceContext
from repro.lint.rules import LintConfig, get_rule
from repro.mapper.stats import FILE_METADATA_OBJECT
from repro.monitor.events import MonitorEvent, VfdOp
from repro.vfd.base import IoClass

__all__ = ["StreamAlert", "StreamLint", "MAX_EXTENTS_PER_ACCESS"]

#: Merged extents kept per (task, object) digest before it collapses to
#: its bounding interval.
MAX_EXTENTS_PER_ACCESS = 64

_HAZARD_CODES = ("DY201", "DY202", "DY203")
_RACE_CODES = ("DY501", "DY502", "DY503")


@dataclass
class StreamAlert:
    """One mid-run lint alert: a finding plus when it fired."""

    finding: Finding
    time: float
    #: Set by :meth:`StreamLint.finalize` when a later happens-before
    #: edge ordered the pair after all (the hazard did not survive).
    retracted: bool = False


def _kinds(acc: ObjectAccess) -> Tuple[bool, bool, bool, bool]:
    return (acc.raw_reads > 0, acc.raw_writes > 0,
            acc.meta_reads > 0, acc.meta_writes > 0)


def _index(by_object: Dict[Tuple[str, str], List[ObjectAccess]]
           ) -> WorkflowIndex:
    return WorkflowIndex(summaries=[], by_object=by_object,
                         file_writers={}, exact=True)


class StreamLint:
    """Online evaluator of the streamable batch rules (module doc).

    ``races=True`` also streams DY501/502/503 (the DY5xx family is
    opt-in batch-side too).
    """

    def __init__(
        self,
        on_alert: Optional[Callable[[StreamAlert], None]] = None,
        races: bool = False,
    ) -> None:
        self.on_alert = on_alert
        self.races = races
        #: Alerts in emission order (including any later retracted).
        self.alerts: List[StreamAlert] = []
        self._config = LintConfig()
        self._hazard_rules = [get_rule(c) for c in _HAZARD_CODES]
        self._race_rules = [get_rule(c) for c in _RACE_CODES] if races else []
        # (task, file, object) -> [first op start, has read, has write]:
        # the joined-stats rows dependency_dag reads first_start from.
        self._rows: Dict[Tuple[str, str, str], list] = {}
        # file -> task -> first-access time, over rows with a read/write.
        self._first_read: Dict[str, Dict[str, float]] = {}
        self._first_write: Dict[str, Dict[str, float]] = {}
        # task -> first op start, and task -> (start, end) of its current
        # attempt from the lifecycle events (end +inf while running): the
        # DAG's nodes and batch's (start, end, task) tie-break.
        self._task_start: Dict[str, float] = {}
        self._spans: Dict[str, Tuple[float, float]] = {}
        # (file, object) -> task -> digest, tasks in first-touch order.
        self._objects: Dict[Tuple[str, str], Dict[str, ObjectAccess]] = {}
        # Orderings over the current first-access times and task spans
        # (None = stale); the HbOrder pair only with races.
        self._ordering: Optional[OrderingInfo] = None
        self._hb: Optional[Tuple[HbOrder, HbOrder]] = None
        self._fingerprints: Set[str] = set()
        self._finalized: Optional[List[Finding]] = None

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def handle(self, event: MonitorEvent) -> None:
        """Bus handler; subscribe with the lossless (block) policy."""
        if event.kind != "vfd_op":
            self._observe_task(event)
            return
        op: VfdOp = event  # type: ignore[assignment]
        if not op.recorded:
            # The post-hoc engine only ever sees recorded operations;
            # mirroring that subset is what keeps fingerprints aligned.
            return
        self._finalized = None
        task = op.task or ""
        invalid = invalid_record_finding(op, task)
        if invalid is not None:
            self._emit(invalid, op.time)
        self._observe_ordering(op, task)
        self._observe_object(op, task)

    def _observe_task(self, event: MonitorEvent) -> None:
        kind = event.kind
        if kind == "task_started":
            self._spans[event.task] = (event.time, math.inf)
        elif kind == "task_finished":
            span = event.profile.span  # type: ignore[attr-defined]
            self._spans[event.task] = (span.start, span.end)
        elif kind == "task_failed":
            # Batch never sees a failed attempt's profile.
            self._spans.pop(event.task, None)
        else:
            return
        self._finalized = self._ordering = self._hb = None

    def _observe_ordering(self, op: VfdOp, task: str) -> None:
        key = (task, op.file, op.data_object or FILE_METADATA_OBJECT)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [op.start, False, False]
        elif op.start < row[0]:
            row[0] = op.start
        row[1 if op.op == "read" else 2] = True
        for seen, firsts in ((row[1], self._first_read),
                             (row[2], self._first_write)):
            if seen and note_first(firsts.setdefault(op.file, {}), task,
                                   row[0]):
                self._ordering = self._hb = None
        note_first(self._task_start, task, op.start)

    def _observe_object(self, op: VfdOp, task: str) -> None:
        obj = op.data_object
        if obj is None or obj == FILE_METADATA_OBJECT:
            return
        if op.io_class is not IoClass.RAW and not self.races:
            return  # object metadata only matters to DY503
        accesses = self._objects.setdefault((op.file, obj), {})
        acc = accesses.get(task)
        if acc is None:
            acc = accesses[task] = ObjectAccess(task=task, file=op.file,
                                                data_object=obj)
        kinds = _kinds(acc)
        fold_record(acc, op, op.io_class)
        if op.io_class is IoClass.RAW:
            if op.op == "write":
                acc.write_extents = self._bounded(acc, acc.write_extents)
            elif self.races:
                acc.read_extents = self._bounded(acc, acc.read_extents)
            else:
                acc.read_extents = []  # only DY502 compares read extents
        if len(accesses) > 1 and _kinds(acc) != kinds:
            # A new (task, kind) touch is the only transition that can
            # create a hazard pair — re-run the rules on this object.
            index = _index({(op.file, obj): list(accesses.values())})
            for finding in self._findings(index):
                self._emit(finding, op.time)

    @staticmethod
    def _bounded(acc: ObjectAccess, extents) -> List[Tuple[int, int]]:
        extents = merge_extents(extents)
        if len(extents) > MAX_EXTENTS_PER_ACCESS:
            acc.exact = False
            return [(extents[0][0], extents[-1][1])]
        return extents

    def _emit(self, finding: Finding, time: float) -> None:
        if finding.fingerprint in self._fingerprints:
            return
        self._fingerprints.add(finding.fingerprint)
        alert = StreamAlert(finding=finding, time=time)
        self.alerts.append(alert)
        if self.on_alert is not None:
            self.on_alert(alert)

    # ------------------------------------------------------------------
    # The batch rules over online state
    # ------------------------------------------------------------------
    def _findings(self, index: WorkflowIndex) -> Iterator[Finding]:
        if self._ordering is None:
            # Batch's order key: (span start, span end, task); a task
            # known only by its operations starts at its first one.
            priority = {t: (s, math.inf, t)
                        for t, s in self._task_start.items()}
            priority.update((t, (*span, t))
                            for t, span in self._spans.items())
            self._ordering = OrderingInfo(dag_from_first_access(
                priority, self._first_write, self._first_read))
            if self.races:
                self._hb = (
                    HbOrder.from_graph(self._ordering.dag, priority=priority),
                    HbOrder.total(sorted(priority, key=priority.__getitem__)))
        for r in self._hazard_rules:
            yield from r.check(index, self._ordering, self._config)
        if not self._race_rules:
            return
        dep, exe = self._hb
        ctx = RaceContext(mode="stream", index=index, dep=dep, exe=exe)
        for r in self._race_rules:
            yield from r.check(ctx, self._config)

    def finalize(self) -> List[Finding]:
        """Re-validate against the complete trace and return the confirmed
        findings (deterministic batch order); mid-run alerts whose pair
        gained a happens-before edge are marked ``retracted``."""
        if self._finalized is not None:
            return list(self._finalized)
        index = _index({key: list(accesses.values())
                        for key, accesses in self._objects.items()})
        confirmed = {f.fingerprint: f for f in self._findings(index)}
        for alert in self.alerts:
            if alert.finding.code == "DY302":
                # Field validity never changes: always confirmed.
                confirmed.setdefault(alert.finding.fingerprint, alert.finding)
            else:
                alert.retracted = alert.finding.fingerprint not in confirmed
        self._finalized = sorted(confirmed.values(), key=Finding.sort_key)
        return list(self._finalized)

    @property
    def findings(self) -> List[Finding]:
        """Confirmed findings (finalizes on first access)."""
        return self.finalize()

    def stats(self) -> Dict[str, object]:
        return {
            "alerts": len(self.alerts),
            "retracted": sum(1 for a in self.alerts if a.retracted),
            "tracked_objects": len(self._objects),
            "tracked_rows": len(self._rows),
        }
