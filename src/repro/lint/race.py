"""DY5xx — happens-before races with reorder witnesses.

The DY2xx hazards convict conflicts the *observed* dependency DAG left
unordered.  This family goes further, in the spirit of DaYu's semantic
decoding: it compares two happens-before relations over the same run —

- **dependency-only** (:attr:`RaceContext.dep`) — what a dataflow
  scheduler would guarantee: just the workflow DAG / SDG
  producer→consumer edges, nothing else;
- **as-executed** (:attr:`RaceContext.exe`) — what actually ordered the
  run: stage barriers plus the observed completion sequence (post-hoc
  mode) or the stage plan's ranks (pre-run static mode)

— and convicts conflicting accesses that only the *second* relation
orders.  Those orderings are accidents: an out-of-order scheduler
(ROADMAP item 1), a retry after a node death, or a genuinely concurrent
deployment can legally run them the other way.  Every conviction ships a
*witness*: a concrete legal topological reordering of the
dependency-only DAG under which the accesses collide
(:func:`repro.lint.hb.reorder_witness`), so "this could reorder" is
never abstract.

Rules (all ``scope="race"``, opt-in — enable with ``--races`` or
``--select DY5*``):

- **DY501** write-write: two writers of one dataset, unordered under
  dependency-only HB.  Byte-precise overlap via the digests' merged
  extents; provably disjoint selections downgrade to a warning.
- **DY502** read-write: a reader and a writer of one dataset, unordered
  under dependency-only HB; same overlap discrimination.
- **DY503** metadata race: a pure metadata mutator (resize / delete /
  rename — object-scoped metadata writes, zero raw writes) unordered
  against any other toucher of the object.
- **DY504** schedule-sensitivity: conflicting accesses that *are*
  ordered as-executed but not by dependencies — the ordering is
  barrier-carried, not dependency-carried.  Emitted as one per-workflow
  NOTE aggregating the must-preserve edges a future scheduler can
  consume (``dayu-sensitivity/v1``).
- **DY505** retry-exposed race: a task that performed a non-idempotent
  read-modify-write was retried (``repro.faults`` attempt history);
  replaying it after a downstream toucher re-races the access even
  though the dependency DAG orders the pair.

Post-hoc contexts are built by :func:`build_trace_race_context` (row or
columnar traces — identical digests), pre-run ones by
:func:`build_static_race_context` from declared/inferred contracts
(extents in *elements* instead of bytes).  The same rule bodies run over
both, which is what lets CI assert that static and post-hoc modes agree
on the seeded ``racy-pipeline`` overlaps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analyzer.ordering import dependency_dag
from repro.lint.context import (
    ObjectAccess,
    ProfileSummary,
    WorkflowIndex,
    build_index,
    extents_overlap,
    merge_extents,
    summarize_profile,
)
from repro.lint.findings import Finding, Severity
from repro.lint.hb import HbOrder, reorder_witness
from repro.lint.rules import LintConfig, rule

__all__ = [
    "RaceContext",
    "build_trace_race_context",
    "build_static_race_context",
    "replay_witness",
    "sensitivity_report_from_findings",
]

#: Extent sentinel when a static access's position is entirely unknown.
_UNKNOWN_EXTENT = 1 << 60


@dataclass
class RaceContext:
    """Everything the DY5xx rules see: digests plus the two orderings.

    Attributes:
        mode: ``"trace"`` (post-hoc), ``"static"`` (pre-run) or
            ``"stream"`` (mid-run, :mod:`repro.monitor.streamlint`).
        index: The cross-task access join — traced digests post-hoc,
            contract-synthesized ones pre-run.
        dep: Dependency-only happens-before (graph-backed; witnesses
            are linear extensions of it).
        exe: As-executed (total order of the trace) or as-scheduled
            (stage ranks) happens-before.
        attempts: ``task -> attempt count`` from the runner's retry
            bookkeeping (``WorkflowResult``); empty disables DY505.
        units: ``"bytes"`` for traced extents, ``"elements"`` for
            contract selections.
        label: Workflow name when known (static mode); informational.
    """

    mode: str
    index: WorkflowIndex
    dep: HbOrder
    exe: HbOrder
    attempts: Dict[str, int] = field(default_factory=dict)
    units: str = "bytes"
    label: str = ""


# ----------------------------------------------------------------------
# Context builders
# ----------------------------------------------------------------------
def build_trace_race_context(
    profiles: Sequence,
    config: LintConfig,
    summaries: Optional[Sequence[ProfileSummary]] = None,
    attempts: Optional[Dict[str, int]] = None,
) -> RaceContext:
    """The post-hoc context: traced digests under both orderings.

    ``dep`` is the trace-derived dependency DAG (the same oracle the
    DY2xx hazards use), with observed start times as deterministic
    topological tie-breaks; ``exe`` is the observed execution sequence —
    a total order, since the traces record one interleaving.
    """
    if summaries is None:
        summaries = [summarize_profile(p, config.page_size)
                     for p in profiles]
    index = build_index(summaries)
    priority = {s.task: (s.start, s.end, s.task) for s in summaries}
    dep = HbOrder.from_graph(dependency_dag(profiles), priority=priority)
    observed = sorted(priority, key=priority.__getitem__)
    return RaceContext(mode="trace", index=index, dep=dep,
                       exe=HbOrder.total(observed),
                       attempts=dict(attempts or {}), units="bytes")


def _static_access_extents(ctx, a) -> Tuple[List[Tuple[int, int]], bool]:
    """Element-space extents one contract access may touch.

    A hyperslab ``select`` is taken verbatim; otherwise the access is
    widened to the dataset's declared extent (overlap verdicts stay
    conservative; a disjointness proof against a widened range is still
    a proof).  Returns ``(extents, known)`` — ``known=False`` when even
    the dataset extent is undeclared and the range is a sentinel.
    """
    if a.select:
        return [(int(s), int(s + c)) for s, c in a.select], True
    if a.elements == 0 and a.op == "create":
        return [], True  # dataless definition: no data extent at all
    cap = a.extent_elements if a.op == "create" else None
    if cap is None:
        created = ctx.create_access(a.key)
        if created is not None:
            cap = created.extent_elements
    if cap is not None:
        return [(0, int(cap))], True
    return [(0, _UNKNOWN_EXTENT)], False


def build_static_race_context(
    ctx,
    config: LintConfig,
    attempts: Optional[Dict[str, int]] = None,
) -> RaceContext:
    """The pre-run context: contract-synthesized digests, schedule ranks.

    ``ctx`` is a :class:`~repro.lint.predict.StaticContext`.  Each task's
    effective contract becomes an :class:`ObjectAccess` digest with
    extents in *elements*; ``dep`` is the static dataflow DAG (the DY40x
    oracle), ``exe`` the stage plan — parallel-stage tasks share a rank
    (concurrent), serial-stage tasks are ranked by position.
    """
    from repro.lint.predict import _synthetic_span

    summaries: List[ProfileSummary] = []
    for t in ctx.workflow.all_tasks():
        contract = ctx.effective.get(t.name)
        span = _synthetic_span(ctx, t.name)
        summary = ProfileSummary(task=t.name, start=span.start,
                                 end=span.end)
        for a in (contract.accesses if contract is not None else ()):
            acc = summary.objects.get(a.key)
            if acc is None:
                acc = ObjectAccess(task=t.name, file=a.file,
                                   data_object=a.dataset)
                summary.objects[a.key] = acc
            count = max(a.count, 1)
            extents, known = _static_access_extents(ctx, a)
            if a.conditional or not a.exact or not known:
                acc.exact = False
            if a.op == "read":
                acc.raw_reads += count
                acc.read_extents.extend(extents)
                if acc.first_raw_read is None:
                    acc.first_raw_read = span.start
            elif a.op == "write" or (a.op == "create" and a.moves_data):
                acc.raw_writes += count
                acc.write_extents.extend(extents)
                if acc.first_raw_write is None:
                    acc.first_raw_write = span.start
                if a.op == "create":
                    acc.meta_creates += 1
            elif a.op == "create":  # dataless definition
                acc.meta_creates += count
            elif a.op == "resize":
                acc.meta_writes += count
                if acc.first_meta_write is None:
                    acc.first_meta_write = span.start
            else:  # "open"
                acc.meta_reads += count
            if a.op in ("create", "write"):
                summary.files_written.add(a.file)
        for acc in summary.objects.values():
            acc.read_extents = merge_extents(acc.read_extents)
            acc.write_extents = merge_extents(acc.write_extents)
        summaries.append(summary)
    priority = {t: (*ctx.schedule.get(t, (0, 0)), t)
                for t in (x.name for x in ctx.workflow.all_tasks())}
    dep = HbOrder.from_graph(ctx.ordering.dag, priority=priority)
    ranks = {
        t: (si, 0) if ctx.parallel_stage.get(t, True) else (si, pi)
        for t, (si, pi) in ctx.schedule.items()
    }
    return RaceContext(mode="static", index=build_index(summaries),
                       dep=dep, exe=HbOrder.ranked(ranks),
                       attempts=dict(attempts or {}), units="elements",
                       label=ctx.workflow.name)


# ----------------------------------------------------------------------
# Witness helpers
# ----------------------------------------------------------------------
def _observed_pair(ctx: RaceContext, a: str, b: str) -> Tuple[str, str]:
    """The pair in the order the run (or plan) executed it; ties —
    truly concurrent even as-executed — fall back to canonical dep
    position so output stays deterministic."""
    if ctx.exe.ordered_before(a, b):
        return a, b
    if ctx.exe.ordered_before(b, a):
        return b, a
    if ctx.dep.position.get(a, 0) <= ctx.dep.position.get(b, 0):
        return a, b
    return b, a


def _pair_witness(ctx: RaceContext, config: LintConfig,
                  a: str, b: str) -> Optional[dict]:
    first, second = _observed_pair(ctx, a, b)
    return reorder_witness(ctx.dep, first, second,
                           max_tasks=config.witness_max_tasks)


def replay_witness(dep: HbOrder, task: str, after: str,
                   max_tasks: int = 200) -> Optional[dict]:
    """A retry schedule: the canonical dependency order with ``task``
    *replayed* (run a second time, as a node-death retry would) right
    after ``after``.  Same ``dayu-witness/v1`` schema as
    :func:`~repro.lint.hb.reorder_witness`, plus a ``replayed`` key —
    the duplicated entry is the re-executed attempt."""
    if dep.graph is None or dep.cyclic:
        return None
    if task not in dep.position or after not in dep.position:
        return None
    order = list(dep.order)
    anchor = order.index(after)
    order.insert(anchor + 1, task)
    total = len(order)
    lo, hi = 0, total
    if total > max_tasks:
        pivot_lo = order.index(task)  # first (original) attempt
        pivot_hi = anchor + 2
        margin = max((max_tasks - (pivot_hi - pivot_lo)) // 2, 0)
        lo = max(pivot_lo - margin, 0)
        hi = min(pivot_hi + margin, total)
    return {
        "schema": "dayu-witness/v1",
        "reordered": [after, task],
        "replayed": task,
        "order": order[lo:hi],
        "window": [lo, hi],
        "total_tasks": total,
    }


# ----------------------------------------------------------------------
# Shared access predicates
# ----------------------------------------------------------------------
def _writes_anything(acc: ObjectAccess) -> bool:
    return bool(acc.raw_writes or acc.meta_writes or acc.meta_creates)


def _touches(acc: ObjectAccess) -> bool:
    return bool(acc.raw_reads or acc.raw_writes or acc.meta_reads
                or acc.meta_writes or acc.meta_creates)


def _overlap_verdict(ctx: RaceContext, first: ObjectAccess,
                     second: ObjectAccess, first_kind: str,
                     second_kind: str):
    """(severity, detail, overlap) for an extent comparison, mirroring
    DY203's downgrade: provably disjoint selections warn instead of
    erroring, and only *exact* digests can prove disjointness."""
    a = first.write_extents if first_kind == "write" else first.read_extents
    b = (second.write_extents if second_kind == "write"
         else second.read_extents)
    overlap = extents_overlap(a, b)
    exact = first.exact and second.exact
    unit = ctx.units
    if overlap is None and exact:
        return (Severity.WARNING,
                f"their {unit} extents are provably disjoint "
                "(collective partial-access pattern), but metadata "
                "updates still race", None)
    if overlap is None:
        gran = ("page-granular" if unit == "bytes"
                else "declared-extent")
        return (Severity.WARNING,
                f"their {gran} extents are disjoint (exact extents "
                "unavailable)", None)
    lo, hi = overlap
    gran = unit if exact else f"{unit} (approximate)"
    return (Severity.ERROR,
            f"their accesses overlap at {gran} [{lo}, {hi})", overlap)


def _race_pairs(accs: List[ObjectAccess], ctx: RaceContext,
                first_kind: str, second_kind: str):
    """Dep-concurrent task pairs with the given raw access kinds,
    deduplicated per unordered pair, deterministic order."""
    firsts = [a for a in sorted(accs, key=lambda x: x.task)
              if (a.raw_reads if first_kind == "read" else a.raw_writes)]
    seconds = [a for a in sorted(accs, key=lambda x: x.task)
               if (a.raw_reads if second_kind == "read" else a.raw_writes)]
    seen = set()
    for x in firsts:
        for y in seconds:
            if x.task == y.task:
                continue
            pair = tuple(sorted((x.task, y.task)))
            if pair in seen or not ctx.dep.concurrent(x.task, y.task):
                continue
            seen.add(pair)
            yield x, y


# ----------------------------------------------------------------------
# The rules
# ----------------------------------------------------------------------
def _conviction_evidence(ctx: RaceContext, config: LintConfig,
                         x: ObjectAccess, y: ObjectAccess,
                         overlap) -> dict:
    return {
        "overlap": list(overlap) if overlap else None,
        "units": ctx.units,
        "extent_precision": ("exact" if x.exact and y.exact
                             else "approximate"),
        "mode": ctx.mode,
        "witness": _pair_witness(ctx, config, x.task, y.task),
    }


@rule("DY501", "hb-write-write-race", Severity.ERROR, "race",
      "Two tasks write the same dataset with no dependency-only "
      "happens-before path between them — a dataflow scheduler may run "
      "them in either order (WAW).  Provably disjoint selections "
      "downgrade to a warning.  Ships a reorder witness.",
      default_enabled=False)
def _dy501(ctx: RaceContext, config: LintConfig) -> Iterator[Finding]:
    for (file, obj), accs in sorted(ctx.index.by_object.items()):
        for x, y in _race_pairs(accs, ctx, "write", "write"):
            severity, detail, overlap = _overlap_verdict(
                ctx, x, y, "write", "write")
            first, second = _observed_pair(ctx, x.task, y.task)
            yield Finding(
                code="DY501", rule="hb-write-write-race",
                severity=severity,
                subject=f"{file}:{obj}",
                tasks=tuple(sorted((x.task, y.task))),
                message=(
                    f"{x.task} and {y.task} both write {obj} in {file} "
                    "with no dependency-only happens-before path; "
                    f"{detail} — replaying the witness runs {second} "
                    f"before {first} and flips the surviving content"),
                evidence=_conviction_evidence(ctx, config, x, y, overlap),
            )


@rule("DY502", "hb-read-write-race", Severity.ERROR, "race",
      "A task reads a dataset another task writes, with no "
      "dependency-only happens-before path between them — a dataflow "
      "scheduler may run the write first (or last) and change what the "
      "read observes.  Provably disjoint selections downgrade to a "
      "warning.  Ships a reorder witness.",
      default_enabled=False)
def _dy502(ctx: RaceContext, config: LintConfig) -> Iterator[Finding]:
    for (file, obj), accs in sorted(ctx.index.by_object.items()):
        for writer, reader in _race_pairs(accs, ctx, "write", "read"):
            severity, detail, overlap = _overlap_verdict(
                ctx, writer, reader, "write", "read")
            first, second = _observed_pair(ctx, writer.task, reader.task)
            yield Finding(
                code="DY502", rule="hb-read-write-race",
                severity=severity,
                subject=f"{file}:{obj}",
                tasks=tuple(sorted((writer.task, reader.task))),
                message=(
                    f"{reader.task} reads {obj} in {file} while "
                    f"{writer.task} writes it, with no dependency-only "
                    f"happens-before path; {detail} — replaying the "
                    f"witness runs {second} before {first} and changes "
                    "what the read observes"),
                evidence=_conviction_evidence(
                    ctx, config, writer, reader, overlap),
            )


@rule("DY503", "hb-metadata-race", Severity.ERROR, "race",
      "A pure metadata mutator (resize/delete/rename: object-scoped "
      "metadata writes, zero raw writes) is unordered against another "
      "task touching the same dataset — shape or existence changes "
      "under the toucher's feet.  Ships a reorder witness.",
      default_enabled=False)
def _dy503(ctx: RaceContext, config: LintConfig) -> Iterator[Finding]:
    for (file, obj), accs in sorted(ctx.index.by_object.items()):
        ordered = sorted(accs, key=lambda x: x.task)
        mutators = [a for a in ordered
                    if a.meta_writes and not a.raw_writes]
        seen = set()
        for m in mutators:
            for t in ordered:
                if t.task == m.task or not _touches(t):
                    continue
                pair = tuple(sorted((m.task, t.task)))
                if pair in seen or not ctx.dep.concurrent(m.task, t.task):
                    continue
                seen.add(pair)
                first, second = _observed_pair(ctx, m.task, t.task)
                how = ("reads" if t.raw_reads or t.meta_reads
                       else "writes")
                yield Finding(
                    code="DY503", rule="hb-metadata-race",
                    severity=Severity.ERROR,
                    subject=f"{file}:{obj}",
                    tasks=pair,
                    message=(
                        f"{m.task} mutates the metadata of {obj} in "
                        f"{file} (resize/delete/rename) while {t.task} "
                        f"{how} it, with no dependency-only "
                        "happens-before path — the shape or existence "
                        f"changes under {t.task}'s feet; replaying the "
                        f"witness runs {second} before {first}"),
                    evidence={
                        "mutator": m.task,
                        "toucher": t.task,
                        "meta_writes": m.meta_writes,
                        "mode": ctx.mode,
                        "witness": _pair_witness(ctx, config,
                                                 m.task, t.task),
                    },
                )


def _carrier(ctx: RaceContext, before: str, after: str) -> str:
    """What actually ordered an exec-ordered, dep-concurrent pair."""
    if ctx.mode == "trace":
        return "observed-timing"
    # Static mode: ranks encode (stage, position).
    rb = ctx.exe._ranks.get(before)
    ra = ctx.exe._ranks.get(after)
    if rb is not None and ra is not None and rb[0] != ra[0]:
        return "stage-barrier"
    return "serial-stage"


@rule("DY504", "schedule-sensitivity", Severity.NOTE, "race",
      "Conflicting accesses ordered only by stage barriers or observed "
      "timing, not by dataflow dependencies.  One NOTE per workflow "
      "aggregating the must-preserve edges (dayu-sensitivity/v1) an "
      "out-of-order scheduler has to keep.",
      default_enabled=False)
def _dy504(ctx: RaceContext, config: LintConfig) -> Iterator[Finding]:
    edges: Dict[Tuple[str, str], dict] = {}
    for (file, obj), accs in sorted(ctx.index.by_object.items()):
        touchers = [a for a in sorted(accs, key=lambda x: x.task)
                    if _touches(a)]
        for x, y in itertools.combinations(touchers, 2):
            if x.task == y.task:
                continue
            if not (_writes_anything(x) or _writes_anything(y)):
                continue  # two readers never conflict
            if not ctx.dep.concurrent(x.task, y.task):
                continue
            if ctx.exe.ordered_before(x.task, y.task):
                before, after = x.task, y.task
            elif ctx.exe.ordered_before(y.task, x.task):
                before, after = y.task, x.task
            else:
                continue  # unordered even as-executed: a true race
            entry = edges.setdefault((before, after), {
                "before": before,
                "after": after,
                "carrier": _carrier(ctx, before, after),
                "objects": set(),
            })
            entry["objects"].add(f"{file}:{obj}")
    if not edges:
        return
    serialized = [
        {"before": e["before"], "after": e["after"],
         "carrier": e["carrier"], "objects": sorted(e["objects"])}
        for _, e in sorted(edges.items())
    ]
    total = len(serialized)
    kept = serialized[:config.sensitivity_max_edges]
    tasks = sorted({e["before"] for e in serialized}
                   | {e["after"] for e in serialized})
    yield Finding(
        code="DY504", rule="schedule-sensitivity",
        severity=Severity.NOTE,
        subject="schedule-sensitivity",
        tasks=(),
        message=(
            f"{total} ordering(s) between conflicting accesses are "
            "carried by the schedule (stage barriers / observed timing) "
            "rather than by dataflow dependencies — an out-of-order "
            "scheduler must preserve these edges or the outcome changes"),
        evidence={
            "schema": "dayu-sensitivity/v1",
            "mode": ctx.mode,
            "workflow": ctx.label,
            "total_edges": total,
            "truncated": total > len(kept),
            "tasks": tasks,
            "edges": kept,
        },
    )


@rule("DY505", "retry-exposed-race", Severity.ERROR, "race",
      "A retried task performed a non-idempotent read-modify-write; "
      "replaying the lost attempt after a downstream toucher re-races "
      "the access even though the dependency DAG orders the pair.  "
      "Needs attempt history (dayu-lint --attempts).",
      default_enabled=False)
def _dy505(ctx: RaceContext, config: LintConfig) -> Iterator[Finding]:
    if not ctx.attempts:
        return
    for (file, obj), accs in sorted(ctx.index.by_object.items()):
        ordered = sorted(accs, key=lambda x: x.task)
        retried = [a for a in ordered
                   if a.raw_reads and a.raw_writes
                   and ctx.attempts.get(a.task, 1) > 1]
        seen = set()
        for t_acc in retried:
            for u in ordered:
                if u.task == t_acc.task:
                    continue
                if not (u.raw_reads or u.raw_writes):
                    continue
                if not ctx.exe.ordered_before(t_acc.task, u.task):
                    continue
                pair = (t_acc.task, u.task)
                if pair in seen:
                    continue
                seen.add(pair)
                yield Finding(
                    code="DY505", rule="retry-exposed-race",
                    severity=Severity.ERROR,
                    subject=f"{file}:{obj}",
                    tasks=tuple(sorted(pair)),
                    message=(
                        f"{t_acc.task} read-modify-writes {obj} in "
                        f"{file} and was retried "
                        f"({ctx.attempts.get(t_acc.task)} attempts) — "
                        "a replay of the lost attempt landing after "
                        f"{u.task} touches the dataset re-races the "
                        "non-idempotent update (lost or doubled "
                        "increment)"),
                    evidence={
                        "retried": t_acc.task,
                        "attempts": ctx.attempts.get(t_acc.task),
                        "downstream": u.task,
                        "mode": ctx.mode,
                        "witness": replay_witness(
                            ctx.dep, t_acc.task, u.task,
                            max_tasks=config.witness_max_tasks),
                    },
                )


# ----------------------------------------------------------------------
# The sensitivity report (CLI --sensitivity-out)
# ----------------------------------------------------------------------
def sensitivity_report_from_findings(findings: Sequence[Finding],
                                     label: str = "") -> dict:
    """Extract the per-workflow schedule-sensitivity report from a
    finding list (the DY504 evidence, or an empty report when the
    workflow has no barrier-carried orderings)."""
    for f in findings:
        if f.code == "DY504":
            return dict(f.evidence)
    return {
        "schema": "dayu-sensitivity/v1",
        "mode": "",
        "workflow": label,
        "total_edges": 0,
        "truncated": False,
        "tasks": [],
        "edges": [],
    }
