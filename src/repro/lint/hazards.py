"""DY2xx — dataflow hazard rules.

Classic data-race taxonomy lifted to workflow granularity: two tasks
touch the same data object and the trace-derived dependency DAG contains
no happens-before path between them, so a scheduler reorder or a truly
concurrent run can legally produce either outcome.  RAW (a reader races
its producer), WAR (a writer races an earlier reader), WAW (two
producers race each other), byte-extent overlap between unordered
writers within one file, and the degenerate case — the "DAG" has a
cycle, so no consistent order exists at all.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List

from repro.lint.context import (
    ObjectAccess,
    OrderingInfo,
    WorkflowIndex,
    extents_overlap,
)
from repro.lint.findings import Finding, Severity
from repro.lint.rules import LintConfig, rule

__all__ = []  # rules register themselves; nothing to import by name


def _racing_pairs(accs: List[ObjectAccess], ordering: OrderingInfo,
                  first_kind: str, second_kind: str):
    """Unordered task pairs where one side did ``first_kind`` raw access
    and the other ``second_kind`` (read/write), deduplicated per pair."""
    firsts = [a for a in accs if (a.raw_read if first_kind == "read"
                                  else a.raw_written)]
    seconds = [a for a in accs if (a.raw_read if second_kind == "read"
                                   else a.raw_written)]
    seen = set()
    for x in firsts:
        for y in seconds:
            if x.task == y.task:
                continue
            pair = tuple(sorted((x.task, y.task)))
            if pair in seen or ordering.ordered(x.task, y.task):
                continue
            seen.add(pair)
            yield x, y


def _classified_read_write_races(index: WorkflowIndex,
                                 ordering: OrderingInfo):
    """Unordered reader/writer pairs, split RAW vs WAR by the order the
    trace happened to observe (either order is legal at runtime)."""
    for (file, obj), accs in sorted(index.by_object.items()):
        for writer, reader in _racing_pairs(accs, ordering, "write", "read"):
            w, r = writer.first_raw_write, reader.first_raw_read
            raw = w is None or r is None or w <= r
            yield ("raw" if raw else "war"), file, obj, writer, reader


@rule("DY201", "read-after-write-race", Severity.ERROR, "workflow",
      "A task reads a dataset another task wrote, with no happens-before "
      "path between them — under reordering the read can observe a "
      "partial or missing write (RAW race).")
def _raw_race(index: WorkflowIndex, ordering: OrderingInfo,
              config: LintConfig) -> Iterator[Finding]:
    for kind, file, obj, writer, reader in _classified_read_write_races(
            index, ordering):
        if kind != "raw":
            continue
        yield Finding(
            code="DY201", rule="read-after-write-race",
            severity=Severity.ERROR,
            subject=f"{file}:{obj}",
            tasks=tuple(sorted((writer.task, reader.task))),
            message=(
                f"{reader.task} reads {obj} in {file} after {writer.task} "
                "wrote it in this trace, but no dependency path orders "
                "them — a reorder can starve the read of its input"),
            evidence={"writer": writer.task, "reader": reader.task},
        )


@rule("DY202", "write-after-read-race", Severity.ERROR, "workflow",
      "A task overwrites a dataset another task read, with no "
      "happens-before path between them — under reordering the write can "
      "clobber the data before it is consumed (WAR race).")
def _war_race(index: WorkflowIndex, ordering: OrderingInfo,
              config: LintConfig) -> Iterator[Finding]:
    for kind, file, obj, writer, reader in _classified_read_write_races(
            index, ordering):
        if kind != "war":
            continue
        yield Finding(
            code="DY202", rule="write-after-read-race",
            severity=Severity.ERROR,
            subject=f"{file}:{obj}",
            tasks=tuple(sorted((writer.task, reader.task))),
            message=(
                f"{writer.task} overwrites {obj} in {file} after "
                f"{reader.task} read it in this trace, but no dependency "
                "path orders them — a reorder can clobber the data before "
                "it is consumed"),
            evidence={"writer": writer.task, "reader": reader.task},
        )


@rule("DY203", "unordered-double-write", Severity.ERROR, "workflow",
      "Two tasks write the same dataset with no happens-before path "
      "between them — the surviving content depends on scheduling (WAW "
      "race).  Downgraded to a warning when their byte extents are "
      "provably disjoint (collective partial-write pattern).")
def _double_write(index: WorkflowIndex, ordering: OrderingInfo,
                  config: LintConfig) -> Iterator[Finding]:
    for (file, obj), accs in sorted(index.by_object.items()):
        for a, b in _racing_pairs(accs, ordering, "write", "write"):
            overlap = extents_overlap(a.write_extents, b.write_extents)
            exact = a.exact and b.exact
            if overlap is None and exact:
                severity = Severity.WARNING
                detail = ("their byte extents are disjoint (collective "
                          "partial-write pattern), but metadata updates "
                          "still race")
            elif overlap is None:
                severity = Severity.WARNING
                detail = ("their page-granular extents are disjoint "
                          "(per-operation records unavailable for an "
                          "exact check)")
            else:
                severity = Severity.ERROR
                lo, hi = overlap
                gran = "bytes" if exact else "pages (approximate)"
                detail = (f"their writes overlap at {gran} "
                          f"[{lo}, {hi}) — last scheduled writer wins")
            yield Finding(
                code="DY203", rule="unordered-double-write",
                severity=severity,
                subject=f"{file}:{obj}",
                tasks=tuple(sorted((a.task, b.task))),
                message=(
                    f"{a.task} and {b.task} both write {obj} in {file} "
                    f"with no dependency path between them; {detail}"),
                evidence={
                    "overlap": list(overlap) if overlap else None,
                    "extent_precision": "byte" if exact else "page",
                },
            )


@rule("DY204", "cross-object-write-overlap", Severity.ERROR, "workflow",
      "Unordered tasks write byte ranges that alias across *different* "
      "objects in the same file (e.g. reallocated space or a shared "
      "chunk) — silent corruption under reordering.")
def _cross_object_overlap(index: WorkflowIndex, ordering: OrderingInfo,
                          config: LintConfig) -> Iterator[Finding]:
    by_file = {}
    for (file, obj), accs in index.by_object.items():
        for a in accs:
            if a.raw_written and a.exact and a.write_extents:
                by_file.setdefault(file, []).append(a)
    for file in sorted(by_file):
        writers = by_file[file]
        seen = set()
        for a, b in itertools.combinations(writers, 2):
            if a.data_object == b.data_object or a.task == b.task:
                continue  # same-object races are DY203's
            key = (tuple(sorted((a.task, b.task))),
                   tuple(sorted((a.data_object, b.data_object))))
            if key in seen or ordering.ordered(a.task, b.task):
                continue
            overlap = extents_overlap(a.write_extents, b.write_extents)
            if overlap is None:
                continue
            seen.add(key)
            lo, hi = overlap
            yield Finding(
                code="DY204", rule="cross-object-write-overlap",
                severity=Severity.ERROR,
                subject=f"{file}:{a.data_object}|{b.data_object}",
                tasks=tuple(sorted((a.task, b.task))),
                message=(
                    f"unordered tasks {a.task} and {b.task} write "
                    f"overlapping bytes [{lo}, {hi}) of {file} through "
                    f"different objects ({a.data_object} vs "
                    f"{b.data_object}) — the allocations alias"),
                evidence={"overlap": [lo, hi],
                          "objects": sorted((a.data_object, b.data_object))},
            )


@rule("DY205", "dependency-cycle", Severity.ERROR, "workflow",
      "The producer→consumer relations recovered from the traces form a "
      "cycle; no execution order is consistent with the dataflow.")
def _dependency_cycle(index: WorkflowIndex, ordering: OrderingInfo,
                      config: LintConfig) -> Iterator[Finding]:
    if ordering.cycle:
        path = " -> ".join([*ordering.cycle, ordering.cycle[0]])
        yield Finding(
            code="DY205", rule="dependency-cycle",
            severity=Severity.ERROR,
            subject=path,
            tasks=tuple(sorted(ordering.cycle)),
            message=(
                f"tasks form a dependency cycle: {path}; ordering-based "
                "hazard checks treat these tasks as mutually reachable "
                "and may under-report races among them"),
            evidence={"cycle": list(ordering.cycle)},
        )
