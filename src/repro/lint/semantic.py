"""DY1xx — semantic anti-pattern rules.

Dataflow shapes that are legal but almost always wrong or wasteful,
visible only when the VOL layer's object semantics and the VFD layer's
byte movements are joined: a write whose value is replaced before anyone
reads it, a read of data nothing ever produced, an access stream ground
into tiny operations, one dataset described with two different layouts.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.lint.context import (
    ObjectAccess,
    OrderingInfo,
    WorkflowIndex,
    extents_overlap,
)
from repro.lint.findings import Finding, Severity
from repro.lint.rules import LintConfig, rule
from repro.mapper.mapper import TaskProfile
from repro.mapper.stats import FILE_METADATA_OBJECT

__all__ = []  # rules register themselves; nothing to import by name


def _read_windows(accs: List[ObjectAccess]) -> List[Tuple[float, float]]:
    """Each task's raw-read time window over the object."""
    out = []
    for acc in accs:
        if acc.raw_read and acc.first_raw_read is not None:
            last = acc.last_raw_read
            out.append((acc.first_raw_read,
                        last if last is not None else acc.first_raw_read))
    return out


@rule("DY101", "dead-write", Severity.WARNING, "workflow",
      "A task's write is overwritten by an ordered later task before any "
      "task reads the value — the first write is dead.  Needs byte-exact "
      "extents (traces loaded with per-operation records).")
def _dead_write(index: WorkflowIndex, ordering: OrderingInfo,
                config: LintConfig) -> Iterator[Finding]:
    for (file, obj), accs in sorted(index.by_object.items()):
        writers = [a for a in accs
                   if a.raw_written and a.first_raw_write is not None]
        if len(writers) < 2:
            continue
        reads = _read_windows(accs)
        writers.sort(key=lambda a: a.first_raw_write)
        for first, second in zip(writers, writers[1:]):
            if first.task == second.task:
                continue
            if second.task not in ordering.descendants(first.task):
                continue  # unordered pair: that's a DY203 hazard, not a
                          # dead write — don't double-report
            # Ordered partial writers (e.g. collective slab writes into a
            # shared dataset) replace nothing: the write is only dead when
            # the successor provably rewrites the same bytes.
            if not (first.exact and second.exact):
                continue
            if extents_overlap(first.write_extents,
                               second.write_extents) is None:
                continue
            lo = first.first_raw_write
            hi = second.first_raw_write
            observed = any(r_lo <= hi and r_hi >= lo for r_lo, r_hi in reads)
            if not observed:
                yield Finding(
                    code="DY101", rule="dead-write",
                    severity=Severity.WARNING,
                    subject=f"{file}:{obj}",
                    tasks=(first.task, second.task),
                    message=(
                        f"{second.task} overwrites {obj} in {file} after "
                        f"{first.task} wrote it, and no task read the value "
                        "in between — the first write is dead"),
                    evidence={
                        "first_writer": first.task,
                        "overwriter": second.task,
                        "first_write_bytes": first.raw_write_bytes,
                    },
                )


@rule("DY102", "phantom-read", Severity.ERROR, "workflow",
      "A task reads a dataset whose data no task ever produced, in a file "
      "created inside the workflow.")
def _phantom_read(index: WorkflowIndex, ordering: OrderingInfo,
                  config: LintConfig) -> Iterator[Finding]:
    for (file, obj), accs in sorted(index.by_object.items()):
        if file not in index.file_writers:
            continue  # external input: produced before the workflow ran
        produced = any(a.raw_written or a.vol_elements_written > 0
                       for a in accs)
        if produced:
            continue
        readers = sorted({a.task for a in accs
                          if a.raw_read or a.vol_elements_read > 0})
        if not readers:
            continue
        vol_elements = sum(a.vol_elements_read for a in accs)
        yield Finding(
            code="DY102", rule="phantom-read", severity=Severity.ERROR,
            subject=f"{file}:{obj}",
            tasks=tuple(readers),
            message=(
                f"{', '.join(readers)} read{'s' if len(readers) == 1 else ''} "
                f"{obj} in {file}, but no task ever wrote its data — the "
                "reads return unproduced (zero-filled) content"),
            evidence={"readers": readers,
                      "vol_elements_read": vol_elements},
        )


@rule("DY103", "small-io-amplification", Severity.WARNING, "profile",
      "One task grinds a dataset through a storm of tiny raw operations.")
def _small_io(profile: TaskProfile,
              config: LintConfig) -> Iterator[Finding]:
    for s in profile.dataset_stats:
        if s.data_object == FILE_METADATA_OBJECT or s.data_ops == 0:
            continue
        if s.data_ops < config.small_io_min_ops:
            continue
        avg = s.data_bytes / s.data_ops
        if avg <= config.small_io_max_avg_bytes:
            yield Finding(
                code="DY103", rule="small-io-amplification",
                severity=Severity.WARNING,
                subject=f"{s.file}:{s.data_object}",
                tasks=(profile.task,),
                message=(
                    f"task {profile.task} issued {s.data_ops} raw operations "
                    f"against {s.data_object} averaging {avg:.0f} B each; "
                    "batch the accesses or consolidate the dataset"),
                evidence={"data_ops": s.data_ops,
                          "avg_bytes": round(avg, 1)},
            )


@rule("DY104", "layout-mismatch", Severity.WARNING, "workflow",
      "The same dataset is described with different storage layouts by "
      "different tasks' traces.")
def _layout_mismatch(index: WorkflowIndex, ordering: OrderingInfo,
                     config: LintConfig) -> Iterator[Finding]:
    for (file, obj), accs in sorted(index.by_object.items()):
        layouts = {}
        for a in accs:
            if a.layout:
                layouts.setdefault(a.layout, []).append(a.task)
        if len(layouts) > 1:
            described = "; ".join(
                f"{layout} by {', '.join(sorted(tasks))}"
                for layout, tasks in sorted(layouts.items()))
            yield Finding(
                code="DY104", rule="layout-mismatch",
                severity=Severity.WARNING,
                subject=f"{file}:{obj}",
                tasks=tuple(sorted({a.task for a in accs if a.layout})),
                message=(
                    f"{obj} in {file} is described with conflicting layouts "
                    f"({described}) — producer and consumer disagree about "
                    "the dataset's storage"),
                evidence={"layouts": {k: sorted(v)
                                      for k, v in layouts.items()}},
            )


@rule("DY105", "vlen-contiguous", Severity.NOTE, "profile",
      "A variable-length dataset uses a contiguous layout (no index; every "
      "access walks the heap).  Off by default: part of the advisory "
      "selection with DY7xx, and fires on the bundled ARLDM fixture by "
      "design.",
      default_enabled=False)
def _vlen_contiguous(profile: TaskProfile,
                     config: LintConfig) -> Iterator[Finding]:
    seen = set()
    for op in profile.object_profiles:
        key = (op.file, op.object_name)
        if key in seen:
            continue
        if op.dtype.startswith("vlen") and op.layout == "contiguous":
            seen.add(key)
            yield Finding(
                code="DY105", rule="vlen-contiguous",
                severity=Severity.NOTE,
                subject=f"{op.file}:{op.object_name}",
                tasks=(profile.task,) if profile.task else (),
                message=(
                    f"variable-length dataset {op.object_name} in {op.file} "
                    "is stored contiguously; a chunked layout would index "
                    "its elements"),
                evidence={"dtype": op.dtype, "layout": op.layout},
            )
