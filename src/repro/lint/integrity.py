"""DY3xx — trace-integrity rules (the trace sanitizer).

Unlike DY1xx/DY2xx, a DY3xx finding does not indict the *workflow*; it
indicts the *trace*.  The two capture layers record the same execution
independently — the VOL tracer counts elements through the object API,
the VFD tracer counts bytes through the file driver, the session tracker
brackets both — so a healthy profile satisfies a web of cross-layer
invariants.  A violation means the profile is internally inconsistent
(truncated, hand-edited, or produced by a buggy tracer build) and every
downstream analysis over it is suspect.

All DY3xx rules are profile-scoped: each profile is checked in
isolation, so ``dayu-serve`` checks each task once, as it arrives.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import LintConfig, rule
from repro.mapper.mapper import TaskProfile
from repro.mapper.stats import FILE_METADATA_OBJECT, _coalesce_runs
from repro.vfd.base import IoClass

__all__ = ["invalid_record_finding"]

#: Slack for floating-point clock comparisons.
_EPS = 1e-9


def _vol_totals(profile: TaskProfile) -> Dict[Tuple[str, str], dict]:
    """Aggregate VOL object profiles per (file, object)."""
    out: Dict[Tuple[str, str], dict] = {}
    for op in profile.object_profiles:
        agg = out.setdefault((op.file, op.object_name), {
            "elements_read": 0, "elements_written": 0,
            "reads": 0, "writes": 0,
            "nbytes": 0, "shape": None, "dtype": "", "layout": "",
        })
        agg["elements_read"] += op.elements_read
        agg["elements_written"] += op.elements_written
        agg["reads"] += op.reads
        agg["writes"] += op.writes
        agg["nbytes"] = max(agg["nbytes"], op.nbytes or 0)
        if op.shape:
            agg["shape"] = tuple(op.shape)
        if op.dtype:
            agg["dtype"] = op.dtype
        if op.layout:
            agg["layout"] = op.layout
    return out


def _stats_by_object(profile: TaskProfile):
    return {(s.file, s.data_object): s for s in profile.dataset_stats}


@rule("DY301", "vol-vfd-mismatch", Severity.ERROR, "profile",
      "The VOL (semantic) and VFD (byte) layers disagree about a dataset: "
      "one layer recorded traffic the other never saw, or a full logical "
      "write moved fewer bytes than the dataset holds.")
def _vol_vfd_mismatch(profile: TaskProfile,
                      config: LintConfig) -> Iterator[Finding]:
    stats = _stats_by_object(profile)
    vol = _vol_totals(profile)
    raw_write_bytes: Dict[Tuple[str, str], int] = defaultdict(int)
    for rec in profile.io_records:
        if (rec.op == "write" and rec.access_type is IoClass.RAW
                and rec.data_object):
            raw_write_bytes[(rec.file, rec.data_object)] += rec.nbytes

    for (file, obj), agg in sorted(vol.items()):
        row = stats.get((file, obj))
        if agg["elements_written"] > 0 and (row is None or row.writes == 0):
            yield Finding(
                code="DY301", rule="vol-vfd-mismatch",
                severity=Severity.ERROR,
                subject=f"{file}:{obj}",
                tasks=(profile.task,),
                message=(
                    f"VOL layer recorded {agg['elements_written']} elements "
                    f"written to {obj} in {file}, but the VFD layer saw no "
                    "write operations for the object"),
                evidence={"vol_elements_written": agg["elements_written"],
                          "vfd_writes": 0 if row is None else row.writes},
            )
        if agg["elements_read"] > 0 and (row is None or row.reads == 0):
            yield Finding(
                code="DY301", rule="vol-vfd-mismatch",
                severity=Severity.ERROR,
                subject=f"{file}:{obj}",
                tasks=(profile.task,),
                message=(
                    f"VOL layer recorded {agg['elements_read']} elements "
                    f"read from {obj} in {file}, but the VFD layer saw no "
                    "read operations for the object"),
                evidence={"vol_elements_read": agg["elements_read"],
                          "vfd_reads": 0 if row is None else row.reads},
            )
        # Byte-magnitude reconciliation where it is airtight: a contiguous
        # layout has no filter pipeline (no compression), so a full logical
        # write must move at least the dataset's size through the VFD.
        if (profile.io_records and agg["layout"] == "contiguous"
                and agg["shape"] and agg["nbytes"]
                and not agg["dtype"].startswith("vlen")):
            n_elements = math.prod(agg["shape"])
            if (n_elements > 0
                    and agg["elements_written"] >= n_elements
                    and raw_write_bytes[(file, obj)] < agg["nbytes"]):
                yield Finding(
                    code="DY301", rule="vol-vfd-mismatch",
                    severity=Severity.ERROR,
                    subject=f"{file}:{obj}",
                    tasks=(profile.task,),
                    message=(
                        f"VOL layer recorded a full write of {obj} in "
                        f"{file} ({agg['elements_written']} elements, "
                        f"{agg['nbytes']} B dataset), but raw VFD writes "
                        f"moved only {raw_write_bytes[(file, obj)]} B"),
                    evidence={
                        "dataset_bytes": agg["nbytes"],
                        "raw_write_bytes": raw_write_bytes[(file, obj)],
                        "vol_elements_written": agg["elements_written"],
                    },
                )

    for (file, obj), row in sorted(stats.items()):
        if obj == FILE_METADATA_OBJECT:
            continue
        if row.data_ops > 0 and (file, obj) not in vol:
            yield Finding(
                code="DY301", rule="vol-vfd-mismatch",
                severity=Severity.ERROR,
                subject=f"{file}:{obj}",
                tasks=(profile.task,),
                message=(
                    f"VFD layer moved {row.data_bytes} B of raw data for "
                    f"{obj} in {file}, but the VOL layer has no record of "
                    "the object being accessed"),
                evidence={"vfd_data_ops": row.data_ops,
                          "vfd_data_bytes": row.data_bytes},
            )


def invalid_record_finding(rec, task: str,
                           index: Optional[int] = None) -> Optional[Finding]:
    """DY302's per-operation check: the finding for one saved
    :class:`~repro.vfd.tracing.VfdIoRecord` (``index``: its position in
    the profile) or live :class:`~repro.monitor.events.VfdOp` (no index)
    with negative fields, else None."""
    problems = []
    if rec.nbytes < 0:
        problems.append(f"nbytes={rec.nbytes}")
    if rec.offset < 0:
        problems.append(f"offset={rec.offset}")
    if rec.duration < 0:
        problems.append(f"duration={rec.duration}")
    if not problems:
        return None
    if index is None:
        label, evidence = "live I/O operation", {"problems": problems}
    else:
        label = f"I/O record #{index}"
        evidence = {"record_index": index, "problems": problems}
    return Finding(
        code="DY302", rule="invalid-extent", severity=Severity.ERROR,
        subject=f"{rec.file}:{rec.data_object or FILE_METADATA_OBJECT}",
        tasks=(task,),
        message=(f"{label} ({rec.op} of {rec.file}) carries invalid "
                 f"fields: {', '.join(problems)}"),
        evidence=evidence,
    )


@rule("DY302", "invalid-extent", Severity.ERROR, "profile",
      "An operation record or region histogram is malformed: negative "
      "sizes or offsets, inverted or overlapping page runs, negative "
      "counters.")
def _invalid_extent(profile: TaskProfile,
                    config: LintConfig) -> Iterator[Finding]:
    for i, rec in enumerate(profile.io_records):
        finding = invalid_record_finding(rec, profile.task, i)
        if finding is not None:
            yield finding
    for s in profile.dataset_stats:
        subject = f"{s.file}:{s.data_object}"
        negatives = {
            name: value
            for name, value in (
                ("reads", s.reads), ("writes", s.writes),
                ("bytes_read", s.bytes_read),
                ("bytes_written", s.bytes_written),
                ("data_ops", s.data_ops), ("data_bytes", s.data_bytes),
                ("metadata_ops", s.metadata_ops),
                ("metadata_bytes", s.metadata_bytes),
            ) if value < 0
        }
        if negatives:
            yield Finding(
                code="DY302", rule="invalid-extent",
                severity=Severity.ERROR,
                subject=subject, tasks=(profile.task,),
                message=(f"joined statistics for {s.data_object} in "
                         f"{s.file} carry negative counters: "
                         f"{sorted(negatives)}"),
                evidence={"negative_counters": negatives},
            )
        prev_last: Optional[int] = None
        for first, last, count in s.region_runs():
            if first < 0 or last < first or count <= 0 or (
                    prev_last is not None and first <= prev_last):
                yield Finding(
                    code="DY302", rule="invalid-extent",
                    severity=Severity.ERROR,
                    subject=subject, tasks=(profile.task,),
                    message=(
                        f"region histogram of {s.data_object} in {s.file} "
                        f"contains a malformed run (pages {first}..{last}, "
                        f"count {count})"),
                    evidence={"run": [first, last, count]},
                )
                break
            prev_last = last


@rule("DY303", "orphan-region", Severity.ERROR, "profile",
      "The page-region histogram and the operation stream disagree: "
      "operations without regions, regions without operations, or (when "
      "per-operation records are available) runs that don't re-derive "
      "from the records.")
def _orphan_region(profile: TaskProfile,
                   config: LintConfig) -> Iterator[Finding]:
    per_object_runs: Dict[Tuple[str, str], List[Tuple[int, int, int]]] = (
        defaultdict(list))
    if profile.io_records:
        for rec in profile.io_records:
            obj = rec.data_object or FILE_METADATA_OBJECT
            first, last = rec.region(config.page_size)
            per_object_runs[(rec.file, obj)].append((first, last, 1))

    for s in profile.dataset_stats:
        subject = f"{s.file}:{s.data_object}"
        runs = s.region_runs()
        touches = sum((last - first + 1) * count for first, last, count in runs)
        if s.access_count > 0 and not runs:
            yield Finding(
                code="DY303", rule="orphan-region",
                severity=Severity.ERROR,
                subject=subject, tasks=(profile.task,),
                message=(
                    f"{s.access_count} operations were recorded against "
                    f"{s.data_object} in {s.file}, but its region "
                    "histogram is empty"),
                evidence={"access_count": s.access_count},
            )
            continue
        if s.access_count == 0 and runs:
            yield Finding(
                code="DY303", rule="orphan-region",
                severity=Severity.ERROR,
                subject=subject, tasks=(profile.task,),
                message=(
                    f"region histogram of {s.data_object} in {s.file} "
                    f"covers {touches} page touches, but no operations "
                    "were recorded against the object"),
                evidence={"page_touches": touches},
            )
            continue
        if runs and touches < s.access_count:
            # Every operation touches at least one page.
            yield Finding(
                code="DY303", rule="orphan-region",
                severity=Severity.ERROR,
                subject=subject, tasks=(profile.task,),
                message=(
                    f"region histogram of {s.data_object} in {s.file} "
                    f"accounts for {touches} page touches but "
                    f"{s.access_count} operations were recorded"),
                evidence={"page_touches": touches,
                          "access_count": s.access_count},
            )
            continue
        if profile.io_records:
            expected = _coalesce_runs(
                per_object_runs.get((s.file, s.data_object), []))
            if expected != runs:
                yield Finding(
                    code="DY303", rule="orphan-region",
                    severity=Severity.ERROR,
                    subject=subject, tasks=(profile.task,),
                    message=(
                        f"region histogram of {s.data_object} in {s.file} "
                        "does not re-derive from its operation records at "
                        f"page size {config.page_size} (use --page-size to "
                        "match the recording granularity)"),
                    evidence={"stored_runs": [list(r) for r in runs[:8]],
                              "derived_runs": [list(r)
                                               for r in expected[:8]]},
                )


@rule("DY304", "time-travel", Severity.ERROR, "profile",
      "A timestamp escapes its enclosing interval: operations outside "
      "their task's span, sessions that close before they open, "
      "statistics whose active window is inverted.")
def _time_travel(profile: TaskProfile,
                 config: LintConfig) -> Iterator[Finding]:
    span = profile.span
    for i, rec in enumerate(profile.io_records):
        if rec.start < span.start - _EPS or rec.end > span.end + _EPS:
            yield Finding(
                code="DY304", rule="time-travel",
                severity=Severity.ERROR,
                subject=f"{rec.file}:{rec.data_object or FILE_METADATA_OBJECT}",
                tasks=(profile.task,),
                message=(
                    f"I/O record #{i} ({rec.op} of {rec.file}) runs "
                    f"[{rec.start:.6f}, {rec.end:.6f}] outside the task "
                    f"window [{span.start:.6f}, {span.end:.6f}]"),
                evidence={"record_index": i,
                          "record": [rec.start, rec.end],
                          "task_span": [span.start, span.end]},
            )
    for sess in profile.file_sessions:
        bad = (sess.open_time < span.start - _EPS
               or (sess.close_time is not None
                   and (sess.close_time > span.end + _EPS
                        or sess.close_time < sess.open_time - _EPS)))
        if bad:
            yield Finding(
                code="DY304", rule="time-travel",
                severity=Severity.ERROR,
                subject=sess.file, tasks=(profile.task,),
                message=(
                    f"file session of {sess.file} "
                    f"[{sess.open_time:.6f}, {sess.close_time}] escapes "
                    f"the task window [{span.start:.6f}, {span.end:.6f}] "
                    "or closes before it opens"),
                evidence={"open_time": sess.open_time,
                          "close_time": sess.close_time,
                          "task_span": [span.start, span.end]},
            )
    for s in profile.dataset_stats:
        if s.first_start is None or s.last_end is None:
            continue
        if (s.first_start > s.last_end + _EPS
                or s.first_start < span.start - _EPS
                or s.last_end > span.end + _EPS):
            yield Finding(
                code="DY304", rule="time-travel",
                severity=Severity.ERROR,
                subject=f"{s.file}:{s.data_object}", tasks=(profile.task,),
                message=(
                    f"active window of {s.data_object} in {s.file} "
                    f"[{s.first_start:.6f}, {s.last_end:.6f}] is inverted "
                    f"or escapes the task window "
                    f"[{span.start:.6f}, {span.end:.6f}]"),
                evidence={"window": [s.first_start, s.last_end],
                          "task_span": [span.start, span.end]},
            )


@rule("DY305", "session-accounting", Severity.ERROR, "profile",
      "Per-operation records exceed what the session tracker accounted "
      "for a file, or occur in a file with no recorded session at all.")
def _session_accounting(profile: TaskProfile,
                        config: LintConfig) -> Iterator[Finding]:
    if not profile.io_records:
        return
    session_ops: Dict[str, Dict[str, int]] = defaultdict(
        lambda: {"read_ops": 0, "write_ops": 0,
                 "read_bytes": 0, "write_bytes": 0, "sessions": 0})
    for sess in profile.file_sessions:
        agg = session_ops[sess.file]
        agg["read_ops"] += sess.read_ops
        agg["write_ops"] += sess.write_ops
        agg["read_bytes"] += sess.read_bytes
        agg["write_bytes"] += sess.write_bytes
        agg["sessions"] += 1
    record_ops: Dict[str, Dict[str, int]] = defaultdict(
        lambda: {"read_ops": 0, "write_ops": 0,
                 "read_bytes": 0, "write_bytes": 0})
    for rec in profile.io_records:
        agg = record_ops[rec.file]
        if rec.op == "read":
            agg["read_ops"] += 1
            agg["read_bytes"] += rec.nbytes
        else:
            agg["write_ops"] += 1
            agg["write_bytes"] += rec.nbytes
    for file in sorted(record_ops):
        recs = record_ops[file]
        sess = session_ops.get(file)
        if sess is None or sess["sessions"] == 0:
            yield Finding(
                code="DY305", rule="session-accounting",
                severity=Severity.ERROR,
                subject=file, tasks=(profile.task,),
                message=(
                    f"{recs['read_ops'] + recs['write_ops']} I/O records "
                    f"target {file}, but no file session was ever "
                    "recorded for it"),
                evidence={"records": recs},
            )
            continue
        over = {
            key: (recs[key], sess[key])
            for key in ("read_ops", "write_ops", "read_bytes", "write_bytes")
            if recs[key] > sess[key]
        }
        if over:
            # Sessions count every operation; records may be subsampled
            # (skip_ops) but can never exceed the session totals.
            yield Finding(
                code="DY305", rule="session-accounting",
                severity=Severity.ERROR,
                subject=file, tasks=(profile.task,),
                message=(
                    f"I/O records for {file} exceed the session tracker's "
                    f"accounting ({', '.join(f'{k}: {r} > {s}' for k, (r, s) in sorted(over.items()))})"),
                evidence={"exceeded": {k: list(v)
                                       for k, v in over.items()}},
            )
