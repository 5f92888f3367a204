"""DY7xx — advisory rules: the paper's case-study observations.

Each rule reproduces one class of observation from the paper's
Section VI case studies; :func:`repro.guidelines.engine.recommend` and
:func:`repro.optimizer.planner.build_plan` turn its findings into the
optimization that addresses it:

- **DY701 data-reuse** (PyFLEXTRKR: stage-1 output feeding stages
  2/3/4/6/8; DDMD: training re-reading embedding files) → caching;
- **DY702 write-after-read / DY703 read-after-write** — intra-task
  read/write mixes, told apart by the first raw operation, plus
  producer → later-consumer chains across tasks → caching, co-scheduling;
- **DY704 time-dependent-input** (PyFLEXTRKR: stage-6 inputs only needed
  mid-workflow) → prefetching;
- **DY705 disposable-data** (files idle after at most one consumer) →
  stage-out;
- **DY706 data-scattering** (PyFLEXTRKR stage 9: many sub-500-byte
  datasets per file) → consolidation;
- **DY707 partial-file-access** (DDMD: training touches only
  ``contact_map``'s metadata) → selective access;
- **DY708 metadata-overhead** (DDMD: chunked layout on small datasets) →
  contiguous conversion;
- **DY709 readonly-sequential** (DDMD aggregate/inference scanning every
  simulation output) → rolling stage-in;
- **DY710 task-independence** (DDMD training ∥ inference) →
  parallelization.

Variable-length contiguous layouts (ARLDM) are DY105's, which
:data:`ADVISORY` selects alongside this family.

All are off by default: they describe optimization opportunities, not
defects, and fire on most bundled workloads.  They are workflow-scoped
but read the full task profiles (object sizes, dtypes, layouts, first raw
operation, per-session sequential fraction) that the cross-task digests
do not carry, from :attr:`~repro.lint.context.WorkflowIndex.profiles`.
Every rule walks those profiles in execution order — ``(span.start,
task)`` unless the caller passes a recovered ``task_order`` — so serial,
sharded and columnar runs see one sequence.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.lint.context import OrderingInfo, WorkflowIndex
from repro.lint.findings import Finding, Severity
from repro.lint.rules import LintConfig, get_rule, rule
from repro.mapper.mapper import TaskProfile
from repro.mapper.stats import FILE_METADATA_OBJECT

__all__ = ["ADVISORY", "ADVISORY_CODES", "in_paper_order"]

#: The advisory rule codes in the paper's detector order: every DY7xx
#: rule, then DY105 vlen-contiguous.
ADVISORY_CODES = ("DY701", "DY702", "DY703", "DY704", "DY705", "DY706",
                  "DY707", "DY708", "DY709", "DY710", "DY105")
#: The advisory selection: the default rules plus :data:`ADVISORY_CODES`.
ADVISORY = LintConfig(enable=ADVISORY_CODES)

#: DY701: a file read by at least this many tasks is reused.
MIN_CONSUMERS = 2
#: DY704: an external input is time-dependent when its first reader runs
#: at least this fraction of the way through the execution order.
LATE_FRACTION = 0.3
#: DY706: a file with at least ``MIN_DATASETS`` sized datasets averaging
#: at most ``MAX_AVG_BYTES`` bytes is scattered.
MIN_DATASETS = 8
MAX_AVG_BYTES = 500.0
#: DY708: a small chunked dataset spending at least this fraction of its
#: operations on metadata is overhead-bound; "small" is ``SMALL_BYTES``.
MIN_METADATA_FRACTION = 0.3
SMALL_BYTES = 1 << 20
#: DY709: a task reading at least ``MIN_FILES`` files read-only, each
#: session at least this sequential, is a rolling stage-in candidate.
MIN_SEQUENTIAL_FRACTION = 0.6
MIN_FILES = 2


def in_paper_order(findings: Iterable[Finding],
                   task_order: Sequence[str] = ()) -> List[Finding]:
    """The advisory findings among ``findings``, in the order the paper's
    detectors raise them: by :data:`ADVISORY_CODES` position, then by the
    ``task_order`` position of each finding's first task (names not in it
    tie), then by subject.  Consumers that keep the first of several
    findings — the guidelines engine's merge, the planner's one rewrite
    per file — read them in this order, so their output does not depend
    on how the findings were sorted or sharded.
    """
    code_rank = {code: i for i, code in enumerate(ADVISORY_CODES)}
    task_rank = {task: i for i, task in enumerate(task_order)}
    return sorted(
        (f for f in findings if f.code in code_rank),
        key=lambda f: (code_rank[f.code],
                       task_rank.get(f.tasks[0] if f.tasks else None,
                                     len(task_rank)),
                       f.subject, f.tasks))


def _advice(code: str, severity: Severity, subject: str,
            tasks: Sequence[str], evidence: Dict[str, object],
            message: str) -> Finding:
    return Finding(code=code, rule=get_rule(code).name, severity=severity,
                   message=message, subject=subject, tasks=tuple(tasks),
                   evidence=evidence)


def _readers_writers(
    profiles: Sequence[TaskProfile],
) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
    """Per file: ordered reader task list and writer task list."""
    readers: Dict[str, List[str]] = defaultdict(list)
    writers: Dict[str, List[str]] = defaultdict(list)
    for p in profiles:
        for s in p.dataset_stats:
            if s.reads and p.task not in readers[s.file]:
                readers[s.file].append(p.task)
            if s.writes and p.task not in writers[s.file]:
                writers[s.file].append(p.task)
    return readers, writers


def _read_write_mixes(profiles: Sequence[TaskProfile],
                      first_raw_write: bool) -> Iterator[Tuple]:
    """Intra-task read+write rows whose first raw op was (not) a write."""
    for p in profiles:
        for s in p.dataset_stats:
            if (s.operation == "read_write"
                    and s.data_object != FILE_METADATA_OBJECT
                    and (s.first_raw_op == "write") == first_raw_write):
                yield p.task, s


@rule("DY701", "data-reuse", Severity.NOTE, "workflow",
      "A file is read by several tasks; keep it in the fastest storage "
      "tier.  Warning from 4 consumers.",
      default_enabled=False)
def _data_reuse(index: WorkflowIndex, ordering: OrderingInfo,
                config: LintConfig) -> Iterator[Finding]:
    readers, _ = _readers_writers(index.profiles)
    for file, consumers in readers.items():
        if len(consumers) >= MIN_CONSUMERS:
            yield _advice(
                "DY701",
                Severity.WARNING if len(consumers) >= 4 else Severity.NOTE,
                file, consumers, {"consumers": len(consumers)},
                f"{file} is read by {len(consumers)} tasks; "
                "keep it in the fastest storage tier")


@rule("DY702", "write-after-read", Severity.NOTE, "workflow",
      "A task reads a dataset and then writes it (PyFLEXTRKR stage 3).",
      default_enabled=False)
def _write_after_read(index: WorkflowIndex, ordering: OrderingInfo,
                      config: LintConfig) -> Iterator[Finding]:
    for task, s in _read_write_mixes(index.profiles, first_raw_write=False):
        yield _advice(
            "DY702", Severity.NOTE, f"{s.file}:{s.data_object}", [task],
            {"reads": s.reads, "writes": s.writes,
             "first_raw_op": s.first_raw_op},
            f"task {task} reads then writes {s.data_object} in {s.file}")


@rule("DY703", "read-after-write", Severity.NOTE, "workflow",
      "Written data is read back: by the writing task itself, or by "
      "tasks that run after its producer (DDMD embedding files).",
      default_enabled=False)
def _read_after_write(index: WorkflowIndex, ordering: OrderingInfo,
                      config: LintConfig) -> Iterator[Finding]:
    profiles = index.profiles
    for task, s in _read_write_mixes(profiles, first_raw_write=True):
        yield _advice(
            "DY703", Severity.NOTE, f"{s.file}:{s.data_object}", [task],
            {"reads": s.reads, "writes": s.writes,
             "first_raw_op": s.first_raw_op},
            f"task {task} writes then re-reads {s.data_object} in {s.file}")
    order = {p.task: i for i, p in enumerate(profiles)}
    readers, writers = _readers_writers(profiles)
    for file in sorted(set(readers) & set(writers)):
        for w in writers[file]:
            later = [r for r in readers[file]
                     if order.get(r, -1) > order.get(w, -1)]
            if later:
                yield _advice(
                    "DY703", Severity.NOTE, file, [w] + later,
                    {"producer": w, "consumers": later},
                    f"{file} written by {w} is read back by "
                    f"{', '.join(later)}")


@rule("DY704", "time-dependent-input", Severity.NOTE, "workflow",
      "An external input is first read at least 30% of the way "
      "through the task order; delay its prefetch.",
      default_enabled=False)
def _time_dependent_input(index: WorkflowIndex, ordering: OrderingInfo,
                          config: LintConfig) -> Iterator[Finding]:
    profiles = index.profiles
    order = {p.task: i for i, p in enumerate(profiles)}
    denom = max(len(profiles) - 1, 1)
    readers, writers = _readers_writers(profiles)
    for file, readers_of in readers.items():
        if file in writers:
            continue  # produced inside the workflow, not an external input
        first_reader = min(readers_of, key=lambda t: order.get(t, 0))
        lateness = order.get(first_reader, 0) / denom
        if lateness >= LATE_FRACTION:
            yield _advice(
                "DY704", Severity.NOTE, file, readers_of,
                {"first_access_fraction": round(lateness, 3),
                 "first_reader": first_reader},
                f"input {file} is first needed {lateness:.0%} into the "
                "workflow; delay its prefetch until just before use")


@rule("DY705", "disposable-data", Severity.NOTE, "workflow",
      "A file with at most one consumer sits idle for the rest of the "
      "run; stage it out to slower storage.",
      default_enabled=False)
def _disposable_data(index: WorkflowIndex, ordering: OrderingInfo,
                     config: LintConfig) -> Iterator[Finding]:
    profiles = index.profiles
    order = {p.task: i for i, p in enumerate(profiles)}
    readers, writers = _readers_writers(profiles)
    for file in sorted(set(readers) | set(writers)):
        consumers = readers.get(file, [])
        if len(consumers) > 1:
            continue
        last_use = max(
            (order[t] for t in consumers + writers.get(file, [])
             if t in order),
            default=-1,
        )
        remaining = len(profiles) - 1 - last_use
        if remaining > 0:
            yield _advice(
                "DY705", Severity.NOTE, file, consumers,
                {"consumers": len(consumers),
                 "tasks_remaining_after_last_use": remaining},
                f"{file} has {len(consumers)} consumer(s) and is idle for "
                f"the final {remaining} task(s); stage it out to slower "
                "storage to free space")


@rule("DY706", "data-scattering", Severity.WARNING, "workflow",
      "A file holds many tiny datasets (at least 8 averaging <= 500 B); "
      "consolidate them.  Error from 32 datasets.",
      default_enabled=False)
def _data_scattering(index: WorkflowIndex, ordering: OrderingInfo,
                     config: LintConfig) -> Iterator[Finding]:
    per_file: Dict[str, List] = defaultdict(list)
    for p in index.profiles:
        for obj in p.object_profiles:
            # Variable-length objects are exempt: their inline footprint
            # is just heap references — the content lives elsewhere and
            # its size says nothing about scattering.
            if not obj.dtype.startswith("vlen"):
                per_file[obj.file].append(obj)
    for file, objs in per_file.items():
        sized = [o for o in objs if o.nbytes > 0]
        if len(sized) < MIN_DATASETS:
            continue
        avg = sum(o.nbytes for o in sized) / len(sized)
        if avg <= MAX_AVG_BYTES:
            yield _advice(
                "DY706",
                Severity.ERROR if len(sized) >= 32 else Severity.WARNING,
                file, sorted({o.task for o in sized if o.task}),
                {"datasets": len(sized), "avg_bytes": round(avg, 1)},
                f"{file} holds {len(sized)} datasets averaging "
                f"{avg:.0f} B; consolidate them into one large dataset "
                "to cut metadata I/O")


@rule("DY707", "partial-file-access", Severity.WARNING, "workflow",
      "A task touches only the metadata of a dataset while reading its "
      "siblings' data (DDMD contact_map); skip moving that data.",
      default_enabled=False)
def _partial_file_access(index: WorkflowIndex, ordering: OrderingInfo,
                         config: LintConfig) -> Iterator[Finding]:
    for p in index.profiles:
        per_file: Dict[str, List] = defaultdict(list)
        for s in p.dataset_stats:
            if s.data_object != FILE_METADATA_OBJECT:
                per_file[s.file].append(s)
        for file, rows in per_file.items():
            used = [s for s in rows if s.data_ops > 0]
            if not used:
                continue
            for s in rows:
                if s.data_ops == 0:
                    yield _advice(
                        "DY707", Severity.WARNING,
                        f"{file}:{s.data_object}", [p.task],
                        {"metadata_ops": s.metadata_ops,
                         "siblings_used": len(used)},
                        f"task {p.task} touches only the metadata of "
                        f"{s.data_object} in {file} while using "
                        f"{len(used)} sibling dataset(s); skip moving "
                        "its data")


@rule("DY708", "metadata-overhead", Severity.WARNING, "workflow",
      "A small chunked dataset spends most of its operations on "
      "metadata; convert it to contiguous.  Error from a 0.5 metadata "
      "fraction.",
      default_enabled=False)
def _metadata_overhead(index: WorkflowIndex, ordering: OrderingInfo,
                       config: LintConfig) -> Iterator[Finding]:
    seen: Set[Tuple[str, str]] = set()
    for p in index.profiles:
        stats_by_obj = {(s.file, s.data_object): s for s in p.dataset_stats}
        for obj in p.object_profiles:
            key = (obj.file, obj.object_name)
            if (key in seen or obj.layout != "chunked"
                    or obj.nbytes > SMALL_BYTES):
                continue
            s = stats_by_obj.get(key)
            if s is None or s.access_count == 0:
                continue
            frac = s.metadata_ops / s.access_count
            if frac >= MIN_METADATA_FRACTION:
                seen.add(key)
                shown = round(frac, 3)
                yield _advice(
                    "DY708",
                    Severity.ERROR if shown >= 0.5 else Severity.WARNING,
                    f"{obj.file}:{obj.object_name}", [p.task],
                    {"layout": obj.layout, "nbytes": obj.nbytes,
                     "metadata_fraction": shown},
                    f"{obj.object_name} ({obj.nbytes} B, chunked) spends "
                    f"{frac:.0%} of its operations on metadata; convert "
                    "to contiguous layout")


@rule("DY709", "readonly-sequential", Severity.NOTE, "workflow",
      "A task reads several files read-only and mostly sequentially; "
      "use a rolling stage-in.  Warning from 8 files.",
      default_enabled=False)
def _readonly_sequential(index: WorkflowIndex, ordering: OrderingInfo,
                         config: LintConfig) -> Iterator[Finding]:
    for p in index.profiles:
        files = {
            session.file for session in p.file_sessions
            if session.write_ops == 0 and session.read_ops > 0
            and session.raw_sequential_fraction >= MIN_SEQUENTIAL_FRACTION
        }
        if len(files) >= MIN_FILES:
            yield _advice(
                "DY709",
                Severity.WARNING if len(files) >= 8 else Severity.NOTE,
                p.task, [p.task], {"files": len(files)},
                f"task {p.task} reads {len(files)} files sequentially and "
                "read-only; use a rolling stage-in to the nearest tier")


@rule("DY710", "task-independence", Severity.NOTE, "workflow",
      "Consecutive tasks share no file; they can run in parallel.",
      default_enabled=False)
def _task_independence(index: WorkflowIndex, ordering: OrderingInfo,
                       config: LintConfig) -> Iterator[Finding]:
    touched = [(p.task, {s.file for s in p.dataset_stats})
               for p in index.profiles]
    for (t1, f1), (t2, f2) in zip(touched, touched[1:]):
        if f1 and f2 and not (f1 & f2):
            yield _advice(
                "DY710", Severity.NOTE, f"{t1} ∥ {t2}", [t1, t2],
                {"shared_files": 0},
                f"consecutive tasks {t1} and {t2} have no HDF5 data "
                "dependency; they can run in parallel")
