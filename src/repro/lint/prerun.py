"""DY40x — pre-run contract rules: hazards visible before execution.

The trace rules (DY1xx/DY2xx) need a finished run; these fire from the
workflow *definition* alone, evaluated over the
:class:`~repro.lint.predict.StaticContext` join of declared and
AST-inferred access contracts.  Ordering is the static dataflow DAG:
a producer happens-before a consumer only when the stage plan schedules
it strictly earlier — two writers with no read chain between them are
unordered even inside a serial stage, exactly what the trace-derived
dependency DAG would conclude after the fact.

Every rule here has ``scope="contract"`` and the signature
``check(ctx: StaticContext, config: LintConfig) -> findings``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.predict import StaticContext
from repro.lint.rules import LintConfig, rule
from repro.lint.semantic import SMALL_IO_MAX_AVG_BYTES, SMALL_IO_MIN_OPS
from repro.workflow.contracts import (
    ContractAccess,
    dtype_itemsize,
    reconcile,
)

__all__ = []  # rules register themselves; nothing to import by name


def _select_ranges(accesses: List[ContractAccess]
                   ) -> Optional[List[Tuple[int, int]]]:
    """Merged element ranges of a task's data writes, or None when any
    write carries no selection (whole-dataset write assumed)."""
    out: List[Tuple[int, int]] = []
    for a in accesses:
        if not (a.moves_data and a.op in ("create", "write")):
            continue
        rng = a.select_range
        if rng is None or not a.exact:
            return None
        out.append(rng)
    return out


def _ranges_overlap(a: List[Tuple[int, int]],
                    b: List[Tuple[int, int]]) -> bool:
    return any(max(x[0], y[0]) < min(x[1], y[1]) for x in a for y in b)


@rule("DY401", "unordered-contract-writers", Severity.ERROR, "contract",
      "Two tasks' contracts both write a dataset and no read chain in "
      "the schedule orders them — the surviving content depends on "
      "scheduling.  Downgraded to a warning when the declared element "
      "selections are provably disjoint (collective-write pattern).")
def _unordered_writers(ctx: StaticContext,
                       config: LintConfig) -> Iterator[Finding]:
    for key in sorted(ctx.producers):
        writers = ctx.producers[key]
        if len(writers) < 2:
            continue
        file, dataset = key
        seen = set()
        for a, b in itertools.combinations(writers, 2):
            pair = tuple(sorted((a, b)))
            if pair in seen or ctx.ordering.ordered(a, b):
                continue
            seen.add(pair)
            ra = _select_ranges(ctx.accesses_for(key, a))
            rb = _select_ranges(ctx.accesses_for(key, b))
            disjoint = (ra is not None and rb is not None
                        and not _ranges_overlap(ra, rb))
            if disjoint:
                severity = Severity.WARNING
                detail = ("their element selections are disjoint "
                          "(collective partial-write pattern), but "
                          "metadata updates still race")
            else:
                severity = Severity.ERROR
                detail = "the last scheduled writer wins"
            yield Finding(
                code="DY401", rule="unordered-contract-writers",
                severity=severity,
                subject=f"{file}:{dataset}",
                tasks=pair,
                message=(
                    f"contracts of {pair[0]} and {pair[1]} both write "
                    f"{dataset} in {file} and no dataflow path orders "
                    f"them; {detail}"),
                evidence={"writers": list(pair),
                          "disjoint_selections": disjoint},
            )


@rule("DY402", "consumer-before-producer", Severity.ERROR, "contract",
      "A task's contract reads a dataset whose only producers are "
      "scheduled concurrently with or after the reader — the read can "
      "observe missing or partial data.")
def _consumer_before_producer(ctx: StaticContext,
                              config: LintConfig) -> Iterator[Finding]:
    for key in sorted(ctx.readers):
        producers = ctx.producers.get(key, [])
        if not producers:
            continue  # producer-less reads are DY403's
        file, dataset = key
        for reader in ctx.readers[key]:
            if reader in producers:
                continue  # self-produced: ordered by program order
            if any(ctx.scheduled_before(p, reader) for p in producers):
                continue
            yield Finding(
                code="DY402", rule="consumer-before-producer",
                severity=Severity.ERROR,
                subject=f"{file}:{dataset}",
                tasks=(reader,),
                message=(
                    f"{reader} reads {dataset} in {file}, but its "
                    f"producer(s) ({', '.join(sorted(producers))}) are "
                    "not scheduled before it — the read can observe "
                    "missing or partial data"),
                evidence={"producers": sorted(producers)},
            )


@rule("DY403", "producer-less-read", Severity.ERROR, "contract",
      "A task's contract reads a dataset no task's contract ever writes "
      "data into, in a file the workflow itself produces — a phantom "
      "read baked into the definition.")
def _producerless_read(ctx: StaticContext,
                       config: LintConfig) -> Iterator[Finding]:
    for key in sorted(ctx.readers):
        if ctx.producers.get(key):
            continue
        file, dataset = key
        if file not in ctx.file_producers:
            continue  # external input file: produced outside the workflow
        for reader in ctx.readers[key]:
            creators = ctx.creators.get(key, [])
            created = (f" ({', '.join(sorted(creators))} creates it "
                       "without data)") if creators else ""
            yield Finding(
                code="DY403", rule="producer-less-read",
                severity=Severity.ERROR,
                subject=f"{file}:{dataset}",
                tasks=(reader,),
                message=(
                    f"{reader} reads {dataset} in {file}, but no task's "
                    f"contract ever writes data into it{created} — the "
                    "read returns nothing meaningful"),
                evidence={"creators": sorted(creators)},
            )


@rule("DY404", "dead-output", Severity.NOTE, "contract",
      "A dataset some task's contract writes is never read by any other "
      "task's contract.  Final workflow products legitimately match this "
      "shape, so the rule is opt-in.",
      default_enabled=False)
def _dead_output(ctx: StaticContext,
                 config: LintConfig) -> Iterator[Finding]:
    for key in sorted(ctx.producers):
        readers = [r for r in ctx.readers.get(key, [])
                   if r not in ctx.producers[key]]
        if readers:
            continue
        file, dataset = key
        writers = tuple(sorted(ctx.producers[key]))
        yield Finding(
            code="DY404", rule="dead-output",
            severity=Severity.NOTE,
            subject=f"{file}:{dataset}",
            tasks=writers,
            message=(
                f"{dataset} in {file} is written by "
                f"{', '.join(writers)} but no task's contract reads it "
                "— dead output unless it is a final product"),
            evidence={"writers": list(writers)},
        )


@rule("DY405", "contract-extent-overflow", Severity.ERROR, "contract",
      "A contract access moves more elements into a dataset than its "
      "declared creation extent holds — an out-of-bounds write/read "
      "promised in the definition itself.")
def _extent_overflow(ctx: StaticContext,
                     config: LintConfig) -> Iterator[Finding]:
    keys = set(ctx.readers) | set(ctx.producers)
    for key in sorted(keys):
        create = ctx.create_access(key)
        if create is None:
            continue
        cap = create.extent_elements
        if cap is None:
            continue
        file, dataset = key
        for task in sorted(set(ctx.readers.get(key, []))
                           | set(ctx.producers.get(key, []))):
            for a in ctx.accesses_for(key, task):
                if a.op not in ("read", "write") or not a.exact:
                    continue
                over = None
                if a.elements is not None and a.elements > cap:
                    over = a.elements
                rng = a.select_range
                if rng is not None and rng[1] > cap:
                    over = max(over or 0, rng[1])
                if over is None:
                    continue
                yield Finding(
                    code="DY405", rule="contract-extent-overflow",
                    severity=Severity.ERROR,
                    subject=f"{file}:{dataset}",
                    tasks=(task,),
                    message=(
                        f"{task} {a.op}s {over} element(s) of {dataset} "
                        f"in {file}, but its declared extent holds only "
                        f"{cap}"),
                    evidence={"elements": over, "capacity": cap,
                              "op": a.op},
                )
                break  # one finding per (dataset, task) is enough


@rule("DY406", "vlen-in-contiguous", Severity.NOTE, "contract",
      "A contract creates a variable-length dataset with contiguous "
      "layout — every element lands in the global heap, turning one "
      "logical access into scattered small I/O (the paper's ARLDM "
      "finding).  Opt-in, like its traced twin DY105.",
      default_enabled=False)
def _vlen_contiguous(ctx: StaticContext,
                     config: LintConfig) -> Iterator[Finding]:
    for key in sorted(ctx.creators):
        file, dataset = key
        for task in ctx.creators[key]:
            for a in ctx.accesses_for(key, task):
                if a.op != "create":
                    continue
                if not a.dtype.startswith("vlen"):
                    continue
                if a.layout and a.layout != "contiguous":
                    continue
                yield Finding(
                    code="DY406", rule="vlen-in-contiguous",
                    severity=Severity.NOTE,
                    subject=f"{file}:{dataset}",
                    tasks=(task,),
                    message=(
                        f"{task} creates variable-length {dataset} in "
                        f"{file} with contiguous layout — element data "
                        "goes through the global heap as scattered "
                        "small I/O; chunked layout batches it"),
                    evidence={"dtype": a.dtype,
                              "layout": a.layout or "contiguous"},
                )
                break


#: DY407: a task re-opening the same file at least this many times is
#: flagged as an open-in-loop anti-pattern.
OPEN_LOOP_MIN_OPENS = 8


@rule("DY407", "open-in-loop", Severity.WARNING, "contract",
      "A task's code re-opens the same file many times (open inside a "
      "loop) — each open replays superblock and metadata reads that one "
      "open outside the loop would amortize.")
def _open_in_loop(ctx: StaticContext,
                  config: LintConfig) -> Iterator[Finding]:
    for task in sorted(ctx.effective):
        contract = ctx.effective[task]
        for path in sorted(contract.file_opens):
            count = contract.file_opens[path]
            if count < OPEN_LOOP_MIN_OPENS:
                continue
            yield Finding(
                code="DY407", rule="open-in-loop",
                severity=Severity.WARNING,
                subject=path,
                tasks=(task,),
                message=(
                    f"{task} opens {path} {count} times — hoist the "
                    "open out of the loop to amortize per-open metadata "
                    "I/O"),
                evidence={"opens": count,
                          "threshold": OPEN_LOOP_MIN_OPENS},
            )


@rule("DY408", "loop-small-write-amplification", Severity.WARNING,
      "contract",
      "A contract predicts many loop-carried writes of tiny payloads to "
      "one dataset — the small-I/O amplification DY103 detects in "
      "traces, visible before the run.")
def _small_write_amplification(ctx: StaticContext,
                               config: LintConfig) -> Iterator[Finding]:
    for task in sorted(ctx.effective):
        contract = ctx.effective[task]
        seen = set()
        for a in contract.accesses:
            if not (a.moves_data and a.op in ("create", "write")):
                continue
            if a.count < SMALL_IO_MIN_OPS or a.elements is None:
                continue
            itemsize = dtype_itemsize(a.dtype) or 4
            nbytes = a.elements * itemsize
            if nbytes > SMALL_IO_MAX_AVG_BYTES or a.key in seen:
                continue
            seen.add(a.key)
            file, dataset = a.key
            yield Finding(
                code="DY408", rule="loop-small-write-amplification",
                severity=Severity.WARNING,
                subject=f"{file}:{dataset}",
                tasks=(task,),
                message=(
                    f"{task} is predicted to issue {a.count} writes of "
                    f"~{nbytes} byte(s) each to {dataset} in {file} — "
                    "batch them into fewer, larger operations"),
                evidence={"count": a.count, "bytes_per_op": nbytes},
            )


@rule("DY409", "contract-mismatch", Severity.WARNING, "contract",
      "A task's declared contract disagrees with what the AST extractor "
      "infers from its code — the declaration is stale or the code "
      "does undeclared I/O.")
def _contract_mismatch(ctx: StaticContext,
                       config: LintConfig) -> Iterator[Finding]:
    for task in sorted(ctx.contracts.declared):
        declared = ctx.contracts.declared[task]
        inferred = ctx.contracts.inferred.get(task)
        if inferred is None:
            continue
        discrepancies = reconcile(declared, inferred)
        if not discrepancies:
            continue
        yield Finding(
            code="DY409", rule="contract-mismatch",
            severity=Severity.WARNING,
            subject=task,
            tasks=(task,),
            message=(
                f"declared contract of {task} disagrees with its code: "
                + "; ".join(discrepancies)),
            evidence={"discrepancies": discrepancies},
        )
