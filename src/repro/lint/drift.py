"""DY45x — contract drift: the predicted vs. observed differential.

After a run, each task's access contract (declared or AST-inferred) is
joined against the trace-derived
:class:`~repro.lint.context.ProfileSummary` of the same task.  Drift in
either direction is a finding:

- the code touched data its contract never mentioned (DY451) — the
  contract is stale, or the task does I/O its author doesn't know about;
- the contract promised I/O the run never performed (DY452) — dead
  declarations, or a silently skipped code path.

Matching is deliberately asymmetric where the contract is weaker than
the trace: ``open`` accesses (metadata-only touches) are never required
to materialize; ``conditional`` and inexact accesses are exempt from
DY452 (the extractor already said they may not happen); dataless
``create`` accesses are matched through the file-level write marker,
since defining a dataset moves metadata but no data.

Every rule here has ``scope="drift"`` and the signature
``check(summary, contract, config) -> findings`` — per task, joined by
:func:`~repro.lint.engine.diff_profiles`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set, Tuple

from repro.lint.context import ProfileSummary
from repro.lint.findings import Finding, Severity
from repro.lint.rules import LintConfig, rule
from repro.workflow.contracts import TaskContract

__all__ = []  # rules register themselves; nothing to import by name


def _covered_ops(contract: TaskContract,
                 key: Tuple[str, str]) -> Set[str]:
    """Operation kinds the contract claims for one ``(file, dataset)``.

    Any mention of the dataset (including ``open``) counts as coverage
    for metadata; ``read``/``write`` coverage requires a data access —
    with a data-bearing ``create`` implying ``write``.
    """
    ops: Set[str] = set()
    for a in contract.accesses:
        if a.key != key:
            continue
        ops.add("touch")
        if a.op == "read":
            ops.add("read")
        elif a.op == "write":
            ops.add("write")
        elif a.op == "create":
            ops.add("create")
            if a.moves_data:
                ops.add("write")
    return ops


@rule("DY451", "undeclared-access", Severity.ERROR, "drift",
      "The run moved data through a dataset the task's contract never "
      "mentions — the contract is stale or the code performs I/O its "
      "author doesn't know about.")
def _undeclared_access(summary: ProfileSummary,
                       contract: Optional[TaskContract],
                       config: LintConfig) -> Iterator[Finding]:
    if contract is None:
        return  # uncontracted tasks are DY453's
    for key in sorted(summary.objects):
        acc = summary.objects[key]
        observed = set()
        if acc.raw_reads or acc.vol_reads:
            observed.add("read")
        if acc.raw_writes or acc.vol_writes:
            observed.add("write")
        if not observed:
            continue
        missing = observed - _covered_ops(contract, key)
        if not missing:
            continue
        file, dataset = key
        kinds = " and ".join(sorted(missing))
        yield Finding(
            code="DY451", rule="undeclared-access",
            severity=Severity.ERROR,
            subject=f"{file}:{dataset}",
            tasks=(summary.task,),
            message=(
                f"{summary.task} performed a {kinds} of {dataset} in "
                f"{file} that its contract never declares"),
            evidence={
                "undeclared": sorted(missing),
                "raw_reads": acc.raw_reads,
                "raw_writes": acc.raw_writes,
                "vol_reads": acc.vol_reads,
                "vol_writes": acc.vol_writes,
            },
        )


def _performed(summary: ProfileSummary, key: Tuple[str, str],
               op: str) -> bool:
    acc = summary.objects.get(key)
    if op == "read":
        return acc is not None and bool(acc.raw_reads or acc.vol_reads)
    if op == "write":
        return acc is not None and bool(acc.raw_writes or acc.vol_writes)
    # "create": a dataless definition moves only file metadata, so any
    # write into the file satisfies it.
    if acc is not None and (acc.raw_writes or acc.vol_writes):
        return True
    return key[0] in summary.files_written


@rule("DY452", "unperformed-contract", Severity.WARNING, "drift",
      "The task's contract promises I/O the run never performed — a dead "
      "declaration, or a silently skipped code path.  Conditional and "
      "inexact contract entries are exempt.")
def _unperformed_contract(summary: ProfileSummary,
                          contract: Optional[TaskContract],
                          config: LintConfig) -> Iterator[Finding]:
    if contract is None:
        return
    reported: Set[Tuple[str, str, str]] = set()
    for a in contract.accesses:
        # "open" and "resize" are metadata-only — never required to
        # materialize as data movement in the trace.
        if a.op in ("open", "resize") or a.conditional or not a.exact:
            continue
        if a.op == "create" and not a.moves_data:
            op = "create"
        elif a.op == "create":
            op = "write"
        else:
            op = a.op
        if (a.file, a.dataset, op) in reported:
            continue
        if _performed(summary, a.key, op):
            continue
        reported.add((a.file, a.dataset, op))
        verb = {"read": "a read of", "write": "a write to",
                "create": "the creation of"}[op]
        yield Finding(
            code="DY452", rule="unperformed-contract",
            severity=Severity.WARNING,
            subject=f"{a.file}:{a.dataset}",
            tasks=(summary.task,),
            message=(
                f"contract of {summary.task} ({contract.source}) "
                f"promises {verb} {a.dataset} in {a.file}, but the run "
                "never performed it"),
            evidence={"op": op, "source": contract.source},
        )


@rule("DY453", "uncontracted-task", Severity.NOTE, "drift",
      "A traced task has no contract at all — neither declared nor "
      "recoverable by the AST extractor — so drift checking cannot "
      "cover it.")
def _uncontracted_task(summary: ProfileSummary,
                       contract: Optional[TaskContract],
                       config: LintConfig) -> Iterator[Finding]:
    if contract is not None:
        return
    yield Finding(
        code="DY453", rule="uncontracted-task",
        severity=Severity.NOTE,
        subject=summary.task,
        tasks=(summary.task,),
        message=(
            f"task {summary.task} appears in the traces but has no "
            "access contract — declare one or check extractor notes"),
        evidence={},
    )
