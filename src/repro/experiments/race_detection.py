"""Race detection sweep: DY5xx findings per bundled workload.

Beyond the paper's figures, this experiment characterizes the
happens-before race pass (:mod:`repro.lint.race`) across every bundled
workload, in all three modes:

- **post-hoc** over the row traces of one run (`racy-pipeline` runs
  under its seeded fault spec with retries, so the DY505 attempt
  history is real);
- **columnar** — the same run compacted to one ``.dayuc`` file and
  linted with ``lint_run``, asserted byte-identical to the row report;
- **static** — the workflow *definition* linted pre-run from its
  access contracts, no execution at all.

The expected shape, enforced by CI's ``race-smoke`` job: every workload
is DY5xx-clean except the two seeded fixtures — ``racy-pipeline``
(designed ground truth: true WAW, barrier-masked WAW, disjoint-selection
trap downgraded to a warning, metadata race, retry-exposed RMW) and
``corner-hazards`` (its DY2xx seeds are DY5xx races too) — and the
static mode convicts the same DY501–503 (code, subject, tasks) set on
``racy-pipeline`` as the post-hoc mode does.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.experiments.common import ResultTable, fresh_env
from repro.lint import LintConfig, lint_profiles, lint_workflow
from repro.workloads.registry import WORKLOADS, build_workload

__all__ = ["run_workload_races", "run_race_detection"]


def _counts(findings) -> Dict[str, int]:
    out = {"errors": 0, "warnings": 0, "notes": 0}
    for f in findings:
        if not f.code.startswith("DY5"):
            continue
        out[f.severity.value + "s"] += 1
    return out


def run_workload_races(
    name: str, scale: float = 0.5
) -> Tuple[Dict[str, int], Dict[str, int], bool, Optional[int]]:
    """One workload through all three modes.

    Returns ``(trace_counts, static_counts, row_eq_columnar, attempts)``
    where ``attempts`` is the retried-task count (racy-pipeline only).
    """
    import tempfile
    from pathlib import Path

    from repro.analyzer import ParallelAnalyzer
    from repro.mapper.columnar import encode_run

    config = LintConfig(enable=("DY5*",))
    workflow, prepare = build_workload(name, scale)
    env = fresh_env(n_nodes=2)
    attempts = None
    retried = None
    if name == "racy-pipeline":
        from repro.faults import FaultInjector
        from repro.workflow.runner import RetryPolicy, WorkflowRunner
        from repro.workloads.racy_pipeline import RacyParams, racy_fault_spec

        params = RacyParams(elems=max(int(1024 * scale), 8))
        runner = WorkflowRunner(
            env.cluster, env.mapper,
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.25))
        runner.faults = FaultInjector(
            racy_fault_spec(params), env.cluster).arm()
        result = runner.run(workflow)
        attempts = dict(result.attempts)
        retried = sum(1 for n in attempts.values() if n > 1)
    else:
        if prepare is not None:
            prepare(env.cluster)
        env.runner.run(workflow)
    profiles = sorted(env.mapper.profiles.values(),
                      key=lambda p: p.span.start)
    trace_report = lint_profiles(profiles, config, attempts=attempts)
    static_report = lint_workflow(workflow, config)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "run.dayuc").write_bytes(encode_run(profiles))
        analyzer = ParallelAnalyzer(max_workers=1, with_io_records=True)
        col_report = analyzer.lint_run(tmp, config, attempts=attempts)
    identical = col_report.to_json() == trace_report.to_json()
    return (_counts(trace_report.findings), _counts(static_report.findings),
            identical, retried)


def run_race_detection(scale: float = 0.5) -> ResultTable:
    """The DY5xx race table over every bundled workload."""
    table = ResultTable(
        title="Happens-before race detection — DY5xx per bundled workload",
        columns=["workload", "trace_errors", "trace_warnings",
                 "trace_notes", "static_errors", "row_vs_columnar"],
    )
    names = [n for n in WORKLOADS if n != "corner"]  # corner ⊂ corner-hazards
    for name in names:
        trace, static, identical, retried = run_workload_races(name, scale)
        table.add(
            workload=name + (f" (+{retried} retried)" if retried else ""),
            trace_errors=trace["errors"],
            trace_warnings=trace["warnings"],
            trace_notes=trace["notes"],
            static_errors=static["errors"],
            row_vs_columnar="identical" if identical else "DIFFER",
        )
    table.notes.append(
        "Opt-in DY5xx family over dependency-only happens-before; "
        "racy-pipeline and corner-hazards are the seeded fixtures, "
        "everything else must stay clean.  racy-pipeline runs under its "
        "seeded fault window with retries, so DY505 sees a real attempt "
        "history; the columnar column asserts the report over the "
        "compacted run is byte-identical to the row path.")
    return table


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(run_race_detection().to_markdown())
