"""The lint engine: run rules over profiles, collect a report, baseline.

:func:`lint_profiles` is the entry point.  It and ``dayu-serve`` both
finish through :func:`finish_lint` over per-profile :func:`lint_unit`
results.  The enabled rules split by scope — profile-scoped rules see
each :class:`~repro.mapper.mapper.TaskProfile` in isolation (the unit
part, which the service computes once per task), workflow-scoped rules
see the cross-task :class:`~repro.lint.context.WorkflowIndex` plus the
happens-before oracle — and everything folds into a deterministic,
severity-ordered :class:`LintReport`.

Two trace-less entry points sit beside it: :func:`lint_workflow` runs
the pre-run ``contract``-scoped DY40x rules over a workflow definition
(no traces needed), and :func:`diff_profiles` joins saved traces against
the same contracts through the ``drift``-scoped DY45x rules.

Baselines are flat text files of finding fingerprints (one per line,
``#`` comments allowed).  A fingerprint covers a finding's stable
identity only, so re-running the same workflow keeps suppressing the
same accepted findings while anything new still fails the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analyzer.ordering import dependency_dag
from repro.lint.context import (
    OrderingInfo,
    ProfileSummary,
    build_index,
    compute_ordering,
    summarize_profile,
)
from repro.lint.findings import Finding, Severity
from repro.lint.rules import LintConfig, LintRule
from repro.mapper.mapper import TaskProfile

# Importing the rule modules populates the registry.
from repro.lint import advisory as _advisory  # noqa: F401
from repro.lint import drift as _drift  # noqa: F401
from repro.lint import hazards as _hazards  # noqa: F401
from repro.lint import integrity as _integrity  # noqa: F401
from repro.lint import perf as _perf  # noqa: F401
from repro.lint import prerun as _prerun  # noqa: F401
from repro.lint import race as _race  # noqa: F401
from repro.lint.race import build_trace_race_context
from repro.lint import semantic as _semantic  # noqa: F401

__all__ = [
    "LintReport",
    "lint_profiles",
    "lint_unit",
    "finish_lint",
    "lint_workflow",
    "diff_profiles",
    "run_profile_rules",
    "run_workflow_rules",
    "run_rules",
    "run_drift_rules",
    "cost_findings",
    "load_baseline",
    "save_baseline",
    "parse_baseline",
    "baseline_text",
]

_REPORT_VERSION = 1


@dataclass
class LintReport:
    """Deterministically ordered findings plus suppression bookkeeping."""

    findings: List[Finding] = field(default_factory=list)
    #: Findings that matched the baseline and were suppressed.
    suppressed: List[Finding] = field(default_factory=list)
    #: Tasks that were linted (recorded even when everything is clean).
    tasks: List[str] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        out = {sev.value: 0 for sev in Severity}
        for f in self.findings:
            out[f.severity.value] += 1
        return out

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def clean(self) -> bool:
        return not self.findings

    def apply_baseline(self, fingerprints: Set[str]) -> "LintReport":
        """Split findings into kept vs baseline-suppressed."""
        kept = [f for f in self.findings if f.fingerprint not in fingerprints]
        gone = [f for f in self.findings if f.fingerprint in fingerprints]
        return LintReport(findings=kept,
                          suppressed=[*self.suppressed, *gone],
                          tasks=list(self.tasks))

    def summary(self) -> str:
        c = self.counts
        parts = [f"{c['error']} error(s)", f"{c['warning']} warning(s)",
                 f"{c['note']} note(s)"]
        if self.suppressed:
            parts.append(f"{len(self.suppressed)} baseline-suppressed")
        return (f"dayu-lint: {', '.join(parts)} "
                f"across {len(self.tasks)} task(s)")

    def to_json_dict(self) -> dict:
        return {
            "version": _REPORT_VERSION,
            "tool": "dayu-lint",
            "tasks": list(self.tasks),
            "counts": self.counts,
            "findings": [f.to_json_dict() for f in self.findings],
            "suppressed": [f.fingerprint for f in self.suppressed],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent) + "\n"


def run_profile_rules(profile: TaskProfile,
                      config: LintConfig) -> List[Finding]:
    """Evaluate every enabled profile-scoped rule against one profile
    (the findings half of a :func:`lint_unit`)."""
    findings: List[Finding] = []
    for r in config.enabled_rules(scope="profile"):
        findings.extend(r.check(profile, config))
    return findings


def run_workflow_rules(profiles: Sequence[TaskProfile],
                       config: LintConfig,
                       summaries,
                       task_order: Optional[Sequence[str]] = None,
                       dag=None,
                       ) -> List[Finding]:
    """Evaluate every enabled workflow-scoped rule over the cross-task
    index.  ``summaries`` are the profiles' digests (one per profile, from
    :func:`lint_unit`); the dependency ``dag`` is computed here when not
    given.  ``task_order`` overrides the start-time execution order the
    DY7xx advisory rules walk (see
    :func:`~repro.lint.context.execution_order`)."""
    rules = config.enabled_rules(scope="workflow")
    if not rules:
        return []
    index = build_index(summaries, profiles, task_order)
    ordering = compute_ordering(profiles, dag)
    findings: List[Finding] = []
    for r in rules:
        findings.extend(r.check(index, ordering, config))
    return findings


def run_rules(scope: str, ctx, config: LintConfig) -> List[Finding]:
    """Evaluate every enabled rule of ``scope`` over its context: a
    :class:`~repro.lint.race.RaceContext` for ``race`` (DY5xx), a
    :class:`~repro.lint.predict.StaticContext` for ``contract`` (DY40x),
    a :class:`~repro.lint.cost.CostContext` for ``perf`` (DY60x) and a
    :class:`~repro.lint.cost.CostDriftContext` for ``costdrift``
    (DY65x)."""
    findings: List[Finding] = []
    for r in config.enabled_rules(scope=scope):
        findings.extend(r.check(ctx, config))
    return findings


def _needs_summaries(config: LintConfig) -> bool:
    return bool(config.enabled_rules(scope="workflow")
                or config.enabled_rules(scope="race"))


#: One profile's share of a lint pass (see :func:`lint_unit`).
LintUnit = Tuple[List[Finding], Optional[ProfileSummary]]


def lint_unit(profile: TaskProfile, config: LintConfig) -> LintUnit:
    """One profile's share of a lint pass: its profile-scoped findings and
    its cross-task :class:`~repro.lint.context.ProfileSummary` (None when
    no enabled workflow or race rule reads digests).

    Depends on nothing but the profile and the config, so ``dayu-serve``
    computes each task's once, as it arrives.
    """
    summary = (summarize_profile(profile, config.page_size)
               if _needs_summaries(config) else None)
    return run_profile_rules(profile, config), summary


def finish_lint(profiles: Sequence[TaskProfile],
                units: Sequence[LintUnit],
                config: LintConfig,
                attempts: Optional[Dict[str, int]] = None,
                task_order: Optional[Sequence[str]] = None) -> LintReport:
    """Finish a lint pass from its per-profile units.

    ``units[i]`` is :func:`lint_unit` of ``profiles[i]`` under ``config``.
    Runs the cross-task rules — workflow scope, then race scope, both
    over one dependency DAG and the units' digests — and sorts
    everything into the report.  Every trace lint ends here, so offline
    and service reports agree byte for byte.
    """
    findings = [f for unit_findings, _ in units for f in unit_findings]
    if _needs_summaries(config):
        summaries = [summary for _, summary in units]
        dag = dependency_dag(profiles)
        findings.extend(run_workflow_rules(profiles, config,
                                           summaries=summaries,
                                           task_order=task_order, dag=dag))
        if config.enabled_rules(scope="race"):
            ctx = build_trace_race_context(profiles, config,
                                           summaries=summaries,
                                           attempts=attempts, dag=dag)
            findings.extend(run_rules("race", ctx, config))
    findings.sort(key=Finding.sort_key)
    return LintReport(findings=findings,
                      tasks=sorted(p.task for p in profiles))


def lint_profiles(profiles: Sequence[TaskProfile],
                  config: Optional[LintConfig] = None,
                  attempts: Optional[Dict[str, int]] = None,
                  task_order: Optional[Sequence[str]] = None) -> LintReport:
    """Run all enabled rules over a workflow's task profiles.

    ``attempts`` carries the runner's per-task retry counts (from
    ``WorkflowResult``); only the DY505 retry-race rule consumes it.
    ``task_order`` is a recovered execution order for the order-sensitive
    DY7xx advisory rules (default: by start time).
    """
    config = config or LintConfig()
    return finish_lint(profiles, [lint_unit(p, config) for p in profiles],
                       config, attempts=attempts, task_order=task_order)


# ----------------------------------------------------------------------
# Pre-run (contract) and drift linting
# ----------------------------------------------------------------------
def cost_findings(cctx, config: LintConfig,
                  profiles: Optional[Sequence[TaskProfile]] = None
                  ) -> List[Finding]:
    """All cost-prophet findings for one prediction (unsorted).

    Runs the pre-run DY60x rules over ``cctx`` and — when a traced run's
    ``profiles`` are supplied — the DY65x drift rules against it.  One
    call site for CLI, analyzer, and experiments, so every delivery mode
    produces identical findings for identical inputs.
    """
    findings = run_rules("perf", cctx, config)
    if profiles is not None:
        from repro.lint.cost import build_cost_drift_context

        dctx = build_cost_drift_context(cctx.report, profiles)
        findings.extend(run_rules("costdrift", dctx, config))
    return findings


def lint_workflow(workflow, config: Optional[LintConfig] = None,
                  spec=None) -> LintReport:
    """Lint a workflow *definition* — no traces required.

    Extracts access contracts for every task (once per workflow object,
    see :func:`~repro.lint.predict.build_static_context`), joins them
    into the static context, and runs the DY40x pre-run rules.  When a
    :class:`~repro.cluster.configs.ClusterSpec` is supplied (``spec``)
    and any ``perf``-scoped rule is enabled, the static cost report is
    built and the DY60x rules run too.
    """
    from repro.lint.predict import build_static_context

    config = config or LintConfig()
    ctx = build_static_context(workflow)
    findings = run_rules("contract", ctx, config)
    if config.enabled_rules(scope="race"):
        from repro.lint.race import build_static_race_context

        race_ctx = build_static_race_context(ctx, config)
        findings.extend(run_rules("race", race_ctx, config))
    if spec is not None and config.enabled_rules(scope="perf"):
        from repro.lint.cost import CostContext, build_cost_report

        report = build_cost_report(ctx, spec)
        findings.extend(run_rules(
            "perf", CostContext(static=ctx, spec=spec, report=report), config))
    findings.sort(key=Finding.sort_key)
    return LintReport(findings=findings,
                      tasks=sorted(t.name for t in workflow.all_tasks()))


def run_drift_rules(summary, contract, config: LintConfig) -> List[Finding]:
    """Evaluate every enabled ``drift``-scoped (DY45x) rule for one task.

    ``summary`` is the task's traced
    :class:`~repro.lint.context.ProfileSummary`; ``contract`` its
    effective :class:`~repro.workflow.contracts.TaskContract` (or None).
    """
    findings: List[Finding] = []
    for r in config.enabled_rules(scope="drift"):
        findings.extend(r.check(summary, contract, config))
    return findings


def diff_profiles(profiles: Sequence[TaskProfile], contracts,
                  config: Optional[LintConfig] = None) -> LintReport:
    """Join traced profiles against contracts: the drift check.

    ``contracts`` maps task name to its effective contract (see
    :meth:`~repro.lint.static.WorkflowContracts.effective`).
    """
    config = config or LintConfig()
    findings: List[Finding] = []
    for p in profiles:
        summary = summarize_profile(p, config.page_size)
        findings.extend(run_drift_rules(summary, contracts.get(p.task),
                                        config))
    findings.sort(key=Finding.sort_key)
    return LintReport(findings=findings,
                      tasks=sorted(p.task for p in profiles))


# ----------------------------------------------------------------------
# Baseline files
# ----------------------------------------------------------------------
def parse_baseline(text: str) -> Set[str]:
    """Fingerprints from baseline text (one per line; ``#`` comments)."""
    out: Set[str] = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.add(line)
    return out


def load_baseline(path: str) -> Set[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_baseline(fh.read())


def baseline_text(findings: Iterable[Finding]) -> str:
    """Render findings as a baseline file (sorted, annotated)."""
    lines = ["# dayu-lint baseline: accepted finding fingerprints.",
             "# Regenerate with: dayu-lint <traces> --write-baseline <path>"]
    seen = set()
    for f in sorted(findings, key=Finding.sort_key):
        if f.fingerprint in seen:
            continue
        seen.add(f.fingerprint)
        lines.append(f"{f.fingerprint}  # {f.code} {f.subject}")
    return "\n".join(lines) + "\n"


def save_baseline(path: str, findings: Iterable[Finding]) -> None:
    from repro.ioutil import atomic_write_text

    atomic_write_text(path, baseline_text(findings))
