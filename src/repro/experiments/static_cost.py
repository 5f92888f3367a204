"""Static cost prophet: predicted vs. actual makespan, per workload.

The DY6xx cost model (:mod:`repro.lint.cost`) prices a workflow before
it runs — from contracts, the calibrated device models, and a cluster
spec alone.  This experiment puts that prediction on trial across every
bundled workload:

- **predicted_s** — the static cost report's makespan, zero traces;
- **actual_s** — the simulated makespan of one real run at the same
  scale and node count;
- **DY60x** — pre-run performance findings (only the seeded
  ``perf-hazards`` fixture may carry any; everything else must be
  clean — the CI ``cost-smoke`` gate);
- **DY65x** — prediction-drift findings from joining the traced run
  back against the prediction (the cost mirror of DY45x).

:func:`run_plan_validation` closes the loop on the paper's fig11: the
greedy solver's plan (``dayu-plan``) is *executed* via the pinned
scheduler + path resolver, and its measured makespan must beat the
naive round-robin placement's.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cluster.configs import cluster_spec
from repro.experiments.common import ResultTable, fresh_env
from repro.lint import LintConfig
from repro.lint.cost import build_cost_context
from repro.lint.engine import cost_findings
from repro.workloads.registry import WORKLOADS, build_workload

__all__ = ["run_workload_cost", "run_static_cost", "run_plan_validation"]


def run_workload_cost(name: str, scale: float = 0.5, n_nodes: int = 2
                      ) -> Dict[str, float]:
    """Predict one workload, run it once, and join the two."""
    workflow, prepare = build_workload(name, scale)
    spec = cluster_spec("gpu", n_nodes)
    cctx = build_cost_context(workflow, spec)

    env = fresh_env(n_nodes=n_nodes)
    if prepare is not None:
        prepare(env.cluster)
    result = env.runner.run(workflow)
    profiles = sorted(env.mapper.profiles.values(),
                      key=lambda p: p.span.start)

    config = LintConfig(enable=("DY6*",))
    findings = cost_findings(cctx, config, profiles)
    return {
        "predicted_s": cctx.report.makespan_seconds,
        "actual_s": result.wall_time,
        "critical_path_s": cctx.report.critical_path_seconds,
        "dy60x": sum(1 for f in findings if f.code.startswith("DY60")),
        "dy65x": sum(1 for f in findings if f.code.startswith("DY65")),
    }


def run_static_cost(scale: float = 0.5) -> ResultTable:
    """The predicted-vs-actual makespan table, all bundled workloads."""
    table = ResultTable(
        title="Static cost prophet — predicted vs. actual makespan",
        columns=["workload", "predicted_s", "actual_s", "ratio",
                 "dy60x_findings", "dy65x_findings"],
    )
    names = [n for n in WORKLOADS if n != "corner"]  # corner ⊂ corner-hazards
    for name in names:
        row = run_workload_cost(name, scale)
        table.add(
            workload=name,
            predicted_s=round(row["predicted_s"], 3),
            actual_s=round(row["actual_s"], 3),
            ratio=round(row["predicted_s"] / max(row["actual_s"], 1e-9), 2),
            dy60x_findings=row["dy60x"],
            dy65x_findings=row["dy65x"],
        )
    table.notes.append(
        "predicted_s is computed before anything runs — contracts + "
        "device cost models + cluster spec, zero traces.  Only the "
        "seeded perf-hazards fixture may carry DY60x findings; DY65x "
        "counts prediction-drift findings against the traced run "
        "(AST-extracted contracts with unknown volumes drift, declared "
        "ones should not).")
    return table


def _naive_run(name: str, scale: float, n_nodes: int) -> float:
    workflow, prepare = build_workload(name, scale)
    env = fresh_env(n_nodes=n_nodes)
    if prepare is not None:
        prepare(env.cluster)
    return env.runner.run(workflow).wall_time


def _planned_run(name: str, scale: float, n_nodes: int
                 ) -> Tuple[float, float, object]:
    from repro.optimizer import solve_placement
    from repro.workflow.plan import (
        plan_path_resolver,
        stage_in_plan,
    )

    workflow, prepare = build_workload(name, scale)
    spec = cluster_spec("gpu", n_nodes)
    plan = solve_placement(workflow, spec, workload=name, scale=scale)
    env = fresh_env(n_nodes=n_nodes, pins=plan.tasks)
    env.runner.path_resolver = plan_path_resolver(plan)
    if prepare is not None:
        prepare(env.cluster)
    staged = stage_in_plan(env.cluster, plan)
    wall = env.runner.run(workflow).wall_time
    return wall, staged, plan


def run_plan_validation(names: Tuple[str, ...] = ("perf-hazards",
                                                  "pyflextrkr"),
                        scale: float = 0.5,
                        n_nodes: int = 2) -> ResultTable:
    """Execute the solver's plan and race it against round-robin."""
    table = ResultTable(
        title="Executed placement plans — naive vs. dayu-plan",
        columns=["workload", "naive_s", "planned_s", "stage_in_s",
                 "speedup", "pins", "localized_files",
                 "predicted_planned_s"],
    )
    for name in names:
        naive = _naive_run(name, scale, n_nodes)
        planned, staged, plan = _planned_run(name, scale, n_nodes)
        table.add(
            workload=name,
            naive_s=round(naive, 3),
            planned_s=round(planned + staged, 3),
            stage_in_s=round(staged, 3),
            speedup=round(naive / max(planned + staged, 1e-9), 2),
            pins=len(plan.tasks),
            localized_files=len(plan.files),
            predicted_planned_s=round(
                plan.predicted["planned_makespan_seconds"], 3),
        )
    table.notes.append(
        "The fig11 experiment, automated: the greedy solver derives the "
        "placement pre-run from the static cost model, dayu-run --plan "
        "executes it (pinned scheduler + strict path localization + "
        "stage-in on the simulated clock), and the measured makespan "
        "must beat the naive round-robin run — the CI cost-smoke gate.")
    return table


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(run_static_cost().to_markdown())
    print()
    print(run_plan_validation().to_markdown())
