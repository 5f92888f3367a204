#!/usr/bin/env python
"""Climate ensemble analysis over netCDF, with automatic optimization.

DaYu's method applies to any descriptive format; this example exercises
the netCDF path end to end and then closes the loop with the automated
optimizer:

1. run a climate ensemble workflow (record-variable appends → regrid →
   statistics) under DaYu;
2. inspect how record interleaving shows up in the joined statistics
   (one scattered operation per record — netCDF's signature pattern);
3. run the advisory lint pass, print its severity-sorted findings and
   recommendations, compile them into a ``dayu-plan/v1`` plan, and
   re-run with the plan's staging + co-scheduling applied;
4. quantify the improvement with the run comparison tool.

Run:  python examples/climate_netcdf_pipeline.py
"""

from repro.analyzer import compare_runs
from repro.experiments.common import fresh_env
from repro.guidelines import recommend
from repro.lint import ADVISORY, lint_profiles
from repro.optimizer import build_plan
from repro.workflow.plan import PLAN_SCHEMA, plan_path_resolver, stage_in_plan
from repro.workloads import ClimateParams, build_climate


def main() -> None:
    params = ClimateParams(data_dir="/beegfs/climate", n_models=6,
                           timesteps=16, cells=4096)

    # ---------------- baseline run ------------------------------------
    env = fresh_env(n_nodes=2)
    print("Running the climate ensemble (netCDF) under DaYu...")
    baseline = env.runner.run(build_climate(params))
    print(f"  baseline makespan: {baseline.wall_time:.3f} simulated s")

    model0 = env.mapper.profiles["model_000"]
    [temp] = [s for s in model0.dataset_stats
              if s.data_object == "/temperature"]
    print(f"  record interleaving: /temperature wrote "
          f"{temp.writes} separate records "
          f"({temp.bytes_written} B total) — one POSIX op per record\n")

    report = lint_profiles(list(env.mapper.profiles.values()), ADVISORY)
    for finding in report.findings:
        print(f"  {finding}")
    print(report.summary())
    print("\nRecommended actions:")
    for rec in recommend(report.findings):
        print(f"  - {rec}")

    # ---------------- automated optimization --------------------------
    # The advisory findings compile to a dayu-plan/v1 plan, which runs
    # through the same executor as a solved one (or ``dayu-run --plan``).
    plan = build_plan(report.findings, env.cluster)
    print(f"\nOptimization plan ({PLAN_SCHEMA}):")
    for f in plan.files:
        print(f"  stage {f.path} -> {f.placed_path}")
    for task, node in sorted(plan.tasks.items()):
        print(f"  pin   {task} -> {node}")

    env2 = fresh_env(n_nodes=2, pins=plan.tasks)
    env2.runner.path_resolver = plan_path_resolver(plan)
    staged = stage_in_plan(env2.cluster, plan)
    optimized = env2.runner.run(build_climate(params))
    if optimized.failures:
        raise SystemExit(f"planned re-run lost tasks: "
                         f"{sorted(optimized.failures)}")
    print(f"\nMakespan: baseline {baseline.wall_time * 1e3:.1f} ms → "
          f"optimized {optimized.wall_time * 1e3:.1f} ms "
          f"({baseline.wall_time / optimized.wall_time:.2f}x, "
          f"stage-in {staged * 1e3:.1f} ms)")

    cmp = compare_runs(
        [env.mapper.profiles["regrid"]],
        [env2.mapper.profiles["regrid"]],
    )
    print(cmp.to_markdown())


if __name__ == "__main__":
    main()
