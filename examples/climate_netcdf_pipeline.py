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
   recommendations, auto-build an optimization plan,
   and re-run with the plan's staging + co-scheduling applied;
4. quantify the improvement with the run comparison tool.

Run:  python examples/climate_netcdf_pipeline.py
"""

from repro.analyzer import compare_runs
from repro.experiments.common import fresh_env
from repro.guidelines import recommend
from repro.lint import ADVISORY, lint_profiles
from repro.optimizer import build_plan
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
    plan = build_plan(report.findings, env.cluster)
    print()
    print(plan.summary())

    env2 = fresh_env(n_nodes=2)
    # Re-simulate: run the ensemble, then stage + co-schedule downstream.
    opt_wf = build_climate(params)
    sim_stage, regrid_stage, stats_stage = opt_wf.stages
    runner = env2.runner
    runner.run(type(opt_wf)("climate_sim_only", [sim_stage]))
    plan.staged_paths = {
        params.member_file(i):
            f"/local/n0/ssd/member_{i:03d}.nc"
        for i in range(params.n_models)
    }
    for src, dst in plan.staged_paths.items():
        from repro.middleware import stage_in
        stage_in(env2.cluster.fs, src, dst)

    # Point regrid at the staged replicas and pin it to the data's node.
    staged_params = ClimateParams(
        data_dir=params.data_dir, n_models=params.n_models,
        timesteps=params.timesteps, cells=params.cells)
    def staged_member(i):
        return plan.staged_paths[params.member_file(i)]

    def regrid_staged(rt):
        import numpy as np
        fields = []
        for i in range(params.n_models):
            f = rt.open_netcdf(staged_member(i), "r")
            fields.append(f.variable("temperature").read())
            f.close()
        mean = np.mean(np.stack(fields), axis=0).astype(np.float32)
        out = rt.open_netcdf(params.merged_file, "w")
        out.create_dimension("time", params.timesteps)
        out.create_dimension("cell", params.cells)
        merged = out.create_variable("mean_temperature", "f4", ["time", "cell"])
        out.enddef()
        merged.write(mean)
        out.close()

    regrid_stage.tasks[0].fn = regrid_staged
    runner.pins = {"regrid": "n0", "statistics": "n0"}
    optimized = runner.run(type(opt_wf)("climate_rest", [regrid_stage, stats_stage]))

    total_opt = optimized.wall_time
    # Compare the downstream stages (simulation is identical in both runs).
    base_downstream = (baseline.stage("regrid").wall_time
                       + baseline.stage("statistics").wall_time)
    print(f"\nDownstream stages: baseline {base_downstream * 1e3:.1f} ms → "
          f"optimized {total_opt * 1e3:.1f} ms "
          f"({base_downstream / total_opt:.2f}x)")

    cmp = compare_runs(
        [env.mapper.profiles["regrid"]],
        [env2.mapper.profiles["regrid"]],
    )
    print(cmp.to_markdown())


if __name__ == "__main__":
    main()
