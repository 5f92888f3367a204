#!/usr/bin/env python
"""Storm tracking: analyze the nine-stage PyFLEXTRKR pipeline with DaYu.

Reproduces the paper's Section VI-A study end to end:

1. run the full PyFLEXTRKR I/O skeleton on a simulated two-node cluster;
2. build and export the workflow's File-Task Graph (the paper's Figure 4);
3. run the advisory lint pass over the dataflow — data reuse, the
   stage-3 write-after-read, the stage-6 time-dependent inputs,
   disposable data, and the stage-9 data scattering (Figure 5);
4. print the optimization recommendations DaYu's guidelines derive.

Run:  python examples/storm_tracking_analysis.py
"""

from repro.analyzer import build_ftg, build_sdg, to_html
from repro.experiments.common import fresh_env
from repro.guidelines import recommend
from repro.lint import ADVISORY, lint_profiles
from repro.workloads.pyflextrkr import (
    PyflextrkrParams,
    build_pyflextrkr,
    prepare_pyflextrkr_inputs,
)


def main() -> None:
    env = fresh_env(n_nodes=2)
    params = PyflextrkrParams(
        data_dir="/beegfs/flex", n_files=8, grid=8192, n_parallel=4,
        small_datasets=32, speed_reads=23,
    )
    prepare_pyflextrkr_inputs(env.cluster, params)

    print("Running the nine-stage PyFLEXTRKR pipeline under DaYu...")
    result = env.runner.run(build_pyflextrkr(params))
    for stage in result.stage_results:
        print(f"  {stage.name:<22} wall={stage.wall_time * 1e3:8.1f} ms "
              f"({len(stage.task_durations)} task(s))")
    print(f"  total makespan: {result.wall_time:.3f} simulated seconds\n")

    profiles = list(env.mapper.profiles.values())
    ftg = build_ftg(profiles)
    with open("pyflextrkr_ftg.html", "w") as fh:
        fh.write(to_html(ftg, title="PyFLEXTRKR Workflow FTG (cf. Figure 4)"))
    stage9 = [p for p in profiles if p.task.startswith("run_speed")]
    with open("pyflextrkr_stage9_sdg.html", "w") as fh:
        fh.write(to_html(build_sdg(stage9),
                         title="PyFLEXTRKR Stage-9 SDG (cf. Figure 5)"))
    print("Wrote pyflextrkr_ftg.html and pyflextrkr_stage9_sdg.html\n")

    report = lint_profiles(profiles, ADVISORY)
    for finding in report.findings:
        print(f"  {finding}")
    print(report.summary())

    print("\nRecommended optimizations (strongest support first):")
    for rec in recommend(report.findings)[:8]:
        print(f"  - {rec}")


if __name__ == "__main__":
    main()
