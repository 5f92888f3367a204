#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: run every experiment harness at its default
(paper-calibrated) scale and record paper-vs-measured for each table and
figure.

Run:  python scripts/generate_experiments_md.py  [output-path]
"""

import sys
import time

from repro.experiments.analyzer_scale import run_analyzer_scale
from repro.experiments.columnar_analytics import run_workload_table
from repro.experiments.dataflow_scheduler import run_scheduler_comparison
from repro.experiments.fig9_overhead import (
    run_fig9a_filesize,
    run_fig9b_processes,
    run_fig9c_read_scaling,
    run_fig9d_storage,
)
from repro.experiments.fig10_breakdown import (
    run_fig10a_h5bench,
    run_fig10b_corner_case,
)
from repro.experiments.fig11_placement import run_fig11
from repro.experiments.fig12_ddmd import run_fig12
from repro.experiments.fig13a_consolidation import run_fig13a
from repro.experiments.fig13b_layout import run_fig13b
from repro.experiments.fault_resilience import run_fault_resilience
from repro.experiments.fig13c_arldm import run_fig13c
from repro.experiments.graphs import generate_all_graphs
from repro.experiments.guideline_validation import run_guideline_validation
from repro.experiments.monitor_overhead import run_ddmd_dynamics
from repro.experiments.service_load import run_service_load
from repro.experiments.static_cost import run_plan_validation, run_static_cost

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, regenerated by this
repository's experiment harnesses (`src/repro/experiments/`, driven by
`benchmarks/`).  Absolute numbers come from a calibrated storage-device
model at data scales ~1000x below the paper's testbeds, so the comparison
targets **shape**: who wins, scaling direction, and approximate factors.

Substitutions are inventoried in `DESIGN.md`.  Regenerate this file with
`python scripts/generate_experiments_md.py`.

## Headline claims

| Paper claim | Measured here |
|---|---|
| Runtime overhead typically <0.2-0.25% | {headline_typical} |
| Runtime overhead <=4% in the corner case | {headline_corner} |
| Trace storage <0.25% of data volume (VFD, linear) | {headline_storage} |
| Analyzer: <15 s for 1k nodes / 6k edges; <2 s HTML | {headline_analyzer} |
| PyFLEXTRKR stages 3-5: 1.6x overall, 2.6x stage-3 (C1) | {headline_fig11} |
| DDMD: 1.15x per iteration, 1.2x over 5 iterations | {headline_fig12} |
| Consolidation: 1.7-3.7x I/O-time reduction | {headline_fig13a} |
| Contiguous vs chunked (DDMD): up to 1.9x | {headline_fig13b} |
| Chunked VL (ARLDM): up to 1.4x, ~2x fewer write ops | {headline_fig13c} |

## Graph figures (3-8)

Regenerated as interactive HTML + DOT under `artifacts/`:
{graph_list}

The Figure 7 pop-up fact (training accesses only the aggregated
contact_map's *metadata*) is checked programmatically during generation:
**{fig7_fact}**.

---

"""


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    t_start = time.time()
    sections = []

    print("fig9a/b/c/d ...")
    fig9a = run_fig9a_filesize()
    fig9b = run_fig9b_processes()
    fig9c = run_fig9c_read_scaling()
    fig9d = run_fig9d_storage()
    print("fig10 ...")
    fig10a = run_fig10a_h5bench()
    fig10b = run_fig10b_corner_case()
    print("fig11 ...")
    fig11 = run_fig11()
    print("fig12 ...")
    fig12 = run_fig12()
    print("fig13a ...")
    fig13a = run_fig13a()
    print("fig13b ...")
    fig13b = run_fig13b()
    print("fig13c ...")
    fig13c = run_fig13c()
    print("guideline validation ...")
    guidelines = run_guideline_validation()
    print("analyzer scale ...")
    scale = run_analyzer_scale()
    print("columnar analytics ...")
    columnar = run_workload_table()
    print("static cost prophet ...")
    static_cost = run_static_cost()
    plan_validation = run_plan_validation()
    print("ddmd live dynamics ...")
    dynamics = run_ddmd_dynamics()
    print("fault resilience ...")
    resilience = run_fault_resilience()
    print("service load ...")
    service = run_service_load()
    print("scheduler comparison ...")
    sched = run_scheduler_comparison()
    print("graph artifacts ...")
    artifacts = generate_all_graphs("artifacts")

    # ---------------- headline summaries -------------------------------
    typical = max(
        max(fig9a.column("vfd_percent")), max(fig9a.column("vol_percent")),
        max(fig9b.column("vfd_percent")), max(fig9b.column("vol_percent")),
    )
    corner = max(
        v + w for v, w in zip(fig9c.column("vfd_percent"),
                              fig9c.column("vol_percent"))
    )
    storage_max = max(fig9d.column("vfd_storage_percent"))
    f11_base, f11_opt = fig11.rows[0], fig11.rows[1]
    f11_overall = f11_base["total_s"] / f11_opt["total_s"]
    f11_stage3 = f11_base["Stage 3"] / f11_opt["Stage 3"]
    f12_overall = sum(fig12.column("baseline_s")) / sum(fig12.column("optimized_s"))
    f13a_lo, f13a_hi = (min(fig13a.column("reduction")),
                        max(fig13a.column("reduction")))
    f13b_hi = max(fig13b.column("speedup"))
    f13c_hi = max(r["speedup_vs_contig"] for r in fig13c.rows
                  if r["variant"] == "5 chunks")
    contig20 = next(r["write_ops"] for r in fig13c.rows
                    if r["total_mib"] == 20 and r["variant"].startswith("contig"))
    chunk20 = next(r["write_ops"] for r in fig13c.rows
                   if r["total_mib"] == 20 and r["variant"] == "5 chunks")

    header = HEADER.format(
        headline_typical=f"max {typical:.3f}% across the h5bench sweeps",
        headline_corner=f"max {corner:.2f}% (VFD+VOL) at ~8200 ops/file",
        headline_storage=(
            f"VFD linear, max {storage_max:.2f}%; VOL flat "
            f"{max(fig9d.column('vol_storage_percent')):.3f}%"
        ),
        headline_analyzer=(
            f"{scale['analyze_seconds']:.2f} s analyze / "
            f"{scale['render_seconds']:.2f} s HTML on "
            f"{scale['ftg_nodes']} nodes / {scale['ftg_edges']} edges"
        ),
        headline_fig11=f"{f11_overall:.2f}x overall, {f11_stage3:.2f}x stage-3 (C1)",
        headline_fig12=f"{f12_overall:.2f}x overall over 5 iterations",
        headline_fig13a=f"{f13a_lo:.2f}x - {f13a_hi:.2f}x",
        headline_fig13b=f"up to {f13b_hi:.2f}x",
        headline_fig13c=(
            f"up to {f13c_hi:.2f}x; write ops {contig20} → {chunk20} "
            f"({contig20 / chunk20:.1f}x fewer)"
        ),
        graph_list="\n".join(
            f"- `{name}` → `{paths['html']}`" for name, paths in artifacts.items()
        ),
        fig7_fact=artifacts["fig7_ddmd_sdg"].get(
            "metadata_only_contact_map", "NOT CONFIRMED"),
    )

    for table in (fig9a, fig9b, fig9c, fig9d, fig11, fig12, fig13a,
                  fig13b, fig13c, guidelines):
        sections.append(table.to_markdown())
    sections.append(fig10a.to_table().to_markdown())
    sections.append(fig10b.to_table().to_markdown())
    sections.append(
        "### Analyzer scalability (Section VII-B)\n\n"
        f"- FTG: {scale['ftg_nodes']} nodes / {scale['ftg_edges']} edges; "
        f"SDG: {scale['sdg_nodes']} nodes / {scale['sdg_edges']} edges\n"
        f"- analyze (FTG+SDG+advisory lint): {scale['analyze_seconds']:.2f} s "
        "(paper: <15 s)\n"
        f"- HTML rendering: {scale['render_seconds']:.2f} s (paper: <2 s)\n"
    )
    sections.append(
        columnar.to_markdown() + "\n\n"
        "Beyond the paper: the columnar trace engine\n"
        "(`repro.mapper.columnar`, `dayu-compact`).  Each workload's\n"
        "per-task row traces are compacted into one footer-indexed\n"
        "`.dayuc` run file; the columnar pass mmaps it, builds FTG+SDG\n"
        "from the stats column chunks and lints the run's profiles.\n"
        "Graphs and lint fingerprints must be byte-identical\n"
        "to the row path on every workload (the CI `columnar-smoke`\n"
        "gate); `BENCH_columnar.json` holds the synthetic ~1k-node gate\n"
        "(>=10x vs. the seed JSON pipeline).")
    sections.append(
        static_cost.to_markdown() + "\n\n" + plan_validation.to_markdown()
        + "\n\n"
        "Beyond the paper: the static cost prophet (`repro.lint.cost`,\n"
        "`dayu-lint --cost`, `dayu-plan`).  The predicted column is\n"
        "computed with zero traces — contracts joined with the\n"
        "calibrated device models over a cluster spec — and the DY6xx\n"
        "rules convict the seeded perf-hazards fixture pre-run while\n"
        "every other workload stays clean.  The second table executes\n"
        "the solver's fig11-style plan (`dayu-run --plan`) and races it\n"
        "against the naive round-robin placement (the CI `cost-smoke`\n"
        "gate: planned must beat naive).")
    sections.append(
        dynamics.to_markdown() + "\n\n"
        "The paper's *dynamics* axis, beyond its post-hoc tables: the\n"
        "`repro.monitor` live aggregator keys byte flow by (task, file,\n"
        "dataset) into sliding windows while the run executes, so the\n"
        "DDMD phase structure — simulate, aggregate, train, infer — is\n"
        "readable off the window intervals without loading a single\n"
        "saved trace.  `dayu-monitor ddmd --out monitor-out/` writes the\n"
        "full series as `series.json`.")
    sections.append(
        resilience.to_markdown() + "\n\n"
        "Beyond the paper: the `repro.faults` chaos plane under transient\n"
        "write faults on the chaos workload's partition directory.  With\n"
        "no retries, lost best-effort partitions push the merge onto its\n"
        "recompute path; a 2-retry policy recovers most of the fault-free\n"
        "makespan at the cost of a small seeded backoff wait (charged to\n"
        "the `retry_backoff` clock account).  Fixed seed: every row\n"
        "replays bit-for-bit (the CI `faults-smoke` gate).")
    sections.append(
        service["table_markdown"] + "\n\n"
        "Beyond the paper: DaYu as a service (`repro.service`,\n"
        "`dayu-serve` / `dayu-client`).  A single-event-loop asyncio\n"
        "daemon ingests streamed trace uploads from concurrent clients\n"
        "into per-run incremental graph state and serves FTG/SDG/lint\n"
        "findings plus Prometheus `/metrics`, multi-tenant with quotas\n"
        "and per-tenant baselines.  Every row above is byte-checked\n"
        "against the offline `dayu-compact` + `dayu-analyze` pipeline,\n"
        "including after a kill-and-restart recovery (the CI\n"
        "`service-smoke` gate; `BENCH_service.json` holds the\n"
        "throughput/latency numbers: "
        f"peak {service['peak_uploads_per_s']:.0f} uploads/s, worst "
        f"query p99 {service['worst_query_p99_ms']:.1f} ms).")
    sections.append(
        sched.to_markdown() + "\n\n"
        "Beyond the paper: the event-driven per-task scheduler\n"
        "(`repro.workflow.dscheduler`, `dayu-run --event`).  Tasks\n"
        "dispatch individually from a ready heap ordered by HEFT upward\n"
        "rank (weights from the static cost prophet), placed by\n"
        "contract-predicted SDG edge volumes with work stealing and\n"
        "speculative re-execution; retry/backoff/re-placement live in a\n"
        "per-task state machine.  The bundled workloads keep data on the\n"
        "shared mount, so the policies mostly tie there; the\n"
        "locality-fixture row shows the cache-replication effect the\n"
        "`BENCH_scheduler.json` gate enforces (locality strictly beats\n"
        "round-robin in misses and makespan; the CI `scheduler-smoke`\n"
        "gate).")
    sections.append(
        "### Known deviations\n\n"
        "- Figure 13a's reduction is nearly constant (~2.7x) across dataset\n"
        "  sizes and process counts, inside the paper's 1.7-3.7x band but\n"
        "  without its gradient: our device model is latency-dominated at\n"
        "  1-8 KB, and contention scales both variants equally.\n"
        "- Figure 13c's 10-chunk variant only matches (not beats) the\n"
        "  contiguous baseline; the 5-chunk variant carries the paper's\n"
        "  'optimal chunk size' result.\n"
        "- Figure 9c's corner-case VOL overhead saturates near 0.6%\n"
        "  (paper: ~1.0%); the VFD component and the increasing shape match.\n"
    )

    body = header + "\n\n".join(sections) + "\n"
    with open(out_path, "w") as fh:
        fh.write(body)
    print(f"wrote {out_path} in {time.time() - t_start:.0f}s")


if __name__ == "__main__":
    main()
