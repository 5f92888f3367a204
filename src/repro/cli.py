"""The DaYu command-line toolset.

Three entry points mirror the open-source tool's runtime/offline split,
plus the optimization loop the paper performed by hand:

- ``dayu-run`` — execute one of the case-study workloads under DaYu
  profiling and save the per-task JSON profiles to a directory.
  ``--plan`` executes a solved ``dayu-plan/v1`` placement instead of
  the default round-robin one.
- ``dayu-analyze`` — the offline Workflow Analyzer: load saved profiles,
  build the FTG/SDG (HTML + DOT), run the advisory lint pass
  (:data:`repro.lint.ADVISORY`), and print the findings with their
  optimization recommendations.
- ``dayu-plan`` — solve a fig11-style locality placement for a bundled
  workload from the static cost model, entirely pre-run, and write the
  executable plan artifact.

Examples::

    dayu-run pyflextrkr --out traces/
    dayu-analyze traces/ --out graphs/ --regions
    dayu-plan pyflextrkr --out plan.json
    dayu-run pyflextrkr --plan plan.json --out traces-planned/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.analyzer import to_dot, to_html
from repro.cli_common import diagnose_traces_dir, positive_int
from repro.ioutil import atomic_write_json, atomic_write_text
from repro.experiments.common import fresh_env
from repro.guidelines import recommend
from repro.lint import (
    ADVISORY,
    ADVISORY_CODES,
    LintReport,
    execution_order,
    get_rule,
)

from repro.workloads.registry import WORKLOADS as _WORKLOADS
from repro.workloads.registry import build_workload as _build_workload

__all__ = ["run_main", "analyze_main", "plan_main"]


def run_main(argv: List[str] | None = None) -> int:
    """Entry point of ``dayu-run``."""
    parser = argparse.ArgumentParser(
        prog="dayu-run",
        description="Run a case-study workload under DaYu profiling and "
                    "save per-task JSON trace profiles.",
    )
    parser.add_argument("workload", choices=_WORKLOADS)
    parser.add_argument("--out", default="traces",
                        help="host directory for the saved profiles")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale multiplier (default 1.0)")
    parser.add_argument("--nodes", type=positive_int, default=2,
                        help="simulated cluster nodes")
    parser.add_argument("--plan", metavar="PLAN.json",
                        help="execute a solved dayu-plan/v1 placement: "
                             "pin tasks to the plan's nodes, localize "
                             "its files, and stage pre-existing inputs "
                             "onto their planned tiers (see dayu-plan)")
    parser.add_argument("--trace-format",
                        choices=("json", "columnar"),
                        default="json",
                        help="saved profile format: JSON interchange or "
                             "the footer-indexed columnar binary form "
                             "(default json)")
    parser.add_argument("--monitor", action="store_true",
                        help="attach the live monitor (streaming lint "
                             "alerts print as they fire; see dayu-monitor "
                             "for the full live toolset)")
    parser.add_argument("--faults", metavar="SPEC.json",
                        help="inject faults from a FaultSpec JSON file "
                             "(seeded — the same spec replays bit-for-bit)")
    parser.add_argument("--retry", type=int, default=0, metavar="N",
                        help="retry failed tasks up to N extra times with "
                             "exponential backoff (default 0 = fail fast)")
    parser.add_argument("--backoff", type=float, default=0.25,
                        help="base retry backoff in simulated seconds "
                             "(default 0.25)")
    parser.add_argument("--result-json", metavar="FILE",
                        help="write the WorkflowResult (stage timings, "
                             "failures, retries) as JSON")
    parser.add_argument("--placement",
                        choices=("locality", "least_loaded", "round_robin",
                                 "co_locate"),
                        default="round_robin",
                        help="task placement policy; plan pins go on top "
                             "(default round_robin)")
    parser.add_argument("--deps", choices=("stage", "dataflow"),
                        default="stage",
                        help="dependency edges: stage barriers or "
                             "contract-derived dataflow, which lets "
                             "independent stages overlap (default stage)")
    args = parser.parse_args(argv)

    plan = None
    if args.plan:
        from repro.workflow.plan import (
            PlacementPlan,
            plan_path_resolver,
            stage_in_plan,
        )

        try:
            plan = PlacementPlan.load(args.plan)
        except (OSError, ValueError, KeyError) as exc:
            print(f"dayu-run: cannot load --plan: {exc}", file=sys.stderr)
            return 2
        if plan.workload and plan.workload != args.workload:
            print(f"dayu-run: plan {args.plan} was solved for "
                  f"{plan.workload!r}, not {args.workload!r}",
                  file=sys.stderr)
            return 2
        if plan.n_nodes > args.nodes:
            print(f"dayu-run: plan {args.plan} needs {plan.n_nodes} "
                  f"node(s); raise --nodes", file=sys.stderr)
            return 2
        if plan.workload and plan.scale != args.scale:
            print(f"dayu-run: note: plan was solved at scale "
                  f"{plan.scale:g}, running at {args.scale:g}",
                  file=sys.stderr)

    spec = None
    if args.faults:
        from repro.faults import FaultSpec

        try:
            spec = FaultSpec.load(args.faults)
        except (OSError, ValueError, KeyError) as exc:
            print(f"dayu-run: cannot load --faults {args.faults}: {exc}",
                  file=sys.stderr)
            return 2

    if args.monitor:
        from repro.monitor.cli import _print_alert

        env = fresh_env(n_nodes=args.nodes, monitor=True,
                        on_alert=_print_alert)
    else:
        env = fresh_env(n_nodes=args.nodes)
    env.runner.placement = args.placement
    env.runner.dependency_mode = args.deps
    if plan is not None:
        env.runner.pins = plan.tasks
        env.runner.path_resolver = plan_path_resolver(plan)
    workflow, prepare = _build_workload(args.workload, args.scale)
    if prepare is not None:
        prepare(env.cluster)
    if plan is not None:
        staged = stage_in_plan(env.cluster, plan)
        print(f"Plan {args.plan}: {len(plan.tasks)} task pin(s), "
              f"{len(plan.files)} localized file(s), "
              f"stage-in {staged:.3f} simulated seconds")

    injector = None
    if spec is not None:
        from repro.faults import FaultInjector

        emit = env.monitor.publish if env.monitor is not None else None
        injector = FaultInjector(spec, env.cluster, emit=emit).arm()
        env.runner.faults = injector
        print(f"Faults armed from {args.faults} (seed {spec.seed}: "
              f"{len(spec.device_faults)} device fault(s), "
              f"{len(spec.node_faults)} node fault(s))")
    if args.retry:
        from repro.workflow.runner import RetryPolicy

        env.runner.retry_policy = RetryPolicy(
            max_attempts=args.retry + 1, backoff_base=args.backoff)

    print(f"Running {args.workload} "
          f"({len(workflow.all_tasks())} tasks on {args.nodes} node(s))...")
    result = env.runner.run(workflow)
    if env.monitor is not None:
        env.monitor.finish()
    print(f"  makespan: {result.wall_time:.3f} simulated seconds")
    if injector is not None:
        injected = ", ".join(
            f"{k}={v}" for k, v in sorted(injector.stats().items()) if v)
        print(f"  injected faults: {injected or 'none'}")
        if result.retries:
            print(f"  task retries: {result.retries}")
        if result.failures:
            lost = ", ".join(sorted(result.failures))
            print(f"  lost tasks (degraded): {lost}")
        injector.disarm()
    if args.result_json:
        atomic_write_json(args.result_json, result.to_json_dict(),
                          sort_keys=True)
        print(f"  wrote workflow result to {args.result_json}")
    written = env.mapper.save_to_host_dir(args.out,
                                          trace_format=args.trace_format)
    print(f"  wrote {len(written)} task profile(s) to {args.out}/")
    return 0


def analyze_main(argv: List[str] | None = None) -> int:
    """Entry point of ``dayu-analyze``."""
    parser = argparse.ArgumentParser(
        prog="dayu-analyze",
        description="Offline Workflow Analyzer: build FTG/SDG graphs and "
                    "diagnose dataflow from saved DaYu trace profiles.",
    )
    parser.add_argument("traces",
                        help="directory of saved task profiles "
                             "(*.json and/or *.dayuc), or one trace file")
    parser.add_argument("--out", default="graphs",
                        help="output directory for HTML/DOT graphs")
    parser.add_argument("--trace-format",
                        choices=("auto", "json", "columnar"),
                        default="auto",
                        help="restrict to one trace format, detected by "
                             "magic bytes (default auto: mixed-format "
                             "directories analyze without flags)")
    parser.add_argument("--graph-json", action="store_true",
                        help="also write canonical ftg.json/sdg.json "
                             "(byte-stable across --jobs and trace "
                             "formats — diffable)")
    parser.add_argument("--regions", action="store_true",
                        help="add file-address-region nodes to the SDG")
    parser.add_argument("--region-bytes", type=int, default=65536)
    parser.add_argument("--page-size", type=int, default=4096,
                        help="page size the traces were recorded at")
    parser.add_argument("--top", type=int, default=10,
                        help="recommendations to print")
    parser.add_argument("--infer-order", action="store_true",
                        help="recover task execution order from the traces' "
                             "producer/consumer relations")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes for trace decoding "
                             "(default 1 = serial)")
    parser.add_argument("--lint", action="store_true",
                        help="also write dayu-lint's default-rule report "
                             "as lint.json next to the graphs")
    args = parser.parse_args(argv)

    from repro.analyzer import ParallelAnalyzer, build_ftg, build_sdg
    from repro.lint import lint_profiles
    from repro.mapper.persist import TRACE_READ_ERRORS

    try:
        profiles = ParallelAnalyzer(max_workers=args.jobs).load(
            args.traces, trace_format=args.trace_format)
    except TRACE_READ_ERRORS as exc:
        print(f"dayu-analyze: {exc}", file=sys.stderr)
        return 2
    if not profiles:
        diagnosis = diagnose_traces_dir(args.traces, args.trace_format)
        print(f"dayu-analyze: {diagnosis}", file=sys.stderr)
        return 2
    print(f"Loaded {len(profiles)} task profile(s) from {args.traces}/")

    task_order = None
    if args.infer_order:
        from repro.analyzer import infer_task_order

        task_order = infer_task_order(profiles)
        print("Inferred task order: " + " → ".join(task_order))
        profiles.sort(key=lambda p: task_order.index(p.task))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ftg = build_ftg(profiles)
    sdg = build_sdg(profiles, with_regions=args.regions,
                    region_bytes=args.region_bytes, page_size=args.page_size)
    for name, graph in (("ftg", ftg), ("sdg", sdg)):
        atomic_write_text(out / f"{name}.html",
                          to_html(graph, title=f"DaYu {name.upper()}"))
        atomic_write_text(out / f"{name}.dot", to_dot(graph, title=name))
    if args.graph_json:
        from repro.analyzer.serialize import graph_to_json

        for name, graph in (("ftg", ftg), ("sdg", sdg)):
            atomic_write_text(out / f"{name}.json", graph_to_json(graph) + "\n")
        print(f"Wrote {out}/ftg.json, {out}/sdg.json")
    print(f"FTG: {ftg.number_of_nodes()} nodes / {ftg.number_of_edges()} edges; "
          f"SDG: {sdg.number_of_nodes()} nodes / {sdg.number_of_edges()} edges")
    print(f"Wrote {out}/ftg.html, {out}/sdg.html (+ .dot)")

    # One lint pass: the advisory selection runs every default rule too,
    # so --lint's report is its default-enabled share.
    report = lint_profiles(profiles, ADVISORY, task_order=task_order)
    advisory = LintReport(
        findings=[f for f in report.findings if f.code in ADVISORY_CODES],
        tasks=report.tasks)
    print()
    for finding in advisory.findings:
        print(f"  {finding}")
    print(advisory.summary())
    recs = recommend(advisory.findings,
                     [p.task for p in execution_order(profiles, task_order)])
    if recs:
        print(f"\nTop recommendations:")
        for rec in recs[: args.top]:
            print(f"  - {rec}")
    atomic_write_text(out / "insights.json", advisory.to_json())
    print(f"\nWrote {out}/insights.json")

    if args.lint:
        lint_report = LintReport(
            findings=[f for f in report.findings
                      if get_rule(f.code).default_enabled],
            tasks=report.tasks)
        print()
        for finding in lint_report.findings:
            print(f"  {finding}")
        print(lint_report.summary())
        atomic_write_text(out / "lint.json", lint_report.to_json())
        print(f"Wrote {out}/lint.json")
    return 0


def plan_main(argv: List[str] | None = None) -> int:
    """Entry point of ``dayu-plan``."""
    parser = argparse.ArgumentParser(
        prog="dayu-plan",
        description="Solve a fig11-style locality placement for a "
                    "bundled workload from the static cost model — "
                    "entirely pre-run — and write the executable "
                    "dayu-plan/v1 artifact for dayu-run --plan.",
    )
    parser.add_argument("workload", choices=_WORKLOADS)
    parser.add_argument("--out", default="plan.json",
                        help="where to write the plan JSON "
                             "(default plan.json)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale multiplier (default 1.0; "
                             "match the dayu-run scale)")
    parser.add_argument("--nodes", type=positive_int, default=2,
                        help="simulated cluster nodes to place onto "
                             "(default 2)")
    parser.add_argument("--cost-out", metavar="PATH",
                        help="also write the baseline static cost report "
                             "(dayu-cost/v1 JSON) to PATH")
    args = parser.parse_args(argv)

    from repro.cluster.configs import cluster_spec
    from repro.optimizer import solve_placement

    workflow, _prepare = _build_workload(args.workload, args.scale)
    spec = cluster_spec("gpu", args.nodes)
    plan = solve_placement(workflow, spec, workload=args.workload,
                           scale=args.scale)
    plan.save(args.out)
    pred = plan.predicted
    print(f"Solved placement for {args.workload} (scale {args.scale:g}) "
          f"on {args.nodes} node(s):")
    print(f"  predicted baseline makespan: "
          f"{pred['baseline_makespan_seconds']:.3f}s")
    print(f"  predicted planned  makespan: "
          f"{pred['planned_makespan_seconds']:.3f}s "
          f"(+ {pred['stage_in_seconds']:.3f}s stage-in)")
    print(f"  {len(plan.tasks)} task pin(s), "
          f"{len(plan.files)} file localization(s)")
    print(f"  wrote {args.out}")
    if args.cost_out:
        from repro.lint.cost import build_cost_context

        build_cost_context(workflow, spec).report.save(args.cost_out)
        print(f"  wrote cost report to {args.cost_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(run_main())
