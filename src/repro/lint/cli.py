"""The ``dayu-lint`` command-line entry point.

Examples::

    dayu-lint traces/                         # human-readable findings
    dayu-lint traces/ --format sarif --out lint.sarif
    dayu-lint traces/ --disable DY1 --jobs 8  # hazards+sanitizer only
    dayu-lint traces/ --select 'DY5*' --ignore 'DY2*'   # family globs
    dayu-lint traces/ --write-baseline lint-baseline.json
    dayu-lint traces/ --baseline lint-baseline.json   # fail on NEW errors
    dayu-lint --static corner-hazards         # pre-run DY40x, no traces
    dayu-lint traces/ --diff ddmd             # DY45x contract drift
    dayu-lint traces/ --races --attempts run.json      # DY5xx + DY505
    dayu-lint --static racy-pipeline --races --sensitivity-out sens.json
    dayu-lint --static perf-hazards --cost          # DY6xx, zero traces
    dayu-lint traces/ --diff perf-hazards --cost --cost-out cost.json

``--static WORKLOAD`` lints the named bundled workflow *definition*
through the DY40x contract rules — nothing is executed and no traces
are read.  ``--diff WORKLOAD`` joins an existing trace directory
against the same workflow's access contracts through the DY45x drift
rules.  Both resolve workload names (and ``--scale``) through
:mod:`repro.workloads.registry`, so the contracts describe exactly the
workflow ``dayu-run`` would execute.  ``--races`` opts in the DY5xx
happens-before race family (equivalent to ``--select 'DY5*'``) in every
mode — post-hoc over row or columnar traces, or pre-run with
``--static``.  ``--cost`` opts in the cost prophet (``--select
'DY6*'``): with ``--static`` the DY60x predicted-performance rules run
purely from contracts and the device/cluster cost models; with
``--diff`` the DY65x prediction-drift rules additionally put the
prediction itself on trial against the traced run.  In every trace
mode the traces argument may also name one trace file, such as the
compacted run ``dayu-compact --out`` writes.

Exit status (same table in every mode — plain, ``--static``, ``--diff``,
``--races``):

====  ===========================================================
code  meaning
====  ===========================================================
0     clean: no (non-suppressed) error-severity findings
1     new error-severity findings remain after the baseline
2     usage error, unknown workload, or missing/unreadable traces
====  ===========================================================
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.cli_common import positive_int

__all__ = ["lint_main"]


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="dayu-lint",
        description="Static dataflow hazard detector and trace sanitizer "
                    "over saved DaYu task profiles.",
    )
    parser.add_argument("traces", nargs="?",
                        help="directory of saved task profiles "
                             "(*.json and/or *.dayuc), or one trace file")
    parser.add_argument("--static", metavar="WORKLOAD", dest="static",
                        help="lint a bundled workflow definition pre-run "
                             "(DY40x contract rules; no traces read)")
    parser.add_argument("--diff", metavar="WORKLOAD", dest="diff",
                        help="check the traces for drift against the named "
                             "bundled workflow's access contracts (DY45x)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale multiplier for --static/--diff "
                             "(default 1.0; match the dayu-run scale)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format (default text)")
    parser.add_argument("--out",
                        help="write the report to a file instead of stdout")
    parser.add_argument("--enable", "--select", action="append", default=[],
                        metavar="CODE", dest="enable",
                        help="enable rules by code, prefix, or glob "
                             "(e.g. DY105, DY1, 'DY5*'); repeatable; "
                             "--select is an alias")
    parser.add_argument("--disable", "--ignore", action="append", default=[],
                        metavar="CODE", dest="disable",
                        help="disable rules by code, prefix, or glob; "
                             "repeatable, wins over --enable/--select; "
                             "--ignore is an alias")
    parser.add_argument("--races", action="store_true",
                        help="opt in the DY5xx happens-before race rules "
                             "(same as --select 'DY5*'); works post-hoc "
                             "and with --static")
    parser.add_argument("--cost", action="store_true",
                        help="opt in the DY6xx cost-prophet rules (same as "
                             "--select 'DY6*'): predicted performance "
                             "hazards with --static, prediction drift "
                             "(DY65x) with --diff")
    parser.add_argument("--cost-out", metavar="PATH",
                        help="write the static cost report (dayu-cost/v1 "
                             "JSON) to PATH; requires --cost")
    parser.add_argument("--nodes", type=positive_int, default=2,
                        help="simulated cluster nodes the cost model "
                             "prices against (default 2; match the "
                             "dayu-run node count)")
    parser.add_argument("--attempts", metavar="PATH",
                        help="run-result JSON with per-task attempt counts "
                             "(dayu-run output or a flat {task: n} map); "
                             "feeds the DY505 retry-race rule")
    parser.add_argument("--sensitivity-out", metavar="PATH",
                        help="write the DY504 schedule-sensitivity report "
                             "(dayu-sensitivity/v1 JSON) to PATH")
    parser.add_argument("--baseline",
                        help="baseline file of accepted finding "
                             "fingerprints to suppress")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write the current findings' fingerprints to "
                             "PATH and exit 0")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes for trace decoding "
                             "(default 1 = serial)")
    parser.add_argument("--page-size", type=int, default=4096,
                        help="page size the traces were recorded at")
    parser.add_argument("--with-io-records", action="store_true",
                        help="load per-operation records for byte-exact "
                             "extents and the full DY3xx sanitizer "
                             "(slower on large traces)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list every registered rule and exit")
    args = parser.parse_args(argv)
    if args.static and args.diff:
        parser.error("--static and --diff are mutually exclusive")
    if args.cost and not (args.static or args.diff):
        parser.error("--cost needs a workflow's contracts: "
                     "use --static or --diff")
    if args.cost_out and not args.cost:
        parser.error("--cost-out requires --cost")
    if args.static and args.traces:
        parser.error("--static lints a workflow definition; "
                     "it takes no traces directory")
    if args.diff and not args.traces:
        parser.error("--diff joins saved traces against contracts; "
                     "a traces directory is required")
    if not args.list_rules and not args.static and not args.traces:
        parser.error("a traces directory is required "
                     "(or use --static/--list-rules)")
    return args


def _emit(text: str, out_path) -> None:
    if out_path:
        from repro.ioutil import atomic_write_text

        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _load_attempts(path: str) -> dict:
    """Per-task attempt counts from a run-result JSON.

    Accepts the ``dayu-run`` result document (``stages[].attempts``) or
    a flat ``{task: attempts}`` object.
    """
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "stages" in doc:
        out: dict = {}
        for stage in doc["stages"]:
            out.update(stage.get("attempts", {}))
        return {t: int(n) for t, n in out.items()}
    if isinstance(doc, dict):
        return {t: int(n) for t, n in doc.items()}
    raise ValueError(f"{path}: not a run result or attempts map")


def lint_main(argv: List[str] | None = None) -> int:
    """Entry point of ``dayu-lint``."""
    args = _parse_args(argv)

    from repro.lint import (
        LintConfig,
        all_rules,
        load_baseline,
        save_baseline,
        to_sarif,
    )

    if args.list_rules:
        config = LintConfig(enable=tuple(args.enable),
                            disable=tuple(args.disable))
        for r in all_rules():
            state = "on " if config.is_enabled(r) else "off"
            default = "on " if r.default_enabled else "off"
            print(f"{r.code}  [{state}] {r.severity.value:<7} "
                  f"{r.scope:<9} default={default} "
                  f"{r.name}: {r.description}")
        return 0

    enable = (tuple(args.enable)
              + (("DY5*",) if args.races else ())
              + (("DY6*",) if args.cost else ()))
    try:
        config = LintConfig(
            enable=enable,
            disable=tuple(args.disable),
            page_size=args.page_size,
        )
    except ValueError as exc:
        print(f"dayu-lint: {exc}", file=sys.stderr)
        return 2

    attempts = None
    if args.attempts:
        try:
            attempts = _load_attempts(args.attempts)
        except (OSError, ValueError) as exc:
            print(f"dayu-lint: cannot read --attempts: {exc}",
                  file=sys.stderr)
            return 2

    from repro.mapper.persist import TRACE_READ_ERRORS

    def _workload(name: str):
        from repro.workloads.registry import build_workload

        try:
            return build_workload(name, args.scale)
        except SystemExit as exc:
            # The registry raises SystemExit with a message for unknown
            # names; map it onto the usage exit code.
            print(f"dayu-lint: {exc}", file=sys.stderr)
            return None

    cost_ctx = None

    def _cost_context(workflow):
        from repro.cluster.configs import cluster_spec
        from repro.lint.cost import build_cost_context

        return build_cost_context(workflow, cluster_spec("gpu", args.nodes))

    if args.static:
        from repro.lint import lint_workflow

        built = _workload(args.static)
        if built is None:
            return 2
        report = lint_workflow(built[0], config)
        if args.cost:
            from repro.lint.engine import cost_findings
            from repro.lint.findings import Finding

            cost_ctx = _cost_context(built[0])
            report.findings = sorted(
                report.findings + cost_findings(cost_ctx, config),
                key=Finding.sort_key)
    else:
        from repro.analyzer import ParallelAnalyzer
        from repro.lint import diff_profiles, lint_profiles

        try:
            profiles = ParallelAnalyzer(
                max_workers=args.jobs,
                with_io_records=args.with_io_records).load(args.traces)
        except TRACE_READ_ERRORS as exc:
            print(f"dayu-lint: {exc}", file=sys.stderr)
            return 2
        if not profiles:
            from repro.cli_common import diagnose_traces_dir

            print(f"dayu-lint: {diagnose_traces_dir(args.traces)}",
                  file=sys.stderr)
            return 2
        if args.diff:
            from repro.lint.predict import build_static_context

            built = _workload(args.diff)
            if built is None:
                return 2
            report = diff_profiles(
                profiles, build_static_context(built[0]).effective, config)
            if args.cost:
                from repro.lint.engine import cost_findings
                from repro.lint.findings import Finding

                cost_ctx = _cost_context(built[0])
                report.findings = sorted(
                    report.findings
                    + cost_findings(cost_ctx, config, profiles),
                    key=Finding.sort_key)
        else:
            report = lint_profiles(profiles, config, attempts=attempts)

    if args.cost_out and cost_ctx is not None:
        cost_ctx.report.save(args.cost_out)
        print(f"wrote cost report to {args.cost_out}", file=sys.stderr)

    if args.write_baseline:
        save_baseline(args.write_baseline, report.findings)
        print(f"wrote {len({f.fingerprint for f in report.findings})} "
              f"fingerprint(s) to {args.write_baseline}")
        return 0
    if args.baseline:
        report = report.apply_baseline(load_baseline(args.baseline))

    if args.sensitivity_out:
        from repro.ioutil import atomic_write_json
        from repro.lint import sensitivity_report_from_findings

        label = args.static or args.diff or ""
        sens = sensitivity_report_from_findings(report.findings, label)
        atomic_write_json(args.sensitivity_out, sens)

    if args.format == "json":
        _emit(report.to_json(), args.out)
    elif args.format == "sarif":
        _emit(to_sarif(report), args.out)
    else:
        lines = [str(f) for f in report.findings]
        lines.append(report.summary())
        _emit("\n".join(lines) + "\n", args.out)
        if args.out:
            print(report.summary())

    return 1 if report.errors else 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(lint_main())
