"""``repro.lint`` — dayu-lint: static dataflow hazard detection and
trace sanitizing over saved DaYu task profiles.

Rule families over the same joined VOL/VFD trace data the FTG/SDG are
built from, and over the workflow definition itself:

- **DY1xx** semantic anti-patterns (dead writes, phantom reads,
  small-I/O amplification, layout disagreements);
- **DY2xx** dataflow hazards (RAW/WAR/WAW conflicts between tasks with
  no happens-before path in the trace-derived dependency DAG);
- **DY3xx** trace-integrity violations (the sanitizer: cross-layer byte
  accounting, malformed extents, escaped timestamps);
- **DY40x** pre-run contract rules — fire from the workflow definition
  alone, over declared + AST-inferred access contracts (no traces);
- **DY45x** contract drift — the differential join of contracts against
  observed traces;
- **DY5xx** happens-before races (opt-in: ``--races`` / ``--select
  DY5*``) — vector-clock analysis under dependency-only vs as-executed
  orderings, schedule-sensitivity reports, and concrete reorder
  witnesses for every conviction;
- **DY60x/DY65x** predicted performance and prediction drift (opt-in:
  ``--cost``) — the static cost prophet;
- **DY7xx** advisory findings (opt-in: :data:`ADVISORY`, which also
  selects DY105) — the paper's case-study observations, which
  :func:`repro.guidelines.recommend` turns into optimization actions
  and :func:`repro.optimizer.build_plan` into a ``dayu-plan/v1`` plan.
  Detector thresholds are module constants beside each family's rules,
  not :class:`LintConfig` fields.

Typical use::

    from repro.lint import LintConfig, lint_profiles
    report = lint_profiles(profiles, LintConfig(disable=("DY103",)))
    if report.errors:
        print(report.to_json())

the advisory pass behind ``dayu-analyze``::

    from repro.lint import ADVISORY, lint_profiles
    from repro.guidelines import recommend
    recs = recommend(lint_profiles(profiles, ADVISORY).findings)

pre-run, with no traces on disk::

    from repro.lint import lint_workflow
    report = lint_workflow(workflow)   # DY40x over contracts

or from the shell: ``dayu-lint traces/ --format sarif --out lint.sarif``,
``dayu-lint --static corner-hazards``, ``dayu-lint traces/ --diff ddmd``.
"""

from repro.lint.findings import Finding, Severity
from repro.lint.rules import LintConfig, LintRule, all_rules, get_rule
from repro.lint.context import (
    ObjectAccess,
    OrderingInfo,
    ProfileSummary,
    WorkflowIndex,
    build_index,
    compute_ordering,
    execution_order,
    summarize_profile,
)

from repro.lint.advisory import ADVISORY, ADVISORY_CODES

# Importing the engine pulls in the rule modules, populating the registry.
from repro.lint.engine import (
    LintReport,
    baseline_text,
    diff_profiles,
    lint_profiles,
    lint_workflow,
    load_baseline,
    parse_baseline,
    run_drift_rules,
    run_profile_rules,
    run_rules,
    run_workflow_rules,
    save_baseline,
)
from repro.lint.hb import HbOrder, IntervalSet, reorder_witness
from repro.lint.race import (
    RaceContext,
    build_static_race_context,
    build_trace_race_context,
    replay_witness,
    sensitivity_report_from_findings,
)
from repro.lint.predict import (
    StaticContext,
    build_predicted_sdg,
    build_static_context,
    synthetic_profiles,
)
from repro.lint.sarif import to_sarif, to_sarif_dict
from repro.lint.static import (
    WorkflowContracts,
    extract_workflow_contracts,
    infer_contract,
)

__all__ = [
    "ADVISORY",
    "ADVISORY_CODES",
    "Finding",
    "Severity",
    "LintRule",
    "LintConfig",
    "LintReport",
    "all_rules",
    "get_rule",
    "ObjectAccess",
    "ProfileSummary",
    "WorkflowIndex",
    "OrderingInfo",
    "build_index",
    "compute_ordering",
    "execution_order",
    "summarize_profile",
    "lint_profiles",
    "lint_workflow",
    "diff_profiles",
    "run_profile_rules",
    "run_workflow_rules",
    "run_rules",
    "run_drift_rules",
    "HbOrder",
    "IntervalSet",
    "reorder_witness",
    "RaceContext",
    "build_trace_race_context",
    "build_static_race_context",
    "replay_witness",
    "sensitivity_report_from_findings",
    "StaticContext",
    "build_static_context",
    "build_predicted_sdg",
    "synthetic_profiles",
    "WorkflowContracts",
    "extract_workflow_contracts",
    "infer_contract",
    "load_baseline",
    "save_baseline",
    "parse_baseline",
    "baseline_text",
    "to_sarif",
    "to_sarif_dict",
]
