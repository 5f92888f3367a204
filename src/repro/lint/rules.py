"""The lint rule registry: stable codes, severities, enablement.

Rule families, one code block each (codes are stable API — never
reused for a different meaning once shipped):

- **DY1xx — semantic anti-patterns**: dataflow shapes that are legal but
  almost always wrong or wasteful (dead writes, phantom reads, small-I/O
  amplification, layout disagreements).
- **DY2xx — dataflow hazards**: WAW/RAW/WAR conflicts between tasks with
  no happens-before path in the trace-derived dependency DAG — the races
  a scheduler reorder or a real concurrent run would expose.
- **DY3xx — trace integrity**: the trace sanitizer; violations mean the
  profile data itself is inconsistent (VOL and VFD byte accounting
  disagree, extents are malformed, timestamps escape their task window)
  and downstream analysis cannot be trusted.
- **DY40x — pre-run contract rules**: evaluated over the workflow
  *definition* alone (declared + AST-inferred access contracts), before
  any trace exists.
- **DY45x — contract drift**: the differential join of contracts
  against observed traces (undeclared accesses, declared-but-never-
  performed I/O).
- **DY5xx — happens-before races** (opt-in, ``--races`` / ``--select
  DY5*``): vector-clock analysis under the *dependency-only* ordering —
  conflicting accesses ordered only by stage barriers or observed timing
  are convicted with a concrete reorder witness.
- **DY60x — predicted performance** (opt-in, ``--cost``): the static
  cost prophet — contracts joined with the device cost models and a
  cluster topology convict performance hazards (small-I/O on the
  predicted critical path, stage stragglers, cross-node traffic a
  locality plan would eliminate) before anything runs.
- **DY65x — prediction drift**: predicted cost/critical path vs. one
  traced run — mispredictions are themselves findings (the performance
  mirror of DY45x contract drift).
- **DY7xx — advisory** (opt-in, :data:`repro.lint.ADVISORY`): the
  paper's case-study observations (data reuse, time-dependent inputs,
  disposable data, scattering, partial access, metadata overhead,
  sequential scans, task independence) that the guidelines engine and
  the optimization planner turn into actions.

Rules register themselves via :func:`rule`; importing
:mod:`repro.lint.semantic`, :mod:`repro.lint.hazards`,
:mod:`repro.lint.integrity`, :mod:`repro.lint.prerun`,
:mod:`repro.lint.drift`, :mod:`repro.lint.race`,
:mod:`repro.lint.perf` and :mod:`repro.lint.advisory` populates the
registry (package ``__init__`` does this).  Each rule is
``profile``-scoped (evaluated per task profile, shardable across worker
processes), ``workflow``-scoped (evaluated once over the cross-task
:class:`~repro.lint.context.WorkflowIndex`), ``contract``-scoped
(evaluated once over the pre-run
:class:`~repro.lint.predict.StaticContext`), ``drift``-scoped (evaluated
per task against its contract + traced summary, shardable),
``race``-scoped (evaluated once over the dual happens-before
:class:`~repro.lint.race.RaceContext`), ``perf``-scoped (evaluated once
over the pre-run :class:`~repro.lint.cost.CostContext`), or
``costdrift``-scoped (evaluated once over the prediction-vs-trace
:class:`~repro.lint.cost.CostDriftContext`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import Severity

__all__ = ["LintRule", "LintConfig", "rule", "all_rules", "get_rule"]


@dataclass(frozen=True)
class LintRule:
    """One registered rule.

    Attributes:
        code: Stable ``DYnnn`` identifier.
        name: Short kebab-case name (shown next to the code).
        severity: Default severity of its findings.
        scope: ``"profile"`` (per-task, shardable), ``"workflow"``
            (cross-task, needs the full index), ``"contract"`` (pre-run,
            over the static context), or ``"drift"`` (per-task contract
            vs. trace join, shardable).
        description: One-line summary for ``--list-rules`` and SARIF.
        default_enabled: Whether the rule runs without explicit
            ``--enable``.  Opt-in rules (DY105, the DY5xx races, the
            DY6xx cost prophet, the DY7xx advisory family) are either
            expensive or report optimization opportunities rather than
            defects, and fire on intentionally-inefficient bundled
            fixtures, so they are registered but off by default.
        check: The rule body.  Profile scope:
            ``check(profile, config) -> findings``; workflow scope:
            ``check(index, ordering, config) -> findings``.
    """

    code: str
    name: str
    severity: Severity
    scope: str
    description: str
    default_enabled: bool = True
    check: Optional[Callable] = None


_REGISTRY: Dict[str, LintRule] = {}

#: ``(config, scope) -> enabled rules`` memo for
#: :meth:`LintConfig.enabled_rules`; registering a rule clears it.
_ENABLED: Dict[Tuple["LintConfig", Optional[str]], Tuple[LintRule, ...]] = {}


def rule(code: str, name: str, severity: Severity, scope: str,
         description: str, default_enabled: bool = True):
    """Class-less registration decorator for rule check functions."""
    if scope not in ("profile", "workflow", "contract", "drift", "race",
                     "perf", "costdrift"):
        raise ValueError(f"bad rule scope {scope!r}")

    def register(fn: Callable) -> Callable:
        if code in _REGISTRY:
            raise ValueError(f"duplicate lint rule code {code}")
        _REGISTRY[code] = LintRule(
            code=code, name=name, severity=severity, scope=scope,
            description=description, default_enabled=default_enabled,
            check=fn,
        )
        _ENABLED.clear()
        return fn

    return register


def all_rules() -> List[LintRule]:
    """Every registered rule, sorted by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> LintRule:
    return _REGISTRY[code]


@dataclass(frozen=True)
class LintConfig:
    """Per-run rule selection and thresholds (picklable: plain fields).

    ``enable``/``disable`` entries are codes, code prefixes, or shell-style
    globs — ``"DY2"`` and ``"DY2*"`` both select the whole hazard family,
    ``"DY105"`` one rule, ``"DY?05"`` every family's 05 rule.  Precedence
    when selectors conflict: ``disable`` wins over ``enable`` (a rule
    matched by both is off), and any explicit match wins over the rule's
    ``default_enabled``.  Prefix and glob matches carry equal weight —
    only which list matched decides.
    """

    enable: Tuple[str, ...] = ()
    disable: Tuple[str, ...] = ()
    #: Page size the traces' region histograms were recorded at; only used
    #: for extent bounds when per-operation records are unavailable.
    page_size: int = 4096
    #: DY103 thresholds: an object is a small-I/O amplifier when one task
    #: issues at least ``small_io_min_ops`` raw operations against it at
    #: an average size of at most ``small_io_max_avg_bytes``.  DY408
    #: (loop-carried small writes in a *contract*) reuses the same
    #: thresholds against predicted operation counts and sizes.
    small_io_min_ops: int = 128
    small_io_max_avg_bytes: int = 512
    #: DY407 threshold: a task re-opening the same file at least this many
    #: times is flagged as an open-in-loop anti-pattern.
    open_loop_min_opens: int = 8
    #: DY5xx reorder witnesses longer than this many tasks are windowed
    #: down to the racing region (full order elided, ``window`` recorded).
    witness_max_tasks: int = 200
    #: DY504 schedule-sensitivity reports keep at most this many
    #: must-preserve edges in finding evidence (the count is always exact).
    sensitivity_max_edges: int = 64
    #: DY6xx noise floor: predicted costs below this many seconds are
    #: never worth a finding, whatever their shape.
    cost_min_seconds: float = 0.05
    #: DY602: a parallel stage is imbalanced when its slowest task is
    #: predicted at least this factor above the stage mean.
    imbalance_factor: float = 3.0
    #: DY603/DY604: a locality rewrite must be predicted to save at least
    #: this fraction of the makespan (and clear ``cost_min_seconds``).
    locality_min_fraction: float = 0.2
    #: DY605: one producer→consumer edge dominates when its predicted
    #: transfer costs at least this fraction of the makespan.
    edge_dominance_fraction: float = 0.25
    #: DY651/DY652 fire when actual and predicted seconds disagree by at
    #: least this factor (either direction) and the larger side clears
    #: ``cost_drift_min_seconds``.
    cost_drift_factor: float = 3.0
    cost_drift_min_seconds: float = 0.05
    #: DY653 fires when traced and predicted byte volumes disagree by
    #: ``cost_drift_factor`` and at least this many bytes.
    cost_drift_min_bytes: int = 1 << 16

    def __post_init__(self) -> None:
        for sel in (*self.enable, *self.disable):
            if not sel.startswith("DY"):
                raise ValueError(f"bad rule selector {sel!r}: "
                                 "use a DYnnn code, DYn prefix, or DYn* glob")
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.small_io_min_ops < 1 or self.small_io_max_avg_bytes < 1:
            raise ValueError("small-I/O thresholds must be positive")
        if self.open_loop_min_opens < 2:
            raise ValueError("open_loop_min_opens must be >= 2")
        if self.cost_min_seconds < 0 or self.cost_drift_min_seconds < 0:
            raise ValueError("cost floors must be non-negative")
        if self.imbalance_factor < 1 or self.cost_drift_factor < 1:
            raise ValueError("cost factors must be >= 1")
        if not (0 < self.locality_min_fraction <= 1
                and 0 < self.edge_dominance_fraction <= 1):
            raise ValueError("cost fractions must be in (0, 1]")
        if self.cost_drift_min_bytes < 0:
            raise ValueError("cost_drift_min_bytes must be non-negative")

    @staticmethod
    def _matches(code: str, selector: str) -> bool:
        if any(ch in selector for ch in "*?["):
            return fnmatchcase(code, selector)
        return code.startswith(selector)

    def is_enabled(self, r: LintRule) -> bool:
        if any(self._matches(r.code, sel) for sel in self.disable):
            return False
        if any(self._matches(r.code, sel) for sel in self.enable):
            return True
        return r.default_enabled

    def enabled_rules(self, scope: Optional[str] = None
                      ) -> Tuple[LintRule, ...]:
        """Enabled rules of ``scope`` (all scopes when None), by code.

        Memoized per ``(config, scope)`` until the next rule registers:
        a lint pass asks once per profile.
        """
        key = (self, scope)
        rules = _ENABLED.get(key)
        if rules is None:
            rules = _ENABLED[key] = tuple(
                r for r in all_rules()
                if self.is_enabled(r) and (scope is None or r.scope == scope))
        return rules
