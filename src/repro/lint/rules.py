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
``profile``-scoped (evaluated per task profile), ``workflow``-scoped
(evaluated once over the cross-task
:class:`~repro.lint.context.WorkflowIndex`), ``contract``-scoped
(evaluated once over the pre-run
:class:`~repro.lint.predict.StaticContext`), ``drift``-scoped (evaluated
per task against its contract + traced summary), ``race``-scoped (evaluated once over the dual happens-before
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
        scope: ``"profile"`` (per-task), ``"workflow"`` (cross-task,
            needs the full index), ``"contract"`` (pre-run, over the
            static context), or ``"drift"`` (per-task contract vs. trace
            join).
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
    """Per-run rule selection (picklable: plain fields).

    Detector thresholds are not config: they are module constants beside
    the rules that read them (e.g. :data:`repro.lint.perf.COST_MIN_SECONDS`).

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

    def __post_init__(self) -> None:
        for sel in (*self.enable, *self.disable):
            if not sel.startswith("DY"):
                raise ValueError(f"bad rule selector {sel!r}: "
                                 "use a DYnnn code, DYn prefix, or DYn* glob")
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")

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
