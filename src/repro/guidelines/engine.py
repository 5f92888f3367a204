"""The recommendation engine: advisory lint findings → concrete actions.

Each DY7xx advisory finding (plus DY105 vlen-contiguous) names an
optimization the paper's guidelines prescribe; this module turns each
into an executable :class:`Recommendation` — the action vocabulary the
paper's evaluation applies (cache, prefetch, rolling stage-in,
stage-out, consolidate, convert layout, co-schedule, parallelize,
skip-unused).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.lint.advisory import in_paper_order
from repro.lint.findings import Finding

__all__ = ["Action", "Recommendation", "recommend"]


class Action(str, enum.Enum):
    """Concrete optimization moves DaYu can suggest."""

    CACHE_IN_FAST_TIER = "cache_in_fast_tier"
    PREFETCH_BEFORE_USE = "prefetch_before_use"
    ROLLING_STAGE_IN = "rolling_stage_in"
    STAGE_OUT = "stage_out"
    CONSOLIDATE_DATASETS = "consolidate_datasets"
    CONVERT_TO_CONTIGUOUS = "convert_to_contiguous"
    CONVERT_TO_CHUNKED = "convert_to_chunked"
    SKIP_UNUSED_DATA = "skip_unused_data"
    CO_SCHEDULE = "co_schedule"
    PARALLELIZE = "parallelize"


#: Which action each advisory rule code maps to.
_ACTION_FOR: Dict[str, Action] = {
    "DY701": Action.CACHE_IN_FAST_TIER,
    "DY702": Action.CACHE_IN_FAST_TIER,
    "DY703": Action.CACHE_IN_FAST_TIER,
    "DY704": Action.PREFETCH_BEFORE_USE,
    "DY705": Action.STAGE_OUT,
    "DY706": Action.CONSOLIDATE_DATASETS,
    "DY707": Action.SKIP_UNUSED_DATA,
    "DY708": Action.CONVERT_TO_CONTIGUOUS,
    "DY709": Action.ROLLING_STAGE_IN,
    "DY710": Action.PARALLELIZE,
    "DY105": Action.CONVERT_TO_CHUNKED,
}


@dataclass
class Recommendation:
    """One actionable optimization derived from a lint finding."""

    action: Action
    target: str
    tasks: List[str] = field(default_factory=list)
    rationale: str = ""
    #: Rule code of the first finding behind it.
    code: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "action": self.action.value,
            "target": self.target,
            "tasks": self.tasks,
            "rationale": self.rationale,
            "code": self.code,
        }

    def __str__(self) -> str:
        return f"{self.action.value}({self.target}) — {self.rationale}"


def recommend(findings: Iterable[Finding],
              task_order: Sequence[str] = ()) -> List[Recommendation]:
    """Translate advisory findings into deduplicated, ordered
    recommendations; findings of non-advisory rules are ignored.

    Recommendations are deduplicated by (action, target) — many findings
    can point at the same fix — and ordered by how many findings support
    each, strongest first.  Findings are read in
    :func:`~repro.lint.advisory.in_paper_order`, so a merged
    recommendation lists its tasks, and takes its rationale, in
    ``task_order`` (the execution order; task names break ties when it
    is not given) whatever order ``findings`` came in.
    """
    merged: Dict[tuple, Recommendation] = {}
    support: Dict[tuple, int] = {}
    for finding in in_paper_order(findings, task_order):
        action = _ACTION_FOR[finding.code]
        key = (action, finding.subject)
        if key not in merged:
            merged[key] = Recommendation(
                action=action,
                target=finding.subject,
                tasks=list(finding.tasks),
                rationale=finding.message,
                code=finding.code,
            )
            support[key] = 0
        else:
            for t in finding.tasks:
                if t not in merged[key].tasks:
                    merged[key].tasks.append(t)
        support[key] += 1
    return sorted(merged.values(), key=lambda r: -support[(r.action, r.target)])
