"""DaYu's optimization guidelines (paper Section III-A).

The paper pairs its dataflow observations with four guideline families —
customized caching, partial file access, customized prefetching, and data
format optimization — plus the scheduling moves its evaluation applies
(co-scheduling, stage-out, parallelization).  This package encodes them:

- :func:`~repro.guidelines.layout.advise_layout` — the Section III-A.4
  data-layout decision rules.
- :func:`~repro.guidelines.engine.recommend` — map advisory lint
  findings (DY7xx, DY105) to concrete
  :class:`~repro.guidelines.engine.Recommendation` actions.
"""

from repro.guidelines.engine import Action, Recommendation, recommend
from repro.guidelines.layout import AccessPattern, advise_layout

__all__ = [
    "Action",
    "Recommendation",
    "recommend",
    "AccessPattern",
    "advise_layout",
]
