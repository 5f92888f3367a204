"""Automated optimization — the paper's stated future work, implemented.

"We plan to expand the I/O optimization guidelines, further leveraging
DaYu's insights to automate optimization strategies" (paper §IX).  This
package closes the loop the evaluation performed by hand.  Both ways of
deriving a placement emit one executable artifact, the ``dayu-plan/v1``
:class:`~repro.workflow.plan.PlacementPlan` that ``dayu-run --plan``
runs through :func:`~repro.workflow.plan.stage_in_plan`,
:func:`~repro.workflow.plan.plan_path_resolver` and the runner's
``pins``:

- :func:`~repro.optimizer.planner.build_plan` compiles advisory lint
  findings (post-run) into task pins and file localizations;
- :func:`~repro.optimizer.placement.solve_placement` derives a
  fig11-style locality placement *pre-run* from the static cost model.

Findings that call for file transformations rather than placements run
directly: :func:`~repro.optimizer.planner.apply_format_changes` performs
the layout rewrites/consolidations through the middleware and
:func:`~repro.optimizer.planner.stage_out_all` demotes disposable data.
:class:`~repro.optimizer.transparent.TransparentCache` provides the
"transparent and immediate runtime optimization" integration: a path
resolver that redirects reads to node-local replicas automatically.
"""

from repro.optimizer.placement import solve_placement
from repro.optimizer.planner import (
    apply_format_changes,
    build_plan,
    stage_out_all,
)
from repro.optimizer.transparent import TransparentCache

__all__ = ["build_plan", "apply_format_changes", "stage_out_all",
           "TransparentCache", "solve_placement"]
