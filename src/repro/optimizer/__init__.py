"""Automated optimization — the paper's stated future work, implemented.

"We plan to expand the I/O optimization guidelines, further leveraging
DaYu's insights to automate optimization strategies" (paper §IX).  This
package closes the loop the evaluation performed by hand:

- :func:`~repro.optimizer.planner.build_plan` turns advisory lint
  findings into an executable :class:`~repro.optimizer.planner.OptimizationPlan` —
  placement pins, stage-in/out moves, and format rewrites;
- :meth:`OptimizationPlan.apply_format_changes` performs the layout
  rewrites/consolidations through the middleware;
- :attr:`OptimizationPlan.pins` holds the co-scheduling decisions as
  task → node pins for the runner's ``pins``;
- :class:`~repro.optimizer.transparent.TransparentCache` provides the
  "transparent and immediate runtime optimization" integration: a path
  resolver that redirects reads to node-local replicas automatically;
- :func:`~repro.optimizer.placement.solve_placement` derives a
  fig11-style locality placement *pre-run* from the static cost model,
  emitting an executable ``dayu-plan/v1`` artifact for
  ``dayu-run --plan``.
"""

from repro.optimizer.placement import solve_placement
from repro.optimizer.planner import OptimizationPlan, PlanStep, build_plan
from repro.optimizer.transparent import TransparentCache

__all__ = ["OptimizationPlan", "PlanStep", "build_plan", "TransparentCache",
           "solve_placement"]
