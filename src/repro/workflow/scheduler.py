"""Stage placement: round-robin over the given nodes, with pins on top.

The baseline spreads a stage's tasks across nodes in order; the paper's
co-scheduling of PyFLEXTRKR stages 3-5 onto the node that produced their
data is a pin per task, and a ``dayu-plan`` is pins solved from the cost
model.  :func:`repro.lint.cost.build_cost_report` prices
:func:`stage_placement`; the runner's ``round_robin`` policy
(:mod:`repro.workflow.dscheduler`) places by the same rule over the
*alive* nodes, so a pin to a dead node falls back to its round-robin
slot on a survivor.  With no survivors the runner raises
:class:`NoAliveNodesError` and aborts cleanly, partial results kept.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.workflow.model import Stage

__all__ = ["NoAliveNodesError", "stage_placement"]


class NoAliveNodesError(RuntimeError):
    """Every node of the cluster is dead: nothing can be placed.

    Raised by the scheduler instead of crashing with
    ``ZeroDivisionError``/``IndexError``; the runner turns it into a
    clean abort with partial results preserved.
    """

    def __init__(self, dead_nodes: Sequence[str], what: str = "tasks") -> None:
        self.dead_nodes = sorted(dead_nodes)
        super().__init__(
            f"cannot place {what}: all {len(self.dead_nodes)} cluster "
            f"node(s) are dead ({', '.join(self.dead_nodes)})")


def stage_placement(stage: Stage, nodes: Sequence[str],
                    pins: Mapping[str, str]) -> Dict[str, str]:
    """Task name → node for every task of ``stage``.

    Task *i* lands on ``nodes[i % len(nodes)]`` unless ``pins`` names a
    node for it that is in ``nodes``.  ``nodes`` must not be empty.
    """
    placement = {}
    for i, task in enumerate(stage.tasks):
        pin = pins.get(task.name)
        placement[task.name] = pin if pin in nodes else nodes[i % len(nodes)]
    return placement
