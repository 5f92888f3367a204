"""Witness replay: execute a workflow's tasks in an explicit order.

A DY5xx finding ships a *witness* — a legal topological order of the
dependency-only DAG in which the racing pair runs the other way around
(:func:`repro.lint.hb.reorder_witness`).  This module makes the witness
executable: :func:`replay_in_order` runs the workflow's task bodies
serially in exactly the witness sequence on a fresh simulated cluster,
so a test (or a skeptical user) can compare the surviving file contents
against the original schedule and watch the outcome flip.  That closes
the loop the race detector promises: a conviction is not "these could
reorder" but "here is the reordering, and here is what it does".

Duplicate names in the order model a *retry replay* (the DY505
witness): the repeated entry re-executes the same task body a second
time, profiled under a ``<name>@replay<i>`` alias so the mapper keeps
both attempts' profiles apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from repro.workflow.model import Stage, Task, Workflow
from repro.workflow.dscheduler import DataflowRunner

__all__ = ["ReplayOutcome", "replay_in_order", "read_dataset"]


@dataclass
class ReplayOutcome:
    """A finished replay: the cluster (with its files) and the profiles."""

    cluster: object
    mapper: object
    #: Replay-order task labels, aliases included.
    executed: Sequence[str] = ()

    def read(self, path: str, dataset: str):
        """Read back a dataset's final content from the replayed files."""
        return read_dataset(self.cluster, path, dataset)


def read_dataset(cluster, path: str, dataset: str):
    """The post-run content of one dataset, via an uninstrumented open."""
    from repro.hdf5 import H5File

    f = H5File(cluster.fs, path, "r")
    try:
        return f[dataset].read()
    finally:
        f.close()


def replay_in_order(workflow: Workflow, order: Sequence[str],
                    n_nodes: int = 2) -> ReplayOutcome:
    """Run ``workflow``'s task bodies serially in ``order``.

    Stage boundaries are deliberately ignored — the order IS the
    schedule, which is exactly what a witness asserts is legal under
    dependency-only happens-before.  Every name must belong to the
    workflow; a name may repeat (retry replay).  The order runs as one
    serial barrier stage, every entry pinned to the first
    alive node.  Returns the outcome holding the cluster for content
    read-back.
    """
    from repro.cluster.configs import gpu_cluster
    from repro.mapper.config import DaYuConfig
    from repro.mapper.mapper import DataSemanticMapper
    from repro.simclock import SimClock

    tasks = {t.name: t for t in workflow.all_tasks()}
    unknown = sorted(set(order) - set(tasks))
    if unknown:
        raise ValueError(
            f"replay order names tasks not in {workflow.name!r}: {unknown}")
    counts: Dict[str, int] = {}
    aliases: List[Task] = []
    for name in order:
        counts[name] = counts.get(name, 0) + 1
        label = (name if counts[name] == 1
                 else f"{name}@replay{counts[name] - 1}")
        # The order is the whole schedule: an alias carries only the body.
        aliases.append(replace(tasks[name], name=label, contract=None,
                               depends_on=()))
    clock = SimClock()
    cluster = gpu_cluster(clock, n_nodes=n_nodes)
    mapper = DataSemanticMapper(clock, DaYuConfig())
    node = cluster.alive_node_names()[0]
    runner = DataflowRunner(cluster, mapper, placement="round_robin",
                            pins={t.name: node for t in aliases})
    runner.run(Workflow(workflow.name,
                        [Stage("replay", aliases, parallel=False)]))
    return ReplayOutcome(cluster=cluster, mapper=mapper,
                         executed=[t.name for t in aliases])
