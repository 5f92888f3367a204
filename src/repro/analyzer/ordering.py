"""Task-order inference from dataflow.

The paper's FTG construction "requires manual input for task ordering;
future DaYu versions will automate this process by integrating with
workflow management tools".  This module provides that automation from
the traces themselves: producer→consumer constraints are recovered from
file-level read-after-write relations, and a stable topological sort
reconstructs an execution order — so profiles collected without ordering
metadata (e.g. from concurrently-logging tasks) can still be assembled
into a correct FTG.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence

import networkx as nx

from repro.mapper.mapper import TaskProfile

__all__ = [
    "dependency_dag",
    "dag_from_first_access",
    "note_first",
    "find_dependency_cycle",
    "infer_task_order",
    "CyclicDependencyError",
]


class CyclicDependencyError(ValueError):
    """The traces imply a dependency cycle (e.g. two tasks exchanging data
    through the same files in both directions).

    Attributes:
        cycle: The offending tasks in cycle order (the first task is not
            repeated at the end).
    """

    def __init__(self, cycle: Sequence[str]):
        self.cycle = list(cycle)
        path = " -> ".join([*self.cycle, self.cycle[0]]) if self.cycle else "?"
        super().__init__(f"tasks form a dependency cycle: {path}")


def find_dependency_cycle(dag: nx.DiGraph) -> List[str]:
    """Task names forming one dependency cycle of ``dag`` (empty if none)."""
    try:
        edges = nx.find_cycle(dag)
    except nx.NetworkXNoCycle:
        return []
    return [a for a, _b in edges]


def dependency_dag(profiles: Sequence[TaskProfile]) -> nx.DiGraph:
    """Build the task dependency DAG from producer→consumer file relations.

    An edge ``a → b`` means task ``b`` reads data task ``a`` wrote.  The
    timestamps inside each profile disambiguate tasks that both read and
    write the same file: only writes that *precede* another task's first
    read of the file create an edge.
    """
    # Per file: task -> first write time and task -> first read time.
    writes: Dict[str, Dict[str, float]] = defaultdict(dict)
    reads: Dict[str, Dict[str, float]] = defaultdict(dict)
    for p in profiles:
        for s in p.dataset_stats:
            if s.first_start is None:
                continue
            if s.writes:
                note_first(writes[s.file], p.task, s.first_start)
            if s.reads:
                note_first(reads[s.file], p.task, s.first_start)
    return dag_from_first_access([p.task for p in profiles], writes, reads)


def note_first(per_task: Dict[str, float], task: str, t: float) -> bool:
    """Lower ``per_task[task]`` to ``t``; True when the entry changed."""
    cur = per_task.get(task)
    if cur is None or t < cur:
        per_task[task] = t
        return True
    return False


def dag_from_first_access(
    tasks: Iterable[str],
    first_write: Mapping[str, Mapping[str, float]],
    first_read: Mapping[str, Mapping[str, float]],
) -> nx.DiGraph:
    """The dependency DAG from per-file first-access times.

    ``first_write[file][task]`` / ``first_read[file][task]`` is when the
    task first touched an object of ``file`` that it wrote / read (the
    object's first operation of any kind).  :func:`dependency_dag` derives
    these from finished profiles; streaming lint keeps them up to date
    from live operations, so both see the same graph.
    """
    g = nx.DiGraph()
    g.add_nodes_from(tasks)
    for file, readers in first_read.items():
        writers = first_write.get(file, {})
        for reader, read_time in readers.items():
            for writer, write_time in writers.items():
                if writer != reader and write_time < read_time:
                    g.add_edge(writer, reader, file=file)
    return g


def infer_task_order(profiles: Sequence[TaskProfile]) -> List[str]:
    """Reconstruct an execution order consistent with the dataflow.

    Returns task names topologically sorted by the dependency DAG, with
    ties broken by each task's recorded start time (stable for tasks with
    no data relation at all).

    Raises:
        CyclicDependencyError: If the traces imply a dependency cycle.
    """
    dag = dependency_dag(profiles)
    start_of = {p.task: p.span.start for p in profiles}
    try:
        generations = list(nx.topological_generations(dag))
    except nx.NetworkXUnfeasible as exc:
        raise CyclicDependencyError(find_dependency_cycle(dag)) from exc
    order: List[str] = []
    for generation in generations:
        order.extend(sorted(generation, key=lambda t: (start_of.get(t, 0.0), t)))
    return order
