"""Event-scheduler placement study: round-robin vs locality vs co-locate.

Two parts:

- :func:`run_locality_fixture` — the controlled fixture behind the
  locality gate: one producer writes a shared file, a fan of consumers
  read it through a :class:`~repro.optimizer.transparent
  .TransparentCache`.  Locality placement clusters the consumers onto
  one node, so the file is replicated onto node-local SSD **once** and
  every other consumer hits the replica; round-robin spreads the
  consumers and pays one replication miss per node.  That is the
  concrete mechanism by which the paper's fig11 co-scheduling wins, and
  the property ``BENCH_scheduler.json`` gates on.
- :func:`run_scheduler_comparison` — the bundled workloads executed
  under stage barriers with each placement policy (round-robin is the
  paper's stage-at-a-time baseline), reporting makespans and steal
  counts for the ``EXPERIMENTS.md`` table.

Synthetic DAGs for the decision-overhead benchmark are built by
:func:`build_synthetic_dag` — deterministic layered graphs with fan-in
edges and weighted volumes, no RNG, so benchmark runs replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.common import ResultTable, fresh_env
from repro.optimizer.transparent import TransparentCache
from repro.workflow.contracts import TaskContract, creates, reads
from repro.workflow.dscheduler import DataflowRunner, TaskGraph
from repro.workflow.model import Stage, Task, Workflow

__all__ = [
    "LocalityRun",
    "run_locality_fixture",
    "build_synthetic_dag",
    "run_scheduler_comparison",
]


# ----------------------------------------------------------------------
# The locality fixture
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LocalityRun:
    """Outcome of one locality-fixture run."""

    placement: str
    wall_time: float
    serial_time: float
    cache_hits: int
    cache_misses: int
    #: Distinct nodes the consumer stage landed on.
    consumer_nodes: int


def _locality_workflow(n_consumers: int, elems: int) -> Workflow:
    path = "/beegfs/locality/shared.h5"

    def produce(rt) -> None:
        f = rt.open(path, "w")
        f.create_dataset("data", shape=(elems,), dtype="f4",
                         data=np.zeros(elems, dtype=np.float32))
        f.close()

    producer = Task("produce", produce, contract=TaskContract.declare(
        creates(path, "/data", shape=(elems,), dtype="f4", elements=elems)))

    def consume(rt) -> None:
        f = rt.open(path, "r")
        f["data"][...]
        f.close()

    consumers = [
        Task(f"consume_{i:02d}", consume, contract=TaskContract.declare(
            reads(path, "/data", elements=elems, dtype="f4")))
        for i in range(n_consumers)
    ]
    return Workflow("locality-fixture", [
        Stage("produce", [producer]),
        Stage("consume", consumers),
    ])


def run_locality_fixture(
    placement: str = "locality",
    n_nodes: int = 3,
    n_consumers: int = 6,
    elems: int = 1 << 18,
) -> LocalityRun:
    """Run the producer/fan-of-consumers fixture under a cache.

    The consumers' aggregate read volume is what locality placement keys
    on (contract-predicted SDG edge volumes); the transparent cache is
    what converts clustered placement into fewer shared-filesystem
    replications and therefore a shorter makespan.
    """
    env = fresh_env(n_nodes=n_nodes)
    cache = TransparentCache(env.cluster, tier="ssd", min_bytes=1)
    runner = DataflowRunner(
        env.cluster, env.mapper,
        placement=placement, dependency_mode="dataflow",
        path_resolver=cache)
    result = runner.run(_locality_workflow(n_consumers, elems))
    consume = result.stage("consume")
    return LocalityRun(
        placement=placement,
        wall_time=result.wall_time,
        serial_time=result.serial_time,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        consumer_nodes=len(set(consume.placement.values())),
    )


# ----------------------------------------------------------------------
# Synthetic DAGs (decision-overhead benchmark)
# ----------------------------------------------------------------------
def build_synthetic_dag(
    n_tasks: int,
    width: int = 64,
    fan_in: int = 3,
) -> TaskGraph:
    """A deterministic layered DAG of ``n_tasks`` tasks.

    Tasks are laid out in layers of ``width``; each task depends on up to
    ``fan_in`` tasks of the previous layer (a strided pick, so edges are
    irregular but reproducible), with byte volumes varying by index.  No
    randomness: the same arguments always build the identical graph.
    """
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    graph = TaskGraph()
    for i in range(n_tasks):
        graph.add_task(f"t{i}", stage=f"layer{i // width}")
    for i in range(width, n_tasks):
        layer_start = (i // width - 1) * width
        prev_width = min(width, n_tasks - layer_start)
        for k in range(fan_in):
            j = layer_start + (i * (k + 1) + k) % prev_width
            graph.add_edge(f"t{j}", f"t{i}",
                           volume=((i + k) % 7 + 1) * 4096)
    return graph


# ----------------------------------------------------------------------
# The placement-policy comparison table
# ----------------------------------------------------------------------
_POLICIES = ("round_robin", "locality", "co_locate")


def _run_workload(name: str, scale: float, n_nodes: int,
                  placement: str) -> Dict[str, float]:
    """One workload run under stage barriers with ``placement``."""
    from repro.workloads.registry import build_workload

    workflow, prepare = build_workload(name, scale)
    env = fresh_env(n_nodes=n_nodes)
    if prepare is not None:
        prepare(env.cluster)
    env.runner.placement = placement
    result = env.runner.run(workflow)
    return {"wall_time": result.wall_time,
            "steals": env.runner.last_engine.steals}


def run_scheduler_comparison(
    workloads: Optional[List[str]] = None,
    scale: float = 0.25,
    n_nodes: int = 3,
) -> ResultTable:
    """Makespan per bundled workload under each placement policy.

    The workloads run under stage barriers, where each stage is placed
    when it opens and nothing is stolen; ``round_robin`` is the paper's
    stage-at-a-time baseline.  The locality fixture row at the bottom
    runs dataflow dependencies and adds the cache-replication effect
    the locality gate is built on.
    """
    names = workloads if workloads is not None else [
        "pyflextrkr", "ddmd", "arldm", "chaos"]
    table = ResultTable(
        title="Event-scheduler placement policies (makespan, simulated s)",
        columns=["workload", *_POLICIES, "steals"],
    )
    for name in names:
        row: Dict[str, object] = {"workload": name}
        steals = 0
        for policy in _POLICIES:
            out = _run_workload(name, scale, n_nodes, policy)
            row[policy] = out["wall_time"]
            steals = max(steals, int(out["steals"]))
        row["steals"] = steals
        table.add(**row)
    fixture: Dict[str, object] = {"workload": "locality-fixture",
                                  "steals": 0}
    for policy in _POLICIES:
        run = run_locality_fixture(placement=policy, n_nodes=n_nodes)
        fixture[policy] = run.wall_time
    table.add(**fixture)
    table.notes.append(
        "locality-fixture: one producer, six consumers reading its "
        "shared file through a transparent node-local cache — locality "
        "clusters the consumers onto one replica, round-robin pays one "
        "replication per node.")
    return table
