"""Static cost prophet: price a workflow's I/O before it runs.

DaYu's thesis is that decoded dataflow semantics should *drive*
optimization, not just explain a finished run.  This module joins the
three static artifacts the repo already has —

- the predicted SDG (:mod:`repro.lint.predict`): which task moves how
  many bytes into which dataset, from contracts alone;
- the calibrated device models (:mod:`repro.storage.devices`): what a
  byte costs on NVMe vs. NFS vs. BeeGFS, with contention;
- a cluster topology (:class:`repro.cluster.configs.ClusterSpec`):
  which device a path lands on and whether it is node-local —

into a :class:`CostReport`: per-task I/O seconds, per-edge transfer
volumes, per-stage walls, and the predicted critical path, entirely
pre-run.  The DY6xx rules (:mod:`repro.lint.perf`) read the report to
convict performance hazards; the greedy locality solver
(:mod:`repro.optimizer.placement`) re-prices the stages a trial
placement touches with :func:`price_stage`, the same per-stage pricer
:func:`build_cost_report` runs; and the DY65x drift
rules compare the prediction against a traced run, so mispredictions
are themselves findings (mirroring DY45x contract drift).

The model is deliberately linear — latency per op plus bytes over
bandwidth, scaled by the same contention factor the simulated devices
charge — which makes its laws testable: cost is monotone in bytes,
additive over serial batches, and the critical path is a lower bound on
any legal schedule's makespan (see ``tests/test_cost_lint.py``).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.cluster.configs import ClusterSpec
from repro.lint.predict import StaticContext, access_bytes, build_static_context
from repro.mapper.mapper import TaskProfile
from repro.storage.devices import predicted_cost
from repro.workflow.contracts import ContractAccess
from repro.workflow.model import Stage, Workflow
from repro.workflow.scheduler import stage_placement

__all__ = [
    "COST_SCHEMA",
    "TaskCost",
    "EdgeCost",
    "StageCost",
    "DatasetTraffic",
    "CostReport",
    "CostContext",
    "CostDriftContext",
    "build_cost_report",
    "PriceMemo",
    "price_stage",
    "build_cost_context",
    "build_cost_drift_context",
    "critical_path",
    "schedule_makespan",
]

#: Versioned schema tag for serialized cost reports.
COST_SCHEMA = "dayu-cost/v1"


@dataclass(frozen=True)
class DatasetKeyCost:
    """One task's predicted cost against one ``(file, dataset)``."""

    file: str
    dataset: str
    ops: int
    volume: int
    io_seconds: float
    latency_seconds: float


@dataclass
class TaskCost:
    """Predicted cost breakdown for one task.

    ``latency_seconds`` is the per-operation latency share of
    ``io_seconds`` (contention included) — when it dominates, the task
    is paying for operation *count*, not volume: the small-I/O
    amplification signature DY601 looks for.
    """

    task: str
    stage: str
    stage_index: int
    node: str
    compute_seconds: float = 0.0
    read_ops: int = 0
    read_bytes: int = 0
    write_ops: int = 0
    write_bytes: int = 0
    io_seconds: float = 0.0
    latency_seconds: float = 0.0
    datasets: List[DatasetKeyCost] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.io_seconds


@dataclass(frozen=True)
class EdgeCost:
    """A producer → consumer dataset hand-off and its predicted price.

    ``seconds`` is what the *consumer* is predicted to pay reading the
    dataset at its placed concurrency; ``cross_node`` marks hand-offs
    where producer and consumer land on different nodes (the traffic a
    locality placement could eliminate — the paper's fig11 insight).
    """

    producer: str
    consumer: str
    file: str
    dataset: str
    volume: int
    seconds: float
    cross_node: bool


@dataclass(frozen=True)
class StageCost:
    """Predicted wall seconds for one stage under the stage barrier."""

    name: str
    index: int
    parallel: bool
    wall_seconds: float
    tasks: Tuple[str, ...]


@dataclass
class DatasetTraffic:
    """Aggregate read traffic against one dataset, as placed."""

    file: str
    dataset: str
    path: str
    device: str
    shared: bool
    read_ops: int = 0
    bytes_read: int = 0
    readers: Tuple[str, ...] = ()


@dataclass
class CostReport:
    """The full pre-run cost picture of one workflow on one cluster."""

    workflow: str
    cluster: str
    n_nodes: int
    tasks: Dict[str, TaskCost]
    stages: List[StageCost]
    edges: List[EdgeCost]
    dataset_traffic: Dict[Tuple[str, str], DatasetTraffic]
    critical_path: List[str]
    critical_path_seconds: float
    makespan_seconds: float
    placement: Dict[str, str]
    file_placement: Dict[str, str]

    def to_json_dict(self) -> dict:
        """Deterministic, diff-stable JSON form (sorted, rounded)."""
        r = lambda x: round(x, 9)  # noqa: E731 - local shorthand
        return {
            "schema": COST_SCHEMA,
            "workflow": self.workflow,
            "cluster": self.cluster,
            "n_nodes": self.n_nodes,
            "makespan_seconds": r(self.makespan_seconds),
            "critical_path": list(self.critical_path),
            "critical_path_seconds": r(self.critical_path_seconds),
            "placement": dict(sorted(self.placement.items())),
            "file_placement": dict(sorted(self.file_placement.items())),
            "tasks": {
                name: {
                    "stage": t.stage,
                    "stage_index": t.stage_index,
                    "node": t.node,
                    "compute_seconds": r(t.compute_seconds),
                    "read_ops": t.read_ops,
                    "read_bytes": t.read_bytes,
                    "write_ops": t.write_ops,
                    "write_bytes": t.write_bytes,
                    "io_seconds": r(t.io_seconds),
                    "latency_seconds": r(t.latency_seconds),
                    "total_seconds": r(t.total_seconds),
                    "datasets": [
                        {
                            "file": d.file,
                            "dataset": d.dataset,
                            "ops": d.ops,
                            "volume": d.volume,
                            "io_seconds": r(d.io_seconds),
                            "latency_seconds": r(d.latency_seconds),
                        }
                        for d in sorted(t.datasets,
                                        key=lambda d: (d.file, d.dataset))
                    ],
                }
                for name, t in sorted(self.tasks.items())
            },
            "stages": [
                {
                    "name": s.name,
                    "index": s.index,
                    "parallel": s.parallel,
                    "wall_seconds": r(s.wall_seconds),
                    "tasks": list(s.tasks),
                }
                for s in self.stages
            ],
            "edges": [
                {
                    "producer": e.producer,
                    "consumer": e.consumer,
                    "file": e.file,
                    "dataset": e.dataset,
                    "volume": e.volume,
                    "seconds": r(e.seconds),
                    "cross_node": e.cross_node,
                }
                for e in sorted(
                    self.edges,
                    key=lambda e: (e.producer, e.consumer, e.file, e.dataset))
            ],
            "dataset_traffic": [
                {
                    "file": t.file,
                    "dataset": t.dataset,
                    "path": t.path,
                    "device": t.device,
                    "shared": t.shared,
                    "read_ops": t.read_ops,
                    "bytes_read": t.bytes_read,
                    "readers": list(t.readers),
                }
                for _, t in sorted(self.dataset_traffic.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)

    def save(self, path: str) -> None:
        from repro.ioutil import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")


@dataclass
class CostContext:
    """What the DY6xx ``perf`` rules evaluate."""

    static: StaticContext
    spec: ClusterSpec
    report: CostReport


@dataclass
class CostDriftContext:
    """Prediction vs. one traced run — what the DY65x rules evaluate."""

    report: CostReport
    actual_durations: Dict[str, float]
    #: ``task -> (bytes_read, bytes_written)`` summed over its datasets.
    actual_bytes: Dict[str, Tuple[int, int]]
    actual_makespan: float


# ----------------------------------------------------------------------
# Building the report
# ----------------------------------------------------------------------
def _charge(spec_dev, a: ContractAccess, concurrency: int
            ) -> Tuple[int, int, int, int, float, float]:
    """``(read_ops, read_bytes, write_ops, write_bytes, io, latency)``
    one contract access is predicted to cost on a device.

    Data-free creates/resizes and opens are metadata touches: one
    latency-priced operation each, zero bytes (mirroring how the
    simulated :class:`~repro.storage.devices.StorageDevice` charges
    them).
    """
    ops = max(a.count, 1)
    volume = access_bytes(a) * ops
    if a.op == "read":
        ro, rb, wo, wb = ops, volume, 0, 0
    elif a.op == "write" or (a.op == "create" and a.moves_data):
        ro, rb, wo, wb = 0, 0, ops, volume
    elif a.op in ("create", "resize"):
        ro, rb, wo, wb = 0, 0, ops, 0
    else:  # "open"
        ro, rb, wo, wb = ops, 0, 0, 0
    io = predicted_cost(spec_dev, read_ops=ro, read_bytes=rb,
                        write_ops=wo, write_bytes=wb,
                        concurrency=concurrency)
    latency = predicted_cost(spec_dev, read_ops=ro, write_ops=wo,
                             concurrency=concurrency)
    return ro, rb, wo, wb, io, latency


def _concurrency(stage: Stage, dev, on_node: int) -> int:
    """Request streams a device sees from one task of ``stage``: the
    whole stage on a shared device, the ``on_node`` tasks placed beside
    it on a node-local one, one in a serial stage."""
    if not stage.parallel:
        return 1
    return len(stage.tasks) if dev.shared else on_node


class PriceMemo:
    """The pure lookups of one pricing run (a report, or a whole solve),
    memoised: ``spec.device_for_path`` per path and :func:`_charge` per
    ``(device, access, concurrency)``."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.device_for = lru_cache(maxsize=None)(spec.device_for_path)
        self.charge = lru_cache(maxsize=None)(_charge)


def price_stage(
    ctx: StaticContext,
    si: int,
    placement: Mapping[str, str],
    file_placement: Mapping[str, str],
    memo: PriceMemo,
    traffic: Optional[Dict[Tuple[str, str], DatasetTraffic]] = None,
) -> Tuple[List[TaskCost], StageCost]:
    """Price every declared access of stage ``si``: ``placement`` maps
    each task to its node, ``file_placement`` rewrites contract paths.
    Node-local concurrency counts the stage's tasks per node, so a move
    re-prices the whole stage.  The wall is the max (parallel) or sum
    (serial) of the tasks' compute plus I/O.  When ``traffic`` is
    given, reads accumulate into it per dataset.
    """
    stage = ctx.workflow.stages[si]
    per_node = Counter(placement[t.name] for t in stage.tasks)
    costs: List[TaskCost] = []
    for t in stage.tasks:
        node = placement[t.name]
        tc = TaskCost(task=t.name, stage=stage.name, stage_index=si,
                      node=node, compute_seconds=t.compute_seconds)
        contract = ctx.effective.get(t.name)
        per_key: Dict[Tuple[str, str], List[float]] = {}
        for a in (contract.accesses if contract is not None else ()):
            path = file_placement.get(a.file, a.file)
            dev, _owner = memo.device_for(path)
            ro, rb, wo, wb, io, lat = memo.charge(
                dev, a, _concurrency(stage, dev, per_node[node]))
            tc.read_ops += ro
            tc.read_bytes += rb
            tc.write_ops += wo
            tc.write_bytes += wb
            tc.io_seconds += io
            tc.latency_seconds += lat
            acc = per_key.setdefault(a.key, [0, 0, 0.0, 0.0])
            acc[0] += ro + wo
            acc[1] += rb + wb
            acc[2] += io
            acc[3] += lat
            if ro and traffic is not None:
                kt = traffic.get(a.key)
                if kt is None:
                    kt = DatasetTraffic(
                        file=a.file, dataset=a.dataset, path=path,
                        device=dev.name, shared=dev.shared)
                    traffic[a.key] = kt
                kt.read_ops += ro
                kt.bytes_read += rb
                if t.name not in kt.readers:
                    kt.readers = kt.readers + (t.name,)
        tc.datasets = [
            DatasetKeyCost(file=k[0], dataset=k[1], ops=v[0],
                           volume=v[1], io_seconds=v[2],
                           latency_seconds=v[3])
            for k, v in sorted(per_key.items())
        ]
        costs.append(tc)
    totals = [tc.total_seconds for tc in costs]
    wall = max(totals, default=0.0) if stage.parallel else sum(totals)
    return costs, StageCost(name=stage.name, index=si,
                            parallel=stage.parallel, wall_seconds=wall,
                            tasks=tuple(t.name for t in stage.tasks))


def build_cost_report(
    ctx: StaticContext,
    spec: ClusterSpec,
    placement: Optional[Mapping[str, str]] = None,
    file_placement: Optional[Mapping[str, str]] = None,
) -> CostReport:
    """Price every declared access of ``ctx``'s workflow on ``spec``.

    Args:
        ctx: Static contract join (:func:`build_static_context`).
        spec: Cluster topology to price against.
        placement: ``task -> node`` pins; unlisted tasks take the
            round-robin placement
            (:func:`~repro.workflow.scheduler.stage_placement` over
            ``spec.node_names``), so with no pins the report prices what
            the stage-barrier round-robin runner
            (:func:`~repro.experiments.common.fresh_env`) runs.
        file_placement: ``original path -> placed path`` rewrites (a
            plan's localizations); unlisted paths stay where the
            contract puts them.

    Each stage is priced by :func:`price_stage`.  Concurrency mirrors
    the runner's stage declaration: in a parallel stage a shared device
    sees the whole stage's task count, a node-local device sees only
    the tasks placed on its node; serial stages run one request stream
    at a time.
    """
    nodes = spec.node_names
    pins = placement or {}
    placement = {}
    for stage in ctx.workflow.stages:
        placement.update(stage_placement(stage, nodes, pins))
    file_placement = dict(file_placement or {})
    memo = PriceMemo(spec)

    tasks: Dict[str, TaskCost] = {}
    traffic: Dict[Tuple[str, str], DatasetTraffic] = {}
    stage_costs: List[StageCost] = []
    for si in range(len(ctx.workflow.stages)):
        costs, stage_cost = price_stage(ctx, si, placement, file_placement,
                                        memo, traffic)
        tasks.update((tc.task, tc) for tc in costs)
        stage_costs.append(stage_cost)

    edges = _edge_costs(ctx, placement, file_placement, memo, tasks)
    dag = ctx.ordering.dag if ctx.ordering is not None else nx.DiGraph()
    weights = {name: tc.total_seconds for name, tc in tasks.items()}
    cp_tasks, cp_seconds = critical_path(dag, weights)
    return CostReport(
        workflow=ctx.workflow.name,
        cluster=spec.name,
        n_nodes=spec.n_nodes,
        tasks=tasks,
        stages=stage_costs,
        edges=edges,
        dataset_traffic=traffic,
        critical_path=cp_tasks,
        critical_path_seconds=cp_seconds,
        makespan_seconds=sum(s.wall_seconds for s in stage_costs),
        placement=placement,
        file_placement=file_placement,
    )


def _edge_costs(
    ctx: StaticContext,
    placement: Dict[str, str],
    file_placement: Mapping[str, str],
    memo: PriceMemo,
    tasks: Dict[str, TaskCost],
) -> List[EdgeCost]:
    """One :class:`EdgeCost` per realized producer → consumer hand-off,
    priced as the consumer's read of the dataset."""
    edges: List[EdgeCost] = []
    dag = ctx.ordering.dag if ctx.ordering is not None else nx.DiGraph()
    for producer, consumer, data in dag.edges(data=True):
        key = data.get("dataset")
        if key is None:
            continue
        file, dataset = key
        dev, owner = memo.device_for(file_placement.get(file, file))
        node = tasks[consumer].node
        stage = ctx.workflow.stages[tasks[consumer].stage_index]
        on_node = sum(1 for t in stage.tasks if placement.get(t.name) == node)
        volume = 0
        seconds = 0.0
        for a in ctx.accesses_for(key, consumer):
            if a.op != "read":
                continue
            _ro, rb, _wo, _wb, io, _lat = memo.charge(
                dev, a, _concurrency(stage, dev, on_node))
            volume += rb
            seconds += io
        if dev.shared:
            cross = placement.get(producer) != placement.get(consumer)
        else:
            cross = owner is not None and placement.get(consumer) != owner
        edges.append(EdgeCost(producer=producer, consumer=consumer,
                              file=file, dataset=dataset, volume=volume,
                              seconds=seconds, cross_node=cross))
    return edges


# ----------------------------------------------------------------------
# Critical path and schedule bounds
# ----------------------------------------------------------------------
def critical_path(dag: "nx.DiGraph", weights: Mapping[str, float]
                  ) -> Tuple[List[str], float]:
    """Longest node-weighted path through the static dataflow DAG.

    Returns ``(tasks, seconds)`` — deterministic under ties (largest
    task name wins at each join).  An empty or cyclic DAG yields the
    single heaviest task, which is still a valid lower bound.
    """
    if dag.number_of_nodes() == 0 or not nx.is_directed_acyclic_graph(dag):
        if not weights:
            return [], 0.0
        best = max(sorted(weights), key=lambda n: (weights[n], n))
        return [best], weights[best]
    dist: Dict[str, float] = {}
    prev: Dict[str, Optional[str]] = {}
    for node in nx.lexicographical_topological_sort(dag):
        w = weights.get(node, 0.0)
        preds = list(dag.predecessors(node))
        if preds:
            p = max(preds, key=lambda n: (dist[n], n))
            dist[node] = dist[p] + w
            prev[node] = p
        else:
            dist[node] = w
            prev[node] = None
    end = max(dist, key=lambda n: (dist[n], n))
    path: List[str] = []
    cur: Optional[str] = end
    while cur is not None:
        path.append(cur)
        cur = prev[cur]
    path.reverse()
    return path, dist[end]


def schedule_makespan(
    dag: "nx.DiGraph",
    weights: Mapping[str, float],
    order: Iterable[str],
    slots: Optional[int] = None,
) -> float:
    """Predicted makespan of list-scheduling ``order`` on ``slots``
    workers, respecting DAG dependencies.

    This is the schedule sampler for the critical-path law: for *any*
    legal order and *any* worker count, the result can never undercut
    :func:`critical_path`'s length.  Raises ``ValueError`` when the
    order schedules a task before one of its DAG predecessors.
    """
    order = list(order)
    workers = [0.0] * max(1, slots if slots is not None else len(order))
    finish: Dict[str, float] = {}
    for task in order:
        ready = 0.0
        for p in dag.predecessors(task) if dag.has_node(task) else ():
            if p not in finish:
                raise ValueError(
                    f"illegal schedule: {task!r} ordered before its "
                    f"dependency {p!r}")
            ready = max(ready, finish[p])
        wi = min(range(len(workers)), key=lambda i: workers[i])
        start = max(ready, workers[wi])
        workers[wi] = finish[task] = start + weights.get(task, 0.0)
    return max(finish.values(), default=0.0)


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def build_cost_context(
    workflow: Workflow,
    spec: ClusterSpec,
    placement: Optional[Mapping[str, str]] = None,
    file_placement: Optional[Mapping[str, str]] = None,
) -> CostContext:
    """Static context + cost report in one call (what ``--cost`` runs)."""
    static = build_static_context(workflow)
    report = build_cost_report(static, spec, placement=placement,
                               file_placement=file_placement)
    return CostContext(static=static, spec=spec, report=report)


def build_cost_drift_context(
    report: CostReport,
    profiles: Sequence[TaskProfile],
) -> CostDriftContext:
    """Join a prediction with the task profiles of one traced run."""
    durations: Dict[str, float] = {}
    actual_bytes: Dict[str, Tuple[int, int]] = {}
    starts: List[float] = []
    ends: List[float] = []
    for p in profiles:
        durations[p.task] = max(p.span.end - p.span.start, 0.0)
        starts.append(p.span.start)
        ends.append(p.span.end)
        br = sum(s.bytes_read for s in p.dataset_stats)
        bw = sum(s.bytes_written for s in p.dataset_stats)
        actual_bytes[p.task] = (br, bw)
    makespan = (max(ends) - min(starts)) if starts else 0.0
    return CostDriftContext(report=report, actual_durations=durations,
                            actual_bytes=actual_bytes,
                            actual_makespan=makespan)
