"""Predicted SDG: the Semantic Dataflow Graph before anything runs.

DaYu builds its SDG from VOL/VFD traces after a run; this module builds
the same graph shape from :class:`~repro.workflow.contracts.TaskContract`
alone — declared on tasks or inferred by :mod:`repro.lint.static` — so
the DY4xx pre-run rules and the contract-drift checker can reason about
a workflow that has never executed.

Two views are produced from a workflow:

- :class:`StaticContext` — the cross-task join of every task's
  effective contract, the stage schedule, and a *static* dataflow DAG
  (producer → consumer edges, only when the producer is scheduled
  before the consumer).  Reachability over this DAG is the pre-run
  analogue of :class:`~repro.lint.context.OrderingInfo`: writers with
  no read chain between them are unordered even inside a serial stage,
  matching what the trace-derived dependency DAG would conclude.
- :func:`build_predicted_sdg` — synthetic
  :class:`~repro.mapper.mapper.TaskProfile` objects fed through the
  ordinary :class:`~repro.analyzer.graphs.GraphBuilder`, yielding a
  real ``networkx`` SDG whose volumes come from contract element
  counts instead of traced bytes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.analyzer.graphs import GraphBuilder
from repro.lint.context import OrderingInfo
from repro.lint.static import WorkflowContracts, extract_workflow_contracts
from repro.mapper.mapper import TaskProfile
from repro.mapper.stats import DatasetIoStats
from repro.simclock import TimeSpan
from repro.workflow.contracts import (
    ContractAccess,
    TaskContract,
    dtype_itemsize,
)
from repro.workflow.model import Workflow

__all__ = [
    "StaticContext",
    "build_static_context",
    "access_bytes",
    "synthetic_profiles",
    "build_predicted_sdg",
]

#: Fallback element width (bytes) when a contract carries no dtype.
_DEFAULT_ITEMSIZE = 4


@dataclass
class StaticContext:
    """The cross-task contract join the DY4xx rules evaluate.

    Attributes:
        workflow: The workflow under analysis.
        contracts: Declared + inferred contracts per task.
        effective: Per task, the contract the rules use (declared when
            present, else inferred).
        schedule: ``task -> (stage_index, position)``; position orders
            tasks within a *serial* stage (parallel-stage tasks are
            concurrent regardless of position).
        parallel_stage: ``task -> stage.parallel``.
        producers: ``(file, dataset) -> tasks`` whose contracts move
            data into it (writes and data-bearing creates).
        creators: ``(file, dataset) -> tasks`` that create it (data or
            not).
        readers: ``(file, dataset) -> tasks`` that read its data.
        file_producers: ``file -> tasks`` that create or write anything
            in it — distinguishes in-workflow files from external
            inputs.
        ordering: Happens-before oracle over the static dataflow DAG.
    """

    workflow: Workflow
    contracts: WorkflowContracts
    effective: Dict[str, TaskContract]
    schedule: Dict[str, Tuple[int, int]]
    parallel_stage: Dict[str, bool]
    producers: Dict[Tuple[str, str], List[str]] = field(default_factory=dict)
    creators: Dict[Tuple[str, str], List[str]] = field(default_factory=dict)
    readers: Dict[Tuple[str, str], List[str]] = field(default_factory=dict)
    file_producers: Dict[str, Set[str]] = field(default_factory=dict)
    ordering: Optional[OrderingInfo] = None

    def scheduled_before(self, a: str, b: str) -> bool:
        """True when the stage plan runs ``a`` strictly before ``b``."""
        sa, sb = self.schedule.get(a), self.schedule.get(b)
        if sa is None or sb is None:
            return False
        if sa[0] != sb[0]:
            return sa[0] < sb[0]
        if self.parallel_stage.get(a, True):
            return False
        return sa[1] < sb[1]

    def accesses_for(self, key: Tuple[str, str], task: str
                     ) -> List[ContractAccess]:
        contract = self.effective.get(task)
        if contract is None:
            return []
        return [a for a in contract.accesses if a.key == key]

    def create_access(self, key: Tuple[str, str]
                      ) -> Optional[ContractAccess]:
        """The first exact ``create`` declaring this dataset's extent."""
        for task in self.creators.get(key, ()):
            for a in self.accesses_for(key, task):
                if a.op == "create" and a.exact and a.extent is not None:
                    return a
        return None


def _index_contracts(ctx: StaticContext) -> None:
    producers = defaultdict(list)
    creators = defaultdict(list)
    readers = defaultdict(list)
    file_producers = defaultdict(set)
    for task in (t.name for t in ctx.workflow.all_tasks()):
        contract = ctx.effective.get(task)
        if contract is None:
            continue
        seen_prod, seen_create, seen_read = set(), set(), set()
        for a in contract.accesses:
            if a.op == "create" and a.key not in seen_create:
                seen_create.add(a.key)
                creators[a.key].append(task)
            if a.op in ("create", "write"):
                file_producers[a.file].add(task)
            if a.op == "read" and a.key not in seen_read:
                seen_read.add(a.key)
                readers[a.key].append(task)
            if a.moves_data and a.op in ("create", "write") \
                    and a.key not in seen_prod:
                seen_prod.add(a.key)
                producers[a.key].append(task)
    ctx.producers = dict(producers)
    ctx.creators = dict(creators)
    ctx.readers = dict(readers)
    ctx.file_producers = dict(file_producers)


def _static_dag(ctx: StaticContext) -> "nx.DiGraph":
    """Producer → consumer edges the stage plan can actually realize.

    An edge exists only when the producing task is scheduled strictly
    before the consuming one — a read scheduled concurrently with (or
    ahead of) its producer is *not* a dependency, it is a hazard the
    rules will report.
    """
    dag = nx.DiGraph()
    for t in ctx.workflow.all_tasks():
        dag.add_node(t.name)
    for key, consumers in ctx.readers.items():
        for producer in ctx.producers.get(key, ()):
            for consumer in consumers:
                if producer == consumer:
                    continue
                if ctx.scheduled_before(producer, consumer):
                    dag.add_edge(producer, consumer, dataset=key)
    return dag


def build_static_context(workflow: Workflow) -> StaticContext:
    """Join a workflow's contracts into the pre-run rule context.

    The contracts come from the AST extractor run over every task
    (merging in declared contracts where tasks carry them).  The
    extraction is memoised on the workflow object
    (``Workflow.contracts_memo``) under the key of every task's
    ``(name, fn, contract)`` in order, so linting, costing, solving and
    scheduling one workflow extract once, while adding, replacing or
    re-declaring a task extracts again.
    """
    key = tuple((t.name, t.fn, t.contract) for t in workflow.all_tasks())
    memo = workflow.contracts_memo
    if memo is None or memo[0] != key:
        memo = workflow.contracts_memo = (
            key, extract_workflow_contracts(workflow))
    contracts = memo[1]
    schedule: Dict[str, Tuple[int, int]] = {}
    parallel_stage: Dict[str, bool] = {}
    for si, stage in enumerate(workflow.stages):
        for pi, task in enumerate(stage.tasks):
            schedule[task.name] = (si, pi)
            parallel_stage[task.name] = stage.parallel
    ctx = StaticContext(
        workflow=workflow,
        contracts=contracts,
        effective=contracts.effective(),
        schedule=schedule,
        parallel_stage=parallel_stage,
    )
    _index_contracts(ctx)
    ctx.ordering = OrderingInfo(_static_dag(ctx))
    return ctx


# ----------------------------------------------------------------------
# The predicted SDG
# ----------------------------------------------------------------------
def access_bytes(a: ContractAccess) -> int:
    """Predicted bytes one operation of this access moves."""
    itemsize = dtype_itemsize(a.dtype) or _DEFAULT_ITEMSIZE
    elements = a.elements
    if elements is None:
        elements = a.extent_elements or 0
    return elements * itemsize


def _synthetic_span(ctx: StaticContext, task: str) -> TimeSpan:
    """A schedule-shaped time span: one simulated second per stage,
    serial-stage tasks sub-ordered within it."""
    si, pi = ctx.schedule.get(task, (0, 0))
    if ctx.parallel_stage.get(task, True):
        return TimeSpan(start=float(si), end=float(si + 1))
    width = max(len(ctx.workflow.stages[si].tasks), 1)
    return TimeSpan(start=si + pi / width, end=si + (pi + 1) / width)


def synthetic_profiles(ctx: StaticContext) -> List[TaskProfile]:
    """Contract-shaped :class:`TaskProfile` stand-ins (no I/O records).

    Each task's contract becomes one :class:`DatasetIoStats` row per
    ``(file, dataset)``, with operation counts and byte volumes computed
    from element counts and dtypes.  The rows are exactly what
    :class:`~repro.analyzer.graphs.GraphBuilder` consumes, so the
    predicted SDG is built by the same code path as the traced one.
    """
    profiles: List[TaskProfile] = []
    for t in ctx.workflow.all_tasks():
        contract = ctx.effective.get(t.name)
        span = _synthetic_span(ctx, t.name)
        rows: Dict[Tuple[str, str], DatasetIoStats] = {}
        for a in (contract.accesses if contract is not None else ()):
            stats = rows.get(a.key)
            if stats is None:
                stats = DatasetIoStats(task=t.name, file=a.file,
                                       data_object=a.dataset)
                stats.first_start = span.start
                stats.last_end = span.end
                rows[a.key] = stats
            ops = max(a.count, 1)
            volume = access_bytes(a) * ops
            if a.op == "read":
                stats.reads += ops
                stats.bytes_read += volume
                stats.data_ops += ops
                stats.data_bytes += volume
            elif a.op == "write" or (a.op == "create" and a.moves_data):
                stats.writes += ops
                stats.bytes_written += volume
                stats.data_ops += ops
                stats.data_bytes += volume
            elif a.op in ("create", "resize"):
                stats.writes += ops  # shape/definition: metadata write
                stats.metadata_ops += ops
            else:  # "open" — metadata-only touch
                stats.metadata_ops += ops
        profiles.append(TaskProfile(
            task=t.name, span=span,
            files=sorted({key[0] for key in rows}),
            object_profiles=[], file_sessions=[], io_records=[],
            dataset_stats=[rows[key] for key in sorted(rows)],
        ))
    return profiles


def build_predicted_sdg(workflow: Workflow) -> "nx.DiGraph":
    """Build the SDG a run of this workflow is predicted to produce.

    Same node/edge schema as :func:`repro.analyzer.graphs.build_sdg`
    (task/file/dataset nodes, read/write edges with count and volume),
    with ``predicted=True`` set on the graph for consumers that care.
    """
    ctx = build_static_context(workflow)
    builder = GraphBuilder("sdg")
    for profile in synthetic_profiles(ctx):
        builder.add_profile(profile)
    graph = builder.build(copy=False)
    graph.graph["predicted"] = True
    return graph
