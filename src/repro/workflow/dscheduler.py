"""The execution engine: a Dask-class event-driven scheduler and the
one workflow runner built on it.

Every workflow runs through :class:`DataflowRunner`, in one of two
dependency modes.  Stage barriers (``dependency_mode="stage"``, the
default) reproduce stage-at-a-time execution — each stage placed once
when it opens, its tasks starting together, the next stage waiting for
the last of them — which is what the paper's placement figures measure.
Dataflow edges (``"dataflow"``) let independent stages overlap.  The
core:

- **Per-task state machine** — every task moves ``waiting → ready →
  running → memory``/``failed`` (plus ``cancelled`` for tasks released
  by an abort).  A failed *attempt* transitions ``running → ready`` with
  its retry backoff folded into the ready time.
- **Ready heap** — ready tasks are popped highest priority first: in
  workflow order for a barrier graph, otherwise by *upward rank*
  (HEFT-style: a task's ``compute_seconds`` plus the heaviest downstream
  chain hanging off it).  A decision is one O(log n) heap pop, a walk
  over the task's dependencies (the locality tally holds at most one
  entry per producer) and one pass over the nodes' slot-heap heads:
  about 19 µs per decision at 100k tasks on a shared 2-vCPU host,
  against a 1000 µs gate (``BENCH_scheduler.json``).
- **Data-locality placement** — a task is placed on the node holding
  the most of its input bytes, computed from predicted/observed SDG edge
  volumes (the paper's fig11 co-scheduling, generalized), falling back
  to the least-loaded alive node.  Dead nodes are never chosen; a
  cluster with zero survivors raises
  :class:`~repro.workflow.scheduler.NoAliveNodesError`.
- **Work stealing** — when the locality-preferred node's slots are all
  busy and another alive node would start the task earlier by more than
  :data:`STEAL_MARGIN` virtual seconds, the idle node steals it
  (:class:`~repro.monitor.events.TaskStolen`).  A barrier stage's held
  placement is never stolen.

The task graph memoises its Kahn order, so the ranks and the
scheduler's acyclicity check share one pass.  :meth:`TaskGraph.add_task`
and :meth:`TaskGraph.add_edge` are the only topology mutators and drop
the memo; nothing may append to a ``TaskEntry``'s ``deps`` or
``dependents`` directly.

Virtual time
------------
All task bodies still execute serially against the one simulated
cluster clock (that is what prices I/O honestly, contention included).
The scheduler maintains a *virtual* overlapped timeline on top: each
node owns ``cpus`` slot clocks, a dispatched task starts at
``max(ready_time, earliest slot)`` and finishes ``duration`` later, and
dependents become ready at the maximum of their producers' virtual
finishes.  Stage results carry the virtual spans, so
:attr:`~repro.workflow.runner.WorkflowResult.wall_time` is the honest
first-start/last-finish makespan even when stages overlap.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.mapper.mapper import DataSemanticMapper
from repro.posix.simfs import FsError
from repro.workflow.model import Stage, Task, Workflow
from repro.workflow.runner import (
    RETRY_BACKOFF_ACCOUNT,
    RetryPolicy,
    StageResult,
    TaskFailure,
    TaskRuntime,
    WorkflowResult,
)
from repro.workflow.scheduler import NoAliveNodesError

__all__ = [
    "TaskState",
    "TERMINAL_STATES",
    "TaskEntry",
    "TaskGraph",
    "upward_ranks",
    "DataflowScheduler",
    "SimulatedSchedule",
    "DataflowRunner",
]

PLACEMENT_POLICIES = ("locality", "least_loaded", "round_robin", "co_locate")
#: Minimum virtual seconds an idle node must save before it may steal a
#: task from its preferred node.
STEAL_MARGIN = 1e-9


class TaskState(enum.Enum):
    """Dask-style task lifecycle states."""

    WAITING = "waiting"      # dependencies outstanding
    READY = "ready"          # in the ready heap (first run or retry)
    RUNNING = "running"      # an attempt is executing
    MEMORY = "memory"        # completed; output available to dependents
    FAILED = "failed"        # attempt budget exhausted
    CANCELLED = "cancelled"  # released unrun by an abort


#: States a task can legally end a run in.
TERMINAL_STATES = frozenset(
    {TaskState.MEMORY, TaskState.FAILED, TaskState.CANCELLED})


# ----------------------------------------------------------------------
# The task graph
# ----------------------------------------------------------------------
@dataclass
class TaskEntry:
    """One task's static scheduling facts."""

    name: str
    stage: str
    stage_index: int
    best_effort: bool = False
    #: Position within its stage: round-robin places task *i* of a stage
    #: on ``alive[i % len(alive)]``.
    index: int = 0
    #: The workflow task object (None for synthetic benchmark graphs).
    task: Optional[Task] = None
    deps: List[str] = field(default_factory=list)
    dependents: List[str] = field(default_factory=list)


class TaskGraph:
    """The dependency DAG the event scheduler executes.

    Two construction paths:

    - :meth:`from_workflow` derives edges from the stage plan
      (``mode="stage"``: every task depends on the whole previous
      non-empty stage, and the graph is marked :attr:`barrier`) or from
      contracts
      (``mode="dataflow"``: producer→consumer edges of the predicted SDG
      with read-volume weights, plus write/anti-dependency ordering
      edges; tasks with no usable contract conservatively barrier
      against their neighboring stages).  Explicit ``Task.depends_on``
      edges and serial-stage chains are added in both modes.
    - :meth:`add_task` / :meth:`add_edge` build synthetic graphs
      directly (the 100k-task scheduler benchmark).

    :meth:`add_task` and :meth:`add_edge` are the only topology
    mutators: :meth:`topological_order` memoises its Kahn order and
    relies on them to drop it, so never append to ``deps`` or
    ``dependents`` directly.  Edge *volumes* may be rewritten in place
    (observed bytes refine predictions); they are not topology.
    """

    def __init__(self) -> None:
        self.entries: Dict[str, TaskEntry] = {}
        #: Predicted/observed bytes the consumer pulls from the producer.
        self.volume: Dict[Tuple[str, str], int] = {}
        #: (file, dataset) keys behind each dataflow edge — what lets the
        #: runner refine predicted volumes with observed written bytes.
        self.edge_keys: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
        #: Stage name → its task names in insertion order.
        self.stages: Dict[str, List[str]] = {}
        #: Set by ``from_workflow(mode="stage")``: the scheduler runs the
        #: graph in barrier mode (see :class:`DataflowScheduler`).
        self.barrier = False
        #: Memoised Kahn order; set only when Kahn succeeds.
        self._topo: Optional[List[str]] = None

    # -- direct construction -------------------------------------------
    def add_task(self, name: str, stage: str = "", stage_index: int = 0,
                 best_effort: bool = False,
                 task: Optional[Task] = None) -> TaskEntry:
        if name in self.entries:
            raise ValueError(f"duplicate task {name!r}")
        members = self.stages.setdefault(stage, [])
        entry = TaskEntry(name=name, stage=stage, stage_index=stage_index,
                          best_effort=best_effort, index=len(members),
                          task=task)
        members.append(name)
        self.entries[name] = entry
        self._topo = None
        return entry

    def add_edge(self, producer: str, consumer: str, volume: int = 0,
                 key: Optional[Tuple[str, str]] = None) -> None:
        if producer not in self.entries or consumer not in self.entries:
            raise KeyError(f"edge {producer!r} -> {consumer!r} names an "
                           f"unknown task")
        pair = (producer, consumer)
        if pair not in self.volume:
            self.entries[producer].dependents.append(consumer)
            self.entries[consumer].deps.append(producer)
            self.volume[pair] = 0
            self._topo = None
        self.volume[pair] += volume
        if key is not None:
            self.edge_keys.setdefault(pair, []).append(key)

    @property
    def n_tasks(self) -> int:
        return len(self.entries)

    @property
    def n_edges(self) -> int:
        return len(self.volume)

    # -- workflow construction -----------------------------------------
    @classmethod
    def from_workflow(cls, workflow: Workflow,
                      mode: str = "stage") -> "TaskGraph":
        if mode not in ("stage", "dataflow"):
            raise ValueError(f"unknown dependency mode {mode!r}")
        graph = cls()
        stages: List[Stage] = workflow.stages
        for si, stage in enumerate(stages):
            for task in stage.tasks:
                graph.add_task(task.name, stage=stage.name, stage_index=si,
                               best_effort=stage.best_effort, task=task)
        # Serial stages execute their tasks in list order in both modes.
        for stage in stages:
            if not stage.parallel:
                for a, b in zip(stage.tasks, stage.tasks[1:]):
                    graph.add_edge(a.name, b.name)
        for task in workflow.all_tasks():
            for dep in task.depends_on:
                graph.add_edge(dep, task.name)
        if mode == "stage":
            graph.barrier = True
            prev: List[Task] = []
            for stage in stages:
                for t in stage.tasks:
                    for p in prev:
                        graph.add_edge(p.name, t.name)
                prev = stage.tasks or prev
            return graph
        graph._add_dataflow_edges(workflow, stages)
        return graph

    def _add_dataflow_edges(self, workflow: Workflow,
                            stages: List[Stage]) -> None:
        from repro.lint.predict import access_bytes, build_static_context

        ctx = build_static_context(workflow)
        touchers: Dict[Tuple[str, str], Dict[str, Tuple[bool, bool]]] = {}
        for task, contract in ctx.effective.items():
            for a in contract.accesses:
                reads, writes = touchers.setdefault(a.key, {}).get(
                    task, (False, False))
                if a.op == "read" or a.op == "open":
                    reads = True
                # A create is a write in the ordering sense even when the
                # extractor could not resolve its element count: it
                # *defines* the object a scheduled-later reader opens.
                if a.op in ("write", "resize", "create"):
                    writes = True
                touchers[a.key][task] = (reads, writes)
        for key, per_task in touchers.items():
            names = list(per_task)
            for i, a in enumerate(names):
                ar, aw = per_task[a]
                for b in names[i + 1:]:
                    br, bw = per_task[b]
                    if not (aw or bw):
                        continue  # two readers never need ordering
                    first, second = (a, b) if ctx.scheduled_before(a, b) \
                        else (b, a) if ctx.scheduled_before(b, a) \
                        else (None, None)
                    if first is None:
                        continue  # concurrent — a hazard, not an edge
                    vol = 0
                    if per_task[first][1] and per_task[second][0]:
                        # True flow edge: weight it with the consumer's
                        # predicted read volume for this dataset, falling
                        # back to the producer's predicted write volume
                        # when the reads' element counts are unresolved.
                        vol = sum(
                            access_bytes(acc) * max(acc.count, 1)
                            for acc in ctx.accesses_for(key, second)
                            if acc.op == "read")
                        if vol == 0:
                            vol = sum(
                                access_bytes(acc) * max(acc.count, 1)
                                for acc in ctx.accesses_for(key, first)
                                if acc.op in ("write", "create"))
                    self.add_edge(first, second, volume=vol, key=key)
        # A task whose contract tells us nothing is an opaque barrier:
        # order it against both neighboring stages.
        for si, stage in enumerate(stages):
            for task in stage.tasks:
                contract = ctx.effective.get(task.name)
                if contract is not None and contract.accesses:
                    continue
                if si > 0:
                    for p in stages[si - 1].tasks:
                        self.add_edge(p.name, task.name)
                if si + 1 < len(stages):
                    for d in stages[si + 1].tasks:
                        self.add_edge(task.name, d.name)

    # -- analysis -------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Kahn order (insertion-order deterministic); raises on cycles.

        The order is computed once per topology and a copy returned, so
        callers may mutate what they get."""
        if self._topo is None:
            self._topo = self._kahn()
        return list(self._topo)

    def _kahn(self) -> List[str]:
        entries = self.entries
        indeg = {n: len(e.deps) for n, e in entries.items()}
        frontier = [n for n, d in indeg.items() if d == 0]
        for name in frontier:  # the list grows while it is walked
            for d in entries[name].dependents:
                left = indeg[d] - 1
                indeg[d] = left
                if left == 0:
                    frontier.append(d)
        if len(frontier) != len(entries):
            stuck = sorted(n for n, d in indeg.items() if d > 0)
            raise ValueError(
                f"task graph has a dependency cycle through {stuck[:6]}")
        return frontier


def upward_ranks(graph: TaskGraph,
                 weights: Optional[Mapping[str, float]] = None,
                 default_weight: float = 1.0) -> Dict[str, float]:
    """HEFT-style priority: a task's weight plus its heaviest downstream
    chain.  Scheduling high ranks first keeps the critical path moving."""
    weight = (weights or {}).get
    entries = graph.entries
    ranks: Dict[str, float] = {}
    rank_of = ranks.__getitem__
    for name in reversed(graph.topological_order()):
        dependents = entries[name].dependents
        downstream = max(map(rank_of, dependents)) if dependents else 0.0
        ranks[name] = weight(name, default_weight) + downstream
    return ranks


# ----------------------------------------------------------------------
# The decision engine
# ----------------------------------------------------------------------
@dataclass
class SimulatedSchedule:
    """Outcome of a pure (no-execution) scheduling simulation."""

    makespan: float
    decisions: int
    steals: int
    placement: Dict[str, str]
    vstart: Dict[str, float]
    vfinish: Dict[str, float]


class DataflowScheduler:
    """The pure decision core: state machine + ready heap + virtual slots.

    Knows nothing about task bodies, the simulated filesystem, or the
    monitor — :class:`DataflowRunner` drives it against a real cluster,
    and :meth:`simulate` drives it against a duration table (the 100k-task
    benchmark path).

    A :attr:`TaskGraph.barrier` graph runs in *barrier mode*: when a
    stage's first task is assigned, the whole stage is placed at once
    (:meth:`_place_stage`) and each task keeps that node — it is never
    stolen.  A retry whose held node died is re-placed onto the
    survivors by the same rule.  Round-robin is then
    :func:`~repro.workflow.scheduler.stage_placement`, the placement the
    cost model prices.

    Args:
        graph: The dependency DAG.
        slots: Node name → parallel task slots (``Node.cpus``).
        policy: ``"locality"`` (SDG edge volumes, least-loaded fallback),
            ``"least_loaded"``, ``"round_robin"`` (task *i* of its stage
            on ``alive[i % len(alive)]``) or ``"co_locate"``.
        priorities: Ready-heap key per task (higher pops first); default
            :func:`upward_ranks` over unit weights.
        alive: Node liveness oracle (``cluster.is_alive``); default all.
        pins: Task → node pins (a ``dayu-plan`` overlay).  A pin onto a
            dead node, or a node not in ``slots``, is not honoured: the
            task is placed by ``policy`` instead.
        steal: Enable work stealing (an idle node takes a task when it
            would start it more than :data:`STEAL_MARGIN` earlier).
    """

    def __init__(
        self,
        graph: TaskGraph,
        slots: Mapping[str, int],
        policy: str = "locality",
        priorities: Optional[Mapping[str, float]] = None,
        alive: Optional[Callable[[str], bool]] = None,
        pins: Optional[Mapping[str, str]] = None,
        steal: bool = True,
    ) -> None:
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement policy {policy!r}; "
                             f"expected one of {PLACEMENT_POLICIES}")
        if not slots:
            raise ValueError("scheduler needs at least one node")
        self.graph = graph
        self.policy = policy
        self.steal = steal
        self.pins = dict(pins or {})
        #: ``None`` means every node is alive: the node order itself is
        #: then the alive list, with no per-decision oracle calls.
        self._alive = alive
        self._node_order = list(slots)
        #: Node → definition index (locality's arg-max tie-break).
        self._node_index = {node: i for i, node in enumerate(slots)}
        self._capacity = {node: max(int(n), 1) for node, n in slots.items()}
        self._slots: Dict[str, List[float]] = {
            node: [0.0] * n for node, n in self._capacity.items()}
        if priorities is None:
            priorities = upward_ranks(graph)
        else:
            # Raises on a cycle; free when ranks were just computed,
            # since the graph memoises its order.
            graph.topological_order()
        self.priority = dict(priorities)
        #: Called with ``(task, virtual_ready_time, priority)`` whenever a
        #: task enters the ready heap (the TaskReady hook).
        self.on_ready: Optional[Callable[[str, float, float], None]] = None

        self.state: Dict[str, TaskState] = {
            name: TaskState.WAITING for name in graph.entries}
        self.ready_at: Dict[str, float] = {name: 0.0 for name in graph.entries}
        self.vstart: Dict[str, float] = {}
        self.vfinish: Dict[str, float] = {}
        self.placement: Dict[str, str] = {}
        #: Barrier mode: the node each task of an opened stage holds.
        self.held: Dict[str, str] = {}
        self._indeg: Dict[str, int] = {
            name: len(e.deps) for name, e in graph.entries.items()}
        self._heap: List[Tuple[float, int, str]] = []
        self._seq = 0
        self._pending_slot: Dict[str, float] = {}
        self.decisions = 0
        self.steals = 0
        self.makespan = 0.0
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Seed the ready heap with every dependency-free task."""
        if self._started:
            raise RuntimeError("scheduler already started")
        self._started = True
        for name, entry in self.graph.entries.items():
            if not entry.deps:
                self._make_ready(name, 0.0)

    def _make_ready(self, name: str, at: float) -> None:
        self.state[name] = TaskState.READY
        ready_at = self.ready_at
        prev = ready_at[name]
        ready = at if at > prev else prev  # max(prev, at)
        ready_at[name] = ready
        priority = self.priority.get(name, 0.0)
        self._seq += 1
        heapq.heappush(self._heap, (-priority, self._seq, name))
        if self.on_ready is not None:
            self.on_ready(name, ready, priority)

    def pop_ready(self) -> Optional[str]:
        """Highest-priority ready task, or None when the heap drains."""
        heap = self._heap
        state = self.state
        ready = TaskState.READY
        while heap:
            name = heapq.heappop(heap)[2]
            if state[name] is ready:
                return name
        return None

    # -- placement ------------------------------------------------------
    def _alive_nodes(self, what: str) -> List[str]:
        alive = [n for n in self._node_order if self._alive(n)]
        if not alive:
            dead = [n for n in self._node_order if not self._alive(n)]
            raise NoAliveNodesError(dead, what)
        return alive

    def _least_loaded(self, alive: List[str],
                      exclude: Optional[str] = None) -> Optional[str]:
        """Alive node with the earliest free slot, or None when every
        candidate is fully in flight (an empty slot heap)."""
        slots = self._slots
        best = None
        best_t = math.inf
        for node in alive:
            if node == exclude:
                continue
            slot_heap = slots[node]
            if slot_heap and slot_heap[0] < best_t:
                best, best_t = node, slot_heap[0]
        return best

    def _preferred_node(self, name: str,
                        alive: List[str]) -> Tuple[Optional[str], bool]:
        """(node, hard) — hard placements (live pins) are never stolen.
        The node is None where the policy falls back to the least
        loaded node, which the caller measures."""
        is_alive = self._alive
        pin = self.pins.get(name)
        if pin is not None and pin in self._slots and (
                is_alive is None or is_alive(pin)):
            return pin, True
        if self.policy == "co_locate":
            return alive[0], False
        if self.policy == "round_robin":
            return alive[self.graph.entries[name].index % len(alive)], False
        if self.policy == "locality":
            # Input bytes per live producing node (at most fan-in
            # entries); the arg-max breaks ties by node definition order.
            placement = self.placement
            volume = self.graph.volume
            tally: Dict[str, int] = {}
            for dep in self.graph.entries[name].deps:
                node = placement.get(dep)
                if node is None or (is_alive is not None
                                    and not is_alive(node)):
                    continue
                nbytes = volume.get((dep, name), 0)
                if nbytes > 0:
                    tally[node] = tally.get(node, 0) + nbytes
            if tally:
                index = self._node_index
                best, best_bytes = None, 0
                for node, nbytes in tally.items():
                    if nbytes > best_bytes or (
                            nbytes == best_bytes
                            and index[node] < index[best]):
                        best, best_bytes = node, nbytes
                return best, False
        return None, False

    def _place_stage(self, stage: str, alive: List[str]) -> Dict[str, str]:
        """Barrier mode: a node for every task of ``stage``.

        Pins and the policy come first; a task they leave open goes to
        the alive node holding the fewest of the stage's tasks per slot
        (ties to the earlier node), so least-loaded spreads a stage."""
        capacity = self._capacity
        load = dict.fromkeys(alive, 0)
        placed: Dict[str, str] = {}
        for name in self.graph.stages[stage]:
            node = self._preferred_node(name, alive)[0]
            if node is None:
                node = min(alive, key=lambda n: load[n] / capacity[n])
            load[node] += 1
            placed[name] = node
        return placed

    def _held_node(self, name: str, alive: List[str]) -> str:
        """Barrier mode: the node ``name`` holds, placing its stage when
        the stage opens and re-placing a retry whose node died."""
        held = self.held
        node = held.get(name)
        if node is None:
            held.update(self._place_stage(self.graph.entries[name].stage,
                                          alive))
            node = held[name]
        elif name in self.placement and node not in alive:
            stage = self.graph.entries[name].stage
            node = held[name] = self._place_stage(stage, alive)[name]
        return node

    def assign(self, name: str) -> Tuple[str, float, Optional[str], float]:
        """Place one popped ready task and occupy its slot.

        Returns ``(node, vstart, stolen_from, saved)``: ``stolen_from`` is
        the preferred node work stealing took the task from (None when
        not stolen), ``saved`` the virtual queue wait the steal avoided.
        """
        if self.state[name] is not TaskState.READY:
            raise RuntimeError(f"cannot assign {name!r} in state "
                               f"{self.state[name].value}")
        alive = (self._node_order if self._alive is None
                 else self._alive_nodes(f"task {name!r}"))
        ready = self.ready_at[name]
        if self.graph.barrier:
            node, hard = self._held_node(name, alive), True
        else:
            node, hard = self._preferred_node(name, alive)
            if node is None:
                node = self._least_loaded(alive) or alive[0]
        stolen_from: Optional[str] = None
        saved = 0.0
        slots = self._slots
        if self.steal and not hard and len(alive) > 1:
            slot_heap = slots[node]
            head = slot_heap[0] if slot_heap else math.inf
            t_pref = head if head > ready else ready  # max(ready, head)
            thief = self._least_loaded(alive, exclude=node)
            if thief is not None:
                head = slots[thief][0]  # non-empty: thief has a free slot
                t_thief = head if head > ready else ready
                if t_thief + STEAL_MARGIN < t_pref:
                    stolen_from, node = node, thief
                    saved = t_pref - t_thief
                    self.steals += 1
        if not slots[node]:
            # Every slot of the chosen node holds an in-flight task
            # whose finish is still unknown — reroute to a node with a
            # free slot rather than inventing a start time.
            alt = self._least_loaded(alive, exclude=node)
            if alt is None or not slots[alt]:
                raise RuntimeError(
                    f"cannot assign {name!r}: every slot of every alive "
                    f"node holds an in-flight task (complete or fail one "
                    f"first)")
            if not hard and stolen_from is None:
                stolen_from, saved = node, 0.0
                self.steals += 1
            node = alt
        slot_free = heapq.heappop(slots[node])
        vstart = max(ready, slot_free)
        self._pending_slot[name] = vstart
        self.state[name] = TaskState.RUNNING
        self.placement[name] = node
        self.vstart[name] = vstart
        self.decisions += 1
        return node, vstart, stolen_from, saved

    # -- transitions ----------------------------------------------------
    def complete(self, name: str, duration: float) -> float:
        """``running → memory``; returns the virtual finish time."""
        vstart = self._require_running(name)
        # vstart + max(duration, 0.0)
        vfinish = vstart + (0.0 if 0.0 > duration else duration)
        heapq.heappush(self._slots[self.placement[name]], vfinish)
        self.state[name] = TaskState.MEMORY
        self.vfinish[name] = vfinish
        if vfinish > self.makespan:  # max(makespan, vfinish)
            self.makespan = vfinish
        self._release_dependents(name, vfinish)
        return vfinish

    def fail(self, name: str, elapsed: float = 0.0, backoff: float = 0.0,
             terminal: bool = False, release: bool = False) -> float:
        """A failed attempt: ``running → ready`` (retry after ``backoff``)
        or ``running → failed`` (terminal).

        Terminal failures on best-effort stages set ``release=True`` so
        dependents still become ready (degraded-input semantics — the
        chaos merge recomputes lost partitions).
        """
        vstart = self._require_running(name)
        vfail = vstart + max(elapsed, 0.0)
        node = self.placement[name]
        heapq.heappush(self._slots[node], vfail)
        if terminal:
            self.state[name] = TaskState.FAILED
            self.vfinish[name] = vfail
            self.makespan = max(self.makespan, vfail)
            if release:
                self._release_dependents(name, vfail)
        else:
            self.state[name] = TaskState.WAITING  # re-enters via _make_ready
            self._make_ready(name, vfail + max(backoff, 0.0))
        return vfail

    def cancel_pending(self) -> List[str]:
        """Abort: every non-terminal, non-running task → ``cancelled``."""
        cancelled = []
        for name, state in self.state.items():
            if state in (TaskState.WAITING, TaskState.READY):
                self.state[name] = TaskState.CANCELLED
                cancelled.append(name)
        self._heap.clear()
        return cancelled

    def _require_running(self, name: str) -> float:
        if self.state[name] is not TaskState.RUNNING:
            raise RuntimeError(f"task {name!r} is not running "
                               f"({self.state[name].value})")
        return self._pending_slot.pop(name)

    def _release_dependents(self, name: str, at: float) -> None:
        indeg = self._indeg
        ready_at = self.ready_at
        state = self.state
        waiting = TaskState.WAITING
        for dep in self.graph.entries[name].dependents:
            left = indeg[dep] - 1
            indeg[dep] = left
            if at > ready_at[dep]:  # max(ready_at[dep], at)
                ready_at[dep] = at
            if left == 0 and state[dep] is waiting:
                self._make_ready(dep, at)

    # -- introspection --------------------------------------------------
    def busy_counts(self, at: float) -> Dict[str, int]:
        """Slots per node still occupied at virtual time ``at``."""
        return {
            node: sum(1 for t in slot_heap if t > at)
            for node, slot_heap in self._slots.items()
        }

    def terminal_states(self) -> Dict[str, str]:
        return {name: state.value for name, state in self.state.items()}

    # -- pure simulation (the benchmark path) ---------------------------
    def simulate(
        self,
        durations: Optional[Mapping[str, float]] = None,
        default_duration: float = 1.0,
    ) -> SimulatedSchedule:
        """Schedule the whole graph without executing anything.

        Every decision the real runner would make — ready promotion,
        heap pops, locality/stealing placement, slot accounting — runs
        for real; only the task bodies are replaced by a duration table.
        """
        durations = durations or {}
        self.start()
        while True:
            name = self.pop_ready()
            if name is None:
                break
            self.assign(name)
            self.complete(name, durations.get(name, default_duration))
        leftovers = [n for n, s in self.state.items()
                     if s is not TaskState.MEMORY]
        if leftovers:
            raise RuntimeError(
                f"simulation left {len(leftovers)} task(s) unfinished "
                f"(cycle?): {sorted(leftovers)[:6]}")
        return SimulatedSchedule(
            makespan=self.makespan,
            decisions=self.decisions,
            steals=self.steals,
            placement=dict(self.placement),
            vstart=dict(self.vstart),
            vfinish=dict(self.vfinish),
        )


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class DataflowRunner:
    """Executes workflows on a cluster with DaYu's mapper attached.

    One loop drives the decision engine against the real cluster: pop a
    ready task, place it, run one attempt, then complete it, or fail it
    back into the ready heap with its backoff folded into the ready
    time.  Stage results carry virtual spans, so
    :attr:`~repro.workflow.runner.WorkflowResult.wall_time` is the
    first-start/last-finish makespan, failed attempts and backoff
    waits included.

    ``dependency_mode="stage"`` builds a barrier graph, which runs the
    stage-at-a-time model the paper's placement figures measure:

    - each stage is placed when it opens and keeps that placement
      (round-robin is :func:`~repro.workflow.scheduler.stage_placement`);
    - ready tasks run in workflow order, a retry straight after its
      failed attempt;
    - every attempt of a parallel stage sees the whole stage's per-node
      task counts (``Cluster.set_stage_concurrency``); a serial stage's
      see none;
    - no ``TaskReady`` events: a barrier stage's tasks all become ready
      when it starts, which ``StageStarted`` reports.

    ``dependency_mode="dataflow"`` uses contract-derived edges, so
    independent stages overlap, and an attempt's contention comes from
    the slots busy when it starts.  Ready-heap priorities are then
    upward ranks over the tasks' ``compute_seconds``.

    Args:
        cluster: The simulated cluster.
        mapper: The Data Semantic Mapper collecting per-task profiles.
        placement: Placement policy (``PLACEMENT_POLICIES``).
        dependency_mode: ``"stage"`` (barriers) or ``"dataflow"``.
        pins: Task name → node, layered over the policy (co-scheduling
            moves and ``dayu-plan`` pins).  A pin to a node not in the
            cluster fails :meth:`run` before any task.
        steal: Enable work stealing (dataflow mode; a held barrier
            placement is never stolen).
        path_resolver: Optional ``(path, mode, node) -> path`` hook
            applied to every task open (transparent caching).
        retry_policy: Re-attempt failed tasks (default: fail fast).
        faults: Optional :class:`repro.faults.FaultInjector`, polled
            before every dispatch and after every backoff wait so
            scheduled node deaths land at their simulated times.
    """

    def __init__(
        self,
        cluster: Cluster,
        mapper: DataSemanticMapper,
        placement: str = "locality",
        dependency_mode: str = "stage",
        pins: Optional[Mapping[str, str]] = None,
        steal: bool = True,
        path_resolver: Optional[Callable[[str, str, str], str]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        faults=None,
    ) -> None:
        if placement not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement policy {placement!r}")
        self.cluster = cluster
        self.mapper = mapper
        self.placement = placement
        self.dependency_mode = dependency_mode
        self.pins = dict(pins or {})
        self.steal = steal
        self.path_resolver = path_resolver
        self.retry_policy = retry_policy
        self.faults = faults
        #: The (possibly partial) result of the most recent :meth:`run` —
        #: still populated when the run aborted mid-workflow.
        self.last_result: Optional[WorkflowResult] = None
        #: The decision engine of the most recent :meth:`run`.
        self.last_engine: Optional[DataflowScheduler] = None

    # -- construction helpers ------------------------------------------
    @property
    def _monitor(self):
        return getattr(self.mapper, "monitor", None)

    def _build_engine(self, workflow: Workflow) -> DataflowScheduler:
        graph = TaskGraph.from_workflow(workflow, mode=self.dependency_mode)
        if graph.barrier:
            # Workflow order: a stage's tasks run in list order.
            priorities = {name: -float(i)
                          for i, name in enumerate(graph.entries)}
        else:
            priorities = upward_ranks(graph, {
                name: entry.task.compute_seconds
                for name, entry in graph.entries.items()
                if entry.task.compute_seconds > 0})
        return DataflowScheduler(
            graph,
            slots={n.name: n.cpus for n in self.cluster.nodes.values()},
            policy=self.placement,
            priorities=priorities,
            alive=self.cluster.is_alive,
            pins=self.pins,
            steal=self.steal,
        )

    def _refine_edge_volumes(self, engine: DataflowScheduler,
                             name: str) -> None:
        """Replace a finished producer's predicted out-edge volumes with
        the bytes it actually wrote (observed SDG edge volumes)."""
        graph = engine.graph
        profile = self.mapper.profiles.get(name)
        if profile is None or not graph.edge_keys:
            return
        written: Dict[Tuple[str, str], int] = {}
        for s in profile.dataset_stats:
            if s.bytes_written:
                key = (s.file, s.data_object)
                written[key] = written.get(key, 0) + s.bytes_written
        if not written:
            return
        for consumer in graph.entries[name].dependents:
            keys = graph.edge_keys.get((name, consumer))
            if not keys:
                continue
            observed = sum(written.get(k, 0) for k in keys)
            if observed:
                graph.volume[(name, consumer)] = observed

    # -- execution ------------------------------------------------------
    def run(self, workflow: Workflow) -> WorkflowResult:
        workflow.validate()
        for task, node in self.pins.items():
            if node not in self.cluster.nodes:
                raise KeyError(f"task {task!r} is pinned to node {node!r}, "
                               f"which is not in the cluster")
        self.last_result = result = WorkflowResult(workflow=workflow.name)
        engine = self._build_engine(workflow)
        self.last_engine = engine
        barrier = engine.graph.barrier
        monitor = self._monitor
        clock = self.cluster.clock
        policy = self.retry_policy or RetryPolicy(max_attempts=1)

        stages = {stage.name: stage for stage in workflow.stages}
        stage_results: Dict[str, StageResult] = {}
        stage_remaining: Dict[str, int] = {}
        #: Virtual span of every attempt so far, per opened stage.
        stage_span: Dict[str, Tuple[float, float]] = {}
        #: Barrier mode: each opened parallel stage's per-node task counts.
        stage_load: Dict[str, Dict[str, int]] = {}
        for stage in workflow.stages:
            sr = StageResult(name=stage.name, wall_time=0.0)
            stage_results[stage.name] = sr
            result.stage_results.append(sr)
            stage_remaining[stage.name] = len(stage.tasks)

        if monitor is not None and not barrier:
            from repro.monitor.events import TaskReady

            def on_ready(name: str, at: float, priority: float) -> None:
                entry = engine.graph.entries[name]
                monitor.publish(TaskReady(time=clock.now, task=name,
                                          stage=entry.stage, at=at,
                                          priority=priority))

            engine.on_ready = on_ready

        attempts: Dict[str, int] = {}
        abort: Optional[BaseException] = None
        #: The latest stage a task was dispatched from: an aborted run
        #: reports the stages up to it.
        reached = -1
        try:
            engine.start()
            while True:
                self._poll_faults()
                name = engine.pop_ready()
                if name is None:
                    break
                entry = engine.graph.entries[name]
                sr = stage_results[entry.stage]
                reached = max(reached, entry.stage_index)
                attempt = attempts[name] = attempts.get(name, 0) + 1
                if attempt > 1:
                    delay = self._backoff(policy, attempt)
                    previous = engine.placement[name]
                node, vstart, stolen_from, saved = engine.assign(name)
                span = stage_span.get(entry.stage)
                if span is None:
                    stage_span[entry.stage] = (vstart, vstart)
                    self._stage_started(entry.stage)
                    if barrier:
                        stage = stages[entry.stage]
                        sr.placement.update(
                            (t.name, engine.held[t.name])
                            for t in stage.tasks)
                        if stage.parallel:
                            load: Dict[str, int] = {}
                            for n in sr.placement.values():
                                load[n] = load.get(n, 0) + 1
                            stage_load[entry.stage] = load
                elif vstart < span[0]:
                    stage_span[entry.stage] = (vstart, span[1])
                if attempt > 1:
                    self._retried(sr, name, attempt, delay, node, previous)
                if stolen_from is not None and monitor is not None:
                    from repro.monitor.events import TaskStolen

                    monitor.publish(TaskStolen(
                        time=clock.now, task=name, node=node,
                        victim=stolen_from, saved=saved))
                final = attempt >= policy.max_attempts

                if barrier:
                    counts = stage_load.get(entry.stage)
                else:
                    counts = engine.busy_counts(vstart)
                    counts[node] = counts.get(node, 0) + 1
                if counts:
                    self.cluster.set_stage_concurrency(counts)
                elapsed, exc = self._attempt(entry.task, node, attempt, final)
                self.cluster.reset_concurrency()
                if exc is None:
                    vend = engine.complete(name, elapsed)
                    self._refine_edge_volumes(engine, name)
                    sr.task_durations[name] = elapsed
                    sr.attempts[name] = attempt
                    sr.placement[name] = node
                elif not final:
                    vend = engine.fail(name, elapsed=elapsed,
                                       backoff=policy.backoff(attempt + 1))
                else:
                    vend = engine.fail(name, elapsed=elapsed, terminal=True,
                                       release=entry.best_effort)
                    self._record_failure(sr, name, node, attempt, exc)
                lo, hi = stage_span[entry.stage]
                if vend > hi:
                    stage_span[entry.stage] = (lo, vend)
                if exc is not None:
                    if not final:
                        continue
                    if not entry.best_effort:
                        abort = exc
                        break
                stage_remaining[entry.stage] -= 1
                if stage_remaining[entry.stage] == 0:
                    self._close_stage(sr, stage_span)
                    self._stage_finished(sr)
            if abort is not None:
                engine.cancel_pending()
        except NoAliveNodesError as exc:
            # Total cluster death mid-run: clean abort, partial results
            # (completed stages, profiles, placements) preserved.
            engine.cancel_pending()
            abort = exc
        finally:
            self.cluster.reset_concurrency()
            for stage in workflow.stages:
                sr = stage_results[stage.name]
                if stage_remaining[stage.name] > 0:
                    self._close_stage(sr, stage_span)
                    sr.aborted = abort is not None
                    if stage.name in stage_span:
                        self._stage_finished(sr)
            # Stages that never ran a task chain after their predecessor
            # so the makespan envelope stays well-defined.
            prev_finish = 0.0
            for stage in workflow.stages:
                sr = stage_results[stage.name]
                if stage.name in stage_span:
                    prev_finish = max(prev_finish, sr.finished_at)
                else:
                    sr.started_at = sr.finished_at = prev_finish
            if abort is not None:
                del result.stage_results[reached + 1:]
            # Even an aborted run keeps the profiles of every completed
            # task — the partial result stays analyzable.
            result.profiles = dict(self.mapper.profiles)
        if abort is not None:
            raise abort
        return result

    # -- one attempt of a task -----------------------------------------
    def _attempt(self, task: Task, node: str, attempt: int, final: bool
                 ) -> Tuple[float, Optional[BaseException]]:
        """Run one attempt of ``task`` on ``node``.

        Returns ``(simulated seconds, None)`` on success or ``(seconds
        elapsed, exception)`` after publishing ``TaskFailed``.  An
        attempt placed on a dead node fails unstarted, without a profile.
        """
        if not self.cluster.is_alive(node):
            exc = FsError(f"task {task.name!r} placed on dead node {node!r}")
            self._publish_failed(task.name, node, attempt, exc, final,
                                 started=False)
            return 0.0, exc
        clock = self.cluster.clock
        start = clock.now
        try:
            with self.mapper.task(task.name) as ctx:
                runtime = TaskRuntime(self.cluster, ctx, task, node,
                                      path_resolver=self.path_resolver)
                if task.compute_seconds:
                    runtime.compute(task.compute_seconds)
                task.fn(runtime)
        except Exception as exc:
            self._publish_failed(task.name, node, attempt, exc, final)
            return clock.now - start, exc
        return clock.now - start, None

    # -- helpers --------------------------------------------------------
    def _poll_faults(self) -> None:
        if self.faults is not None:
            self.faults.poll()

    def _backoff(self, policy: RetryPolicy, attempt: int) -> float:
        """Wait out the backoff before retry ``attempt``, then poll
        faults (a node may die during the wait); returns the wait."""
        delay = policy.backoff(attempt)
        if delay > 0:
            self.cluster.clock.advance(delay, account=RETRY_BACKOFF_ACCOUNT)
        self._poll_faults()
        return delay

    def _retried(self, stage_result: StageResult, task: str, attempt: int,
                 delay: float, node: str, previous: str) -> None:
        """Count retry ``attempt`` of ``task``, now placed on ``node``."""
        stage_result.retries += 1
        monitor = self._monitor
        if monitor is not None:
            from repro.monitor.events import TaskRetried

            monitor.publish(TaskRetried(
                time=self.cluster.clock.now, task=task, attempt=attempt,
                backoff=delay, node=node, previous_node=previous))

    def _record_failure(self, stage_result: StageResult, task: str,
                        node: str, attempts: int,
                        exc: BaseException) -> None:
        """Record ``task`` as lost after ``attempts`` tries on ``node``."""
        stage_result.attempts[task] = attempts
        stage_result.placement[task] = node
        stage_result.failures[task] = TaskFailure(
            task=task, node=node, attempts=attempts, error=_describe(exc),
            time=self.cluster.clock.now)

    def _publish_failed(self, task: str, node: str, attempt: int,
                        exc: BaseException, fatal: bool,
                        started: bool = True) -> None:
        monitor = self._monitor
        if monitor is None:
            return
        from repro.monitor.events import TaskFailed

        monitor.publish(TaskFailed(
            time=self.cluster.clock.now, task=task, error=_describe(exc),
            node=node, attempt=attempt, fatal=fatal, started=started))

    def _stage_started(self, stage: str) -> None:
        monitor = self._monitor
        if monitor is not None:
            from repro.monitor.events import StageStarted

            monitor.publish(StageStarted(
                time=self.cluster.clock.now, task=None, stage=stage))

    def _stage_finished(self, stage_result: StageResult) -> None:
        monitor = self._monitor
        if monitor is not None:
            from repro.monitor.events import StageFinished

            monitor.publish(StageFinished(
                time=self.cluster.clock.now, task=None,
                stage=stage_result.name, wall_time=stage_result.wall_time,
                failed=stage_result.aborted))

    @staticmethod
    def _close_stage(sr: StageResult,
                     stage_span: Dict[str, Tuple[float, float]]) -> None:
        span = stage_span.get(sr.name)
        if span is None:
            return
        sr.started_at, sr.finished_at = span
        sr.wall_time = span[1] - span[0]


def _describe(exc: Optional[BaseException]) -> str:
    if exc is None:
        return ""
    return f"{type(exc).__name__}: {exc}"
