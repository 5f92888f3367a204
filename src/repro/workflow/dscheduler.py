"""Event-driven per-task dataflow scheduler (ROADMAP item 1).

The stage-at-a-time runner dispatches one stage, waits for every task in
it, then places the next stage — placement is decided once per stage and
a single straggler holds the whole barrier.  This module replaces that
with a Dask-class event-driven core:

- **Per-task state machine** — every task moves ``waiting → ready →
  running → memory``/``failed`` (plus ``cancelled`` for tasks released
  by an abort).  A failed *attempt* transitions ``running → ready`` with
  its retry backoff folded into the ready time; the attempt itself (the
  dead-node check, the task body, ``TaskFailed``), the retry prelude and
  the recorded loss are the stage runner's, so both engines differ only
  in their loop.
- **Ready heap keyed by upward rank** — ready tasks are popped highest
  *upward rank* first (HEFT-style: a task's ``compute_seconds`` plus the
  heaviest downstream chain hanging off it).  A decision is one O(log n)
  heap pop, a walk over the task's dependencies (the locality tally
  holds at most one entry per producer) and one pass over the nodes'
  slot-heap heads: about 19 µs per decision at 100k tasks on a shared
  2-vCPU host, against a 1000 µs gate (``BENCH_scheduler.json``).
- **Data-locality placement** — a task is placed on the node holding
  the most of its input bytes, computed from predicted/observed SDG edge
  volumes (the paper's fig11 co-scheduling, generalized), falling back
  to the least-loaded alive node.  Dead nodes are never chosen; a
  cluster with zero survivors raises
  :class:`~repro.workflow.scheduler.NoAliveNodesError`.
- **Work stealing** — when the locality-preferred node's slots are all
  busy and another alive node would start the task earlier by more than
  :data:`STEAL_MARGIN` virtual seconds, the idle node steals it
  (:class:`~repro.monitor.events.TaskStolen`).

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

from repro.workflow.model import Stage, Task, Workflow
from repro.workflow.runner import (
    RetryPolicy,
    StageResult,
    WorkflowResult,
    WorkflowRunner,
)
from repro.workflow.scheduler import NoAliveNodesError

__all__ = [
    "TaskState",
    "TERMINAL_STATES",
    "TaskEntry",
    "TaskGraph",
    "upward_ranks",
    "Assignment",
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
    #: The workflow task object (None for synthetic benchmark graphs).
    task: Optional[Task] = None
    deps: List[str] = field(default_factory=list)
    dependents: List[str] = field(default_factory=list)


class TaskGraph:
    """The dependency DAG the event scheduler executes.

    Two construction paths:

    - :meth:`from_workflow` derives edges from the stage plan
      (``mode="stage"``: every task depends on the whole previous stage,
      the stage runner's dependency order, though not its timings — see
      :class:`DataflowRunner`) or from contracts
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
        #: Memoised Kahn order; set only when Kahn succeeds.
        self._topo: Optional[List[str]] = None

    # -- direct construction -------------------------------------------
    def add_task(self, name: str, stage: str = "", stage_index: int = 0,
                 best_effort: bool = False,
                 task: Optional[Task] = None) -> TaskEntry:
        if name in self.entries:
            raise ValueError(f"duplicate task {name!r}")
        entry = TaskEntry(name=name, stage=stage, stage_index=stage_index,
                          best_effort=best_effort, task=task)
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
            for prev, cur in zip(stages, stages[1:]):
                for t in cur.tasks:
                    for p in prev.tasks:
                        graph.add_edge(p.name, t.name)
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
@dataclass(frozen=True)
class Assignment:
    """One placement decision."""

    task: str
    node: str
    vstart: float
    #: The locality-preferred node work stealing took the task from.
    stolen_from: Optional[str] = None
    #: Virtual seconds of queue wait the steal avoided.
    saved: float = 0.0


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

    Args:
        graph: The dependency DAG.
        slots: Node name → parallel task slots (``Node.cpus``).
        policy: ``"locality"`` (SDG edge volumes, least-loaded fallback),
            ``"least_loaded"``, ``"round_robin"`` or ``"co_locate"``.
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
        self._slots: Dict[str, List[float]] = {
            node: [0.0] * max(int(n), 1) for node, n in slots.items()}
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
        self._indeg: Dict[str, int] = {
            name: len(e.deps) for name, e in graph.entries.items()}
        self._heap: List[Tuple[float, int, str]] = []
        self._seq = 0
        self._pending_slot: Dict[str, float] = {}
        self._rr = 0
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

    def _preferred_node(self, name: str, alive: List[str]) -> Tuple[str, bool]:
        """(node, hard) — hard placements (live pins) are never stolen."""
        is_alive = self._alive
        pin = self.pins.get(name)
        if pin is not None and pin in self._slots and (
                is_alive is None or is_alive(pin)):
            return pin, True
        if self.policy == "co_locate":
            return alive[0], False
        if self.policy == "round_robin":
            node = alive[self._rr % len(alive)]
            self._rr += 1
            return node, False
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
        return self._least_loaded(alive) or alive[0], False

    def assign(self, name: str) -> Assignment:
        """Place one popped ready task and occupy its slot."""
        if self.state[name] is not TaskState.READY:
            raise RuntimeError(f"cannot assign {name!r} in state "
                               f"{self.state[name].value}")
        alive = (self._node_order if self._alive is None
                 else self._alive_nodes(f"task {name!r}"))
        ready = self.ready_at[name]
        node, hard = self._preferred_node(name, alive)
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
        return Assignment(task=name, node=node, vstart=vstart,
                          stolen_from=stolen_from, saved=saved)

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
# The event-driven runner
# ----------------------------------------------------------------------
class DataflowRunner(WorkflowRunner):
    """Executes workflows through the event-driven scheduler.

    Drop-in alternative to :class:`~repro.workflow.runner.WorkflowRunner`
    (same mapper/monitor/faults/retry plumbing, same
    :class:`~repro.workflow.runner.WorkflowResult` shape — stage results
    carry virtual spans, so ``wall_time`` is the overlapped makespan).
    Each task attempt, retry prelude and recorded loss goes through the
    stage runner's methods; only the loop differs: a failed attempt
    re-enters the ready heap instead of retrying inline.  Ready-heap
    priorities are upward ranks over the tasks' ``compute_seconds``.

    Args:
        cluster, mapper, path_resolver, retry_policy, faults: As the
            stage-at-a-time runner.
        placement: Placement policy (``PLACEMENT_POLICIES``).
        dependency_mode: ``"stage"`` (barrier edges: the stage runner's
            dependency order) or ``"dataflow"`` (contract-derived edges;
            independent stages overlap).  Even ``"stage"`` with
            ``placement="round_robin"`` does not reproduce
            :class:`~repro.workflow.runner.WorkflowRunner`: contention
            comes from the slots busy when a task starts, not from a
            whole-stage concurrency declaration; the round-robin counter
            carries across stages instead of restarting per stage; and
            a monitor sees one extra ``TaskReady`` event per task.  On
            2 nodes pyflextrkr's makespan is 1.8128 against 1.8173
            simulated seconds, and placements differ on 9 of the 11
            bundled workloads.
        pins: Task → node pins layered over the policy (``dayu-plan``);
            checked against the cluster when the run starts, as in the
            stage runner.
        steal: Enable work stealing.
    """

    def __init__(
        self,
        cluster,
        mapper,
        placement: str = "locality",
        dependency_mode: str = "stage",
        pins: Optional[Mapping[str, str]] = None,
        steal: bool = True,
        path_resolver=None,
        retry_policy: Optional[RetryPolicy] = None,
        faults=None,
    ) -> None:
        super().__init__(cluster, mapper, pins=pins,
                         path_resolver=path_resolver,
                         retry_policy=retry_policy, faults=faults)
        if placement not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement policy {placement!r}")
        self.placement = placement
        self.dependency_mode = dependency_mode
        self.steal = steal
        #: The decision engine of the most recent :meth:`run`.
        self.last_engine: Optional[DataflowScheduler] = None

    # -- construction helpers ------------------------------------------
    def _build_engine(self, workflow: Workflow) -> DataflowScheduler:
        graph = TaskGraph.from_workflow(workflow, mode=self.dependency_mode)
        weights = {name: entry.task.compute_seconds
                   for name, entry in graph.entries.items()
                   if entry.task.compute_seconds > 0}
        return DataflowScheduler(
            graph,
            slots={n.name: n.cpus for n in self.cluster.nodes.values()},
            policy=self.placement,
            priorities=upward_ranks(graph, weights),
            alive=self.cluster.is_alive,
            pins=self.pins,
            steal=self.steal,
        )

    def _refine_edge_volumes(self, engine: DataflowScheduler,
                             name: str) -> None:
        """Replace a finished producer's predicted out-edge volumes with
        the bytes it actually wrote (observed SDG edge volumes)."""
        profile = self.mapper.profiles.get(name)
        if profile is None:
            return
        written: Dict[Tuple[str, str], int] = {}
        for s in profile.dataset_stats:
            if s.bytes_written:
                key = (s.file, s.data_object)
                written[key] = written.get(key, 0) + s.bytes_written
        if not written:
            return
        graph = engine.graph
        for consumer in graph.entries[name].dependents:
            keys = graph.edge_keys.get((name, consumer))
            if not keys:
                continue
            observed = sum(written.get(k, 0) for k in keys)
            if observed:
                graph.volume[(name, consumer)] = observed

    # -- execution ------------------------------------------------------
    def run(self, workflow: Workflow) -> WorkflowResult:
        result = self._begin(workflow)
        engine = self._build_engine(workflow)
        self.last_engine = engine
        monitor = self._monitor
        clock = self.cluster.clock
        policy = self.retry_policy or RetryPolicy(max_attempts=1)

        stage_results: Dict[str, StageResult] = {}
        stage_remaining: Dict[str, int] = {}
        stage_started: Dict[str, bool] = {}
        stage_span: Dict[str, Tuple[float, float]] = {}
        for stage in workflow.stages:
            sr = StageResult(name=stage.name, wall_time=0.0)
            stage_results[stage.name] = sr
            result.stage_results.append(sr)
            stage_remaining[stage.name] = len(stage.tasks)
            stage_started[stage.name] = False

        def note_span(stage_name: str, vstart: float, vfinish: float) -> None:
            lo, hi = stage_span.get(stage_name, (vstart, vfinish))
            stage_span[stage_name] = (min(lo, vstart), max(hi, vfinish))

        if monitor is not None:
            from repro.monitor.events import TaskReady

            def on_ready(name: str, at: float, priority: float) -> None:
                entry = engine.graph.entries[name]
                monitor.publish(TaskReady(time=clock.now, task=name,
                                          stage=entry.stage, at=at,
                                          priority=priority))

            engine.on_ready = on_ready

        attempts: Dict[str, int] = {}
        abort: Optional[BaseException] = None
        try:
            engine.start()
            while True:
                self._poll_faults()
                name = engine.pop_ready()
                if name is None:
                    break
                entry = engine.graph.entries[name]
                sr = stage_results[entry.stage]
                attempt = attempts[name] = attempts.get(name, 0) + 1
                if attempt > 1:
                    delay = self._backoff(policy, attempt)
                    previous = engine.placement[name]
                assignment = engine.assign(name)
                node = assignment.node
                if not stage_started[entry.stage]:
                    stage_started[entry.stage] = True
                    self._stage_started(entry.stage)
                if attempt > 1:
                    self._retried(sr, name, attempt, delay, node, previous)
                if assignment.stolen_from is not None and monitor is not None:
                    from repro.monitor.events import TaskStolen

                    monitor.publish(TaskStolen(
                        time=clock.now, task=name, node=node,
                        victim=assignment.stolen_from,
                        saved=assignment.saved))
                final = attempt >= policy.max_attempts

                counts = engine.busy_counts(assignment.vstart)
                counts[node] = counts.get(node, 0) + 1
                self.cluster.set_stage_concurrency(counts)
                elapsed, exc = self._attempt(entry.task, node, attempt, final)
                self.cluster.reset_concurrency()
                if exc is not None:
                    if not final:
                        engine.fail(name, elapsed=elapsed,
                                    backoff=policy.backoff(attempt + 1))
                        continue
                    engine.fail(name, elapsed=elapsed, terminal=True,
                                release=entry.best_effort)
                    self._record_failure(sr, name, node, attempt, exc)
                    if not entry.best_effort:
                        abort = exc
                        break
                    continue
                vfinish = engine.complete(name, elapsed)
                self._refine_edge_volumes(engine, name)
                sr.task_durations[name] = vfinish - assignment.vstart
                sr.attempts[name] = attempt
                sr.placement[name] = node
                note_span(entry.stage, assignment.vstart, vfinish)
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
                    if stage_started[stage.name]:
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
            result.profiles = dict(self.mapper.profiles)
        if abort is not None:
            raise abort
        return result

    # -- helpers --------------------------------------------------------
    def _close_stage(self, sr: StageResult,
                     stage_span: Dict[str, Tuple[float, float]]) -> None:
        span = stage_span.get(sr.name)
        if span is None:
            return
        sr.started_at, sr.finished_at = span
        sr.wall_time = span[1] - span[0]
