"""Event-driven per-task dataflow scheduler (ROADMAP item 1).

The stage-at-a-time runner dispatches one stage, waits for every task in
it, then places the next stage — placement is decided once per stage and
a single straggler holds the whole barrier.  This module replaces that
with a Dask-class event-driven core:

- **Per-task state machine** — every task moves ``waiting → ready →
  running → memory``/``failed`` (plus ``cancelled`` for tasks released
  by an abort).  A failed *attempt* transitions ``running → ready`` with
  its retry backoff folded into the ready time, so the PR 5
  retry/backoff/re-placement logic lives in the state machine instead of
  a runner-local loop.
- **Ready heap keyed by the cost model** — ready tasks are popped
  highest *upward rank* first (HEFT-style: a task's weight plus the
  heaviest downstream chain hanging off it), with weights taken from a
  PR 8 :class:`~repro.lint.cost.CostReport` when one is supplied and
  from modeled compute seconds otherwise.  Every pop is O(log n), which
  is what keeps per-decision overhead sub-millisecond at 100k tasks
  (``BENCH_scheduler.json``).
- **Data-locality placement** — a task is placed on the node holding
  the most of its input bytes, computed from predicted/observed SDG edge
  volumes (the paper's fig11 co-scheduling, generalized), falling back
  to the least-loaded alive node.  Dead nodes are never chosen; a
  cluster with zero survivors raises
  :class:`~repro.workflow.scheduler.NoAliveNodesError`.
- **Work stealing** — when the locality-preferred node's slots are all
  busy and another alive node would start the task earlier by more than
  ``steal_margin`` virtual seconds, the idle node steals it
  (:class:`~repro.monitor.events.TaskStolen`).
- **Speculative re-execution** — a completed task whose duration
  dwarfs the running median is re-executed on another node and the
  earlier virtual finish wins (:class:`~repro.monitor.events
  .TaskSpeculated`), bounding straggler damage.

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
    RETRY_BACKOFF_ACCOUNT,
    RetryPolicy,
    StageResult,
    TaskFailure,
    TaskRuntime,
    WorkflowResult,
    WorkflowRunner,
    _describe,
)
from repro.workflow.scheduler import NoAliveNodesError

__all__ = [
    "TaskState",
    "TERMINAL_STATES",
    "TaskEntry",
    "TaskGraph",
    "upward_ranks",
    "Assignment",
    "SpeculationPolicy",
    "DataflowScheduler",
    "SimulatedSchedule",
    "DataflowRunner",
]

PLACEMENT_POLICIES = ("locality", "least_loaded", "round_robin", "co_locate")


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
    """

    def __init__(self) -> None:
        self.entries: Dict[str, TaskEntry] = {}
        #: Predicted/observed bytes the consumer pulls from the producer.
        self.volume: Dict[Tuple[str, str], int] = {}
        #: (file, dataset) keys behind each dataflow edge — what lets the
        #: runner refine predicted volumes with observed written bytes.
        self.edge_keys: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}

    # -- direct construction -------------------------------------------
    def add_task(self, name: str, stage: str = "", stage_index: int = 0,
                 best_effort: bool = False,
                 task: Optional[Task] = None) -> TaskEntry:
        if name in self.entries:
            raise ValueError(f"duplicate task {name!r}")
        entry = TaskEntry(name=name, stage=stage, stage_index=stage_index,
                          best_effort=best_effort, task=task)
        self.entries[name] = entry
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
    def from_workflow(cls, workflow: Workflow, mode: str = "stage",
                      contracts=None) -> "TaskGraph":
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
        graph._add_dataflow_edges(workflow, stages, contracts)
        return graph

    def _add_dataflow_edges(self, workflow: Workflow, stages: List[Stage],
                            contracts) -> None:
        from repro.lint.predict import access_bytes, build_static_context

        ctx = build_static_context(workflow, contracts)
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
        """Kahn order (insertion-order deterministic); raises on cycles."""
        indeg = {n: len(e.deps) for n, e in self.entries.items()}
        frontier = [n for n, d in indeg.items() if d == 0]
        out: List[str] = []
        head = 0
        while head < len(frontier):
            name = frontier[head]
            head += 1
            out.append(name)
            for d in self.entries[name].dependents:
                indeg[d] -= 1
                if indeg[d] == 0:
                    frontier.append(d)
        if len(out) != len(self.entries):
            stuck = sorted(n for n, d in indeg.items() if d > 0)
            raise ValueError(
                f"task graph has a dependency cycle through {stuck[:6]}")
        return out


def upward_ranks(graph: TaskGraph,
                 weights: Optional[Mapping[str, float]] = None,
                 default_weight: float = 1.0) -> Dict[str, float]:
    """HEFT-style priority: a task's weight plus its heaviest downstream
    chain.  Scheduling high ranks first keeps the critical path moving."""
    weights = weights or {}
    ranks: Dict[str, float] = {}
    for name in reversed(graph.topological_order()):
        entry = graph.entries[name]
        downstream = max((ranks[d] for d in entry.dependents), default=0.0)
        ranks[name] = weights.get(name, default_weight) + downstream
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


@dataclass(frozen=True)
class SpeculationPolicy:
    """When to launch a backup copy of a straggler.

    A completed task is a straggler when its duration exceeds
    ``factor`` × the running median over at least ``min_samples``
    completed tasks and is at least ``min_seconds`` long.
    """

    factor: float = 2.0
    min_samples: int = 3
    min_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise ValueError("speculation factor must be > 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


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
            dead node is released, exactly like
            :class:`~repro.workflow.scheduler.PinnedScheduler`.
        steal: Enable work stealing.
        steal_margin: Minimum virtual seconds an idle node must save
            before it may steal a task from its preferred node.
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
        steal_margin: float = 1e-9,
    ) -> None:
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement policy {policy!r}; "
                             f"expected one of {PLACEMENT_POLICIES}")
        if not slots:
            raise ValueError("scheduler needs at least one node")
        self.graph = graph
        self.policy = policy
        self.steal = steal
        self.steal_margin = steal_margin
        self.pins = dict(pins or {})
        self._alive = alive or (lambda node: True)
        self._node_order = list(slots)
        self._slots: Dict[str, List[float]] = {
            node: [0.0] * max(int(n), 1) for node, n in slots.items()}
        if priorities is None:
            priorities = upward_ranks(graph)
        else:
            graph.topological_order()  # still validates acyclicity
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
        self.ready_at[name] = max(self.ready_at[name], at)
        self._seq += 1
        heapq.heappush(self._heap, (-self.priority.get(name, 0.0),
                                    self._seq, name))
        if self.on_ready is not None:
            self.on_ready(name, self.ready_at[name],
                          self.priority.get(name, 0.0))

    def pop_ready(self) -> Optional[str]:
        """Highest-priority ready task, or None when the heap drains."""
        while self._heap:
            _, _, name = heapq.heappop(self._heap)
            if self.state[name] is TaskState.READY:
                return name
        return None

    # -- placement ------------------------------------------------------
    def _alive_nodes(self, what: str) -> List[str]:
        alive = [n for n in self._node_order if self._alive(n)]
        if not alive:
            dead = [n for n in self._node_order if not self._alive(n)]
            raise NoAliveNodesError(dead, what)
        return alive

    def _slot_head(self, node: str) -> float:
        """Earliest slot free time; +inf when every slot of the node is
        occupied by an in-flight (not yet completed) task."""
        slot_heap = self._slots[node]
        return slot_heap[0] if slot_heap else math.inf

    def _least_loaded(self, alive: List[str],
                      exclude: Optional[str] = None) -> Optional[str]:
        """Alive node with the earliest free slot, or None when every
        candidate is fully in flight."""
        best = None
        best_t = math.inf
        for node in alive:
            if node == exclude:
                continue
            t = self._slot_head(node)
            if t < best_t:
                best, best_t = node, t
        return best

    def _preferred_node(self, name: str, alive: List[str]) -> Tuple[str, bool]:
        """(node, hard) — hard placements (live pins) are never stolen."""
        pin = self.pins.get(name)
        if pin is not None and pin in self._slots and self._alive(pin):
            return pin, True
        if self.policy == "co_locate":
            return alive[0], False
        if self.policy == "round_robin":
            node = alive[self._rr % len(alive)]
            self._rr += 1
            return node, False
        if self.policy == "locality":
            # Input bytes per producing node; arg-max is deterministic
            # because ties resolve in node definition order.
            tally: Dict[str, int] = {}
            for dep in self.graph.entries[name].deps:
                node = self.placement.get(dep)
                if node is None or not self._alive(node):
                    continue
                nbytes = self.graph.volume.get((dep, name), 0)
                if nbytes > 0:
                    tally[node] = tally.get(node, 0) + nbytes
            best, best_bytes = None, 0
            for node in alive:
                nbytes = tally.get(node, 0)
                if nbytes > best_bytes:
                    best, best_bytes = node, nbytes
            if best is not None:
                return best, False
        return self._least_loaded(alive) or alive[0], False

    def assign(self, name: str) -> Assignment:
        """Place one popped ready task and occupy its slot."""
        if self.state[name] is not TaskState.READY:
            raise RuntimeError(f"cannot assign {name!r} in state "
                               f"{self.state[name].value}")
        alive = self._alive_nodes(f"task {name!r}")
        ready = self.ready_at[name]
        node, hard = self._preferred_node(name, alive)
        stolen_from: Optional[str] = None
        saved = 0.0
        if self.steal and not hard and len(alive) > 1:
            t_pref = max(ready, self._slot_head(node))
            thief = self._least_loaded(alive, exclude=node)
            if thief is not None:
                t_thief = max(ready, self._slot_head(thief))
                if t_thief + self.steal_margin < t_pref:
                    stolen_from, node = node, thief
                    saved = t_pref - t_thief
                    self.steals += 1
        if not self._slots[node]:
            # Every slot of the chosen node holds an in-flight task
            # whose finish is still unknown — reroute to a node with a
            # free slot rather than inventing a start time.
            alt = self._least_loaded(alive, exclude=node)
            if alt is None or not self._slots[alt]:
                raise RuntimeError(
                    f"cannot assign {name!r}: every slot of every alive "
                    f"node holds an in-flight task (complete or fail one "
                    f"first)")
            if not hard and stolen_from is None:
                stolen_from, saved = node, 0.0
                self.steals += 1
            node = alt
        slot_free = heapq.heappop(self._slots[node])
        vstart = max(ready, slot_free)
        self._pending_slot[name] = vstart
        self.state[name] = TaskState.RUNNING
        self.placement[name] = node
        self.vstart[name] = vstart
        self.decisions += 1
        return Assignment(task=name, node=node, vstart=vstart,
                          stolen_from=stolen_from, saved=saved)

    def peek_extra_slot(self, exclude: str) -> Optional[Tuple[str, float]]:
        """Earliest free slot on an alive node other than ``exclude`` —
        where a speculative backup copy would run."""
        alive = [n for n in self._node_order
                 if self._alive(n) and n != exclude]
        node = self._least_loaded(alive) if alive else None
        if node is None or not self._slots[node]:
            return None
        return node, self._slot_head(node)

    def occupy_slot(self, node: str) -> float:
        """Claim ``node``'s earliest slot (speculative copies)."""
        return heapq.heappop(self._slots[node])

    def release_slot(self, node: str, until: float) -> None:
        heapq.heappush(self._slots[node], until)

    # -- transitions ----------------------------------------------------
    def complete(self, name: str, duration: float,
                 extra_finish: Optional[float] = None) -> float:
        """``running → memory``; returns the virtual finish time.

        ``extra_finish`` is a speculative backup copy's virtual finish;
        the earlier of the two wins.
        """
        vstart = self._require_running(name)
        vfinish = vstart + max(duration, 0.0)
        if extra_finish is not None:
            vfinish = min(vfinish, extra_finish)
        node = self.placement[name]
        heapq.heappush(self._slots[node], vfinish)
        self.state[name] = TaskState.MEMORY
        self.vfinish[name] = vfinish
        self.makespan = max(self.makespan, vfinish)
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
        for dep in self.graph.entries[name].dependents:
            self._indeg[dep] -= 1
            self.ready_at[dep] = max(self.ready_at[dep], at)
            if self._indeg[dep] == 0 and self.state[dep] is TaskState.WAITING:
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
        contracts: Optional pre-extracted workflow contracts for
            ``dataflow`` mode (defaults to running the AST extractor).
        cost_report: Optional PR 8 cost report; its per-task predicted
            seconds weight the ready-heap priorities.
        pins: Task → node pins layered over the policy (``dayu-plan``).
        steal: Enable work stealing.
        speculation: Optional :class:`SpeculationPolicy` enabling
            speculative re-execution of stragglers.
    """

    def __init__(
        self,
        cluster,
        mapper,
        placement: str = "locality",
        dependency_mode: str = "stage",
        contracts=None,
        cost_report=None,
        pins: Optional[Mapping[str, str]] = None,
        steal: bool = True,
        speculation: Optional[SpeculationPolicy] = None,
        path_resolver=None,
        retry_policy: Optional[RetryPolicy] = None,
        faults=None,
    ) -> None:
        super().__init__(cluster, mapper, scheduler=None,
                         path_resolver=path_resolver,
                         retry_policy=retry_policy, faults=faults)
        if placement not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement policy {placement!r}")
        self.placement = placement
        self.dependency_mode = dependency_mode
        self.contracts = contracts
        self.cost_report = cost_report
        self.pins = dict(pins or {})
        self.steal = steal
        self.speculation = speculation
        #: The decision engine of the most recent :meth:`run`.
        self.last_engine: Optional[DataflowScheduler] = None

    # -- construction helpers ------------------------------------------
    def _task_weights(self, graph: TaskGraph) -> Dict[str, float]:
        if self.cost_report is not None:
            return {name: t.total_seconds
                    for name, t in self.cost_report.tasks.items()}
        return {
            name: entry.task.compute_seconds
            for name, entry in graph.entries.items()
            if entry.task is not None and entry.task.compute_seconds > 0
        }

    def _build_engine(self, workflow: Workflow) -> DataflowScheduler:
        graph = TaskGraph.from_workflow(
            workflow, mode=self.dependency_mode, contracts=self.contracts)
        ranks = upward_ranks(graph, self._task_weights(graph))
        return DataflowScheduler(
            graph,
            slots={n.name: n.cpus for n in self.cluster.nodes.values()},
            policy=self.placement,
            priorities=ranks,
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
        workflow.validate()
        result = WorkflowResult(workflow=workflow.name)
        self.last_result = result
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

        def publish(event) -> None:
            if monitor is not None:
                monitor.publish(event)

        def stage_begin(stage_name: str) -> None:
            if not stage_started[stage_name]:
                stage_started[stage_name] = True
                from repro.monitor.events import StageStarted

                publish(StageStarted(time=clock.now, task=None,
                                     stage=stage_name))

        def note_span(stage_name: str, vstart: float, vfinish: float) -> None:
            lo, hi = stage_span.get(stage_name, (vstart, vfinish))
            stage_span[stage_name] = (min(lo, vstart), max(hi, vfinish))

        def stage_end(stage_name: str, failed: bool) -> None:
            sr = stage_results[stage_name]
            from repro.monitor.events import StageFinished

            publish(StageFinished(time=clock.now, task=None, stage=stage_name,
                                  wall_time=sr.wall_time, failed=failed))

        if monitor is not None:
            from repro.monitor.events import TaskReady

            def on_ready(name: str, at: float, priority: float) -> None:
                entry = engine.graph.entries[name]
                publish(TaskReady(time=clock.now, task=name,
                                  stage=entry.stage, at=at,
                                  priority=priority))

            engine.on_ready = on_ready

        attempts: Dict[str, int] = {}
        last_node: Dict[str, str] = {}
        completed_durations: List[float] = []
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
                attempt = attempts.get(name, 0) + 1
                attempts[name] = attempt
                if attempt > 1:
                    delay = policy.backoff(attempt)
                    if delay > 0:
                        clock.advance(delay, account=RETRY_BACKOFF_ACCOUNT)
                    self._poll_faults()
                assignment = engine.assign(name)
                node = assignment.node
                stage_begin(entry.stage)
                if attempt > 1:
                    sr.retries += 1
                    from repro.monitor.events import TaskRetried

                    publish(TaskRetried(
                        time=clock.now, task=name, attempt=attempt,
                        backoff=policy.backoff(attempt), node=node,
                        previous_node=last_node.get(name, "")))
                if assignment.stolen_from is not None:
                    from repro.monitor.events import TaskStolen

                    publish(TaskStolen(
                        time=clock.now, task=name, node=node,
                        victim=assignment.stolen_from,
                        saved=assignment.saved))
                last_node[name] = node
                final = attempt >= policy.max_attempts

                if not self.cluster.is_alive(node):
                    exc: BaseException = _dead_node_error(name, node)
                    self._publish_failed(name, node, attempt, exc, final,
                                         started=False)
                    self._settle_failure(engine, entry, sr, name, node,
                                         attempts, exc, final, policy,
                                         elapsed=0.0)
                    if final and not entry.best_effort:
                        abort = exc
                        break
                    continue

                counts = engine.busy_counts(assignment.vstart)
                counts[node] = counts.get(node, 0) + 1
                self.cluster.set_stage_concurrency(counts)
                start = clock.now
                try:
                    with self.mapper.task(name) as ctx:
                        runtime = TaskRuntime(
                            self.cluster, ctx, entry.task, node,
                            path_resolver=self.path_resolver)
                        if entry.task.compute_seconds:
                            runtime.compute(entry.task.compute_seconds)
                        entry.task.fn(runtime)
                except Exception as exc:
                    self.cluster.reset_concurrency()
                    self._publish_failed(name, node, attempt, exc, final)
                    self._settle_failure(engine, entry, sr, name, node,
                                         attempts, exc, final, policy,
                                         elapsed=clock.now - start)
                    if final and not entry.best_effort:
                        abort = exc
                        break
                    continue
                self.cluster.reset_concurrency()
                duration = clock.now - start
                extra_finish = self._maybe_speculate(
                    engine, entry, name, node, duration, completed_durations)
                vfinish = engine.complete(name, duration,
                                          extra_finish=extra_finish)
                self._refine_edge_volumes(engine, name)
                effective = vfinish - assignment.vstart
                completed_durations.append(duration)
                sr.task_durations[name] = effective
                sr.attempts[name] = attempt
                sr.placement[name] = engine.placement[name]
                note_span(entry.stage, assignment.vstart, vfinish)
                stage_remaining[entry.stage] -= 1
                if stage_remaining[entry.stage] == 0:
                    self._close_stage(sr, stage_span)
                    stage_end(entry.stage, failed=False)
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
                        stage_end(stage.name, failed=sr.aborted)
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

    def _settle_failure(self, engine: DataflowScheduler, entry: TaskEntry,
                        sr: StageResult, name: str, node: str,
                        attempts: Dict[str, int], exc: BaseException,
                        final: bool, policy: RetryPolicy,
                        elapsed: float) -> None:
        if final:
            engine.fail(name, elapsed=elapsed, terminal=True,
                        release=entry.best_effort)
            sr.attempts[name] = attempts[name]
            sr.placement[name] = node
            sr.failures[name] = TaskFailure(
                task=name, node=node, attempts=attempts[name],
                error=_describe(exc), time=self.cluster.clock.now)
        else:
            engine.fail(name, elapsed=elapsed,
                        backoff=policy.backoff(attempts[name] + 1),
                        terminal=False)

    def _maybe_speculate(self, engine: DataflowScheduler, entry: TaskEntry,
                         name: str, node: str, duration: float,
                         completed: List[float]) -> Optional[float]:
        """Re-execute a straggler on another node; returns the backup
        copy's virtual finish (or None when no backup ran)."""
        spec = self.speculation
        if spec is None or len(completed) < spec.min_samples:
            return None
        if duration < spec.min_seconds:
            return None
        median = sorted(completed)[len(completed) // 2]
        if median <= 0 or duration <= spec.factor * median:
            return None
        peek = engine.peek_extra_slot(exclude=node)
        if peek is None:
            return None
        alt, slot_head = peek
        slot_free = engine.occupy_slot(alt)
        clock = self.cluster.clock
        start = clock.now
        # The probe runs under a throwaway mapper: its I/O pays real
        # device costs on the shared clock (speculation is not free),
        # but it must not pollute profiles, graphs, or live events.
        from repro.mapper.mapper import DataSemanticMapper

        probe = DataSemanticMapper(clock, self.mapper.config)
        try:
            with probe.task(name) as ctx:
                runtime = TaskRuntime(self.cluster, ctx, entry.task, alt,
                                      path_resolver=self.path_resolver)
                if entry.task.compute_seconds:
                    runtime.compute(entry.task.compute_seconds)
                entry.task.fn(runtime)
        except Exception:
            engine.release_slot(alt, slot_free)
            return None
        backup_duration = clock.now - start
        spec_start = max(engine.vstart[name], slot_free)
        spec_finish = spec_start + backup_duration
        engine.release_slot(alt, spec_finish)
        original_finish = engine.vstart[name] + duration
        if self._monitor is not None:
            from repro.monitor.events import TaskSpeculated

            self._monitor.publish(TaskSpeculated(
                time=clock.now, task=name, node=node,
                speculative_node=alt, original_seconds=duration,
                speculative_seconds=backup_duration,
                won=spec_finish < original_finish))
        return spec_finish


def _dead_node_error(task: str, node: str):
    from repro.posix.simfs import FsError

    return FsError(f"task {task!r} placed on dead node {node!r}")
