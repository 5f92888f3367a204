"""Workflow execution on a simulated cluster under DaYu profiling.

Time model
----------
All I/O charges the single cluster clock, so running a parallel stage's
tasks one after another accumulates the *sum* of their durations on the
raw clock.  Real parallel execution takes the *max*, with each device
slowed by its contention model.  The runner therefore:

1. declares the stage's per-node task counts to the cluster (devices apply
   their contention factors);
2. runs the tasks sequentially, measuring each task's simulated duration;
3. reports the stage's wall-clock as ``max`` (parallel) or ``sum``
   (serial) of the task durations.

The reported workflow/stage wall-clock times — the quantities the paper's
Figures 11 and 12 compare — live in the :class:`WorkflowResult`; the raw
clock keeps its total-work semantics for profile ordering.

Failure model
-------------
Real distributed workflows fail, and the runner treats failure as a
first-class state rather than an abort:

- A task body that raises fails *that attempt*; the mapper discards the
  attempt's partial profile and the runner publishes a ``TaskFailed``
  monitor event.
- With a :class:`RetryPolicy`, failed attempts are re-run after an
  exponential backoff charged to the ``retry_backoff`` clock account
  (application wait time — deliberately *not* a DaYu overhead account).
  When the task's node died, the retry is re-placed onto a surviving
  node by the same round-robin-with-pins rule that placed it.
- A task that exhausts its attempts on a ``best_effort`` stage is
  recorded in the :class:`StageResult` and the run continues (graceful
  degradation); on an ordinary stage the original exception propagates —
  but only after the partial :class:`StageResult` is preserved on the
  :class:`WorkflowResult` and the ``StageFinished`` event is published
  with ``failed=True``, so monitor bus accounting still reconciles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.mapper.mapper import DataSemanticMapper, TaskContext, TaskProfile
from repro.posix.simfs import FsError
from repro.vol.objects import VolFile
from repro.workflow.model import Stage, Task, Workflow
from repro.workflow.scheduler import NoAliveNodesError, stage_placement

__all__ = [
    "TaskRuntime",
    "RetryPolicy",
    "TaskFailure",
    "StageResult",
    "WorkflowResult",
    "WorkflowRunner",
]

COMPUTE_ACCOUNT = "compute"
#: Clock account for retry backoff waits.  This is *application* wait
#: time caused by faults, kept out of every DaYu overhead account so the
#: Figure 9/10 breakdowns still isolate pure tracing cost.
RETRY_BACKOFF_ACCOUNT = "retry_backoff"


class TaskRuntime:
    """What a task body sees: instrumented I/O plus cluster context."""

    def __init__(
        self,
        cluster: Cluster,
        ctx: TaskContext,
        task: Task,
        node: str,
        path_resolver: Optional[Callable[[str, str, str], str]] = None,
    ) -> None:
        self.cluster = cluster
        self.ctx = ctx
        self.task = task
        self.node = node
        self.fs = cluster.fs
        self.clock = cluster.clock
        self._path_resolver = path_resolver

    def _resolve(self, path: str, mode: str) -> str:
        """Apply the runner's path resolver (transparent caching hook) and
        enforce node locality on the resolved path."""
        if self._path_resolver is not None:
            path = self._path_resolver(path, mode, self.node)
        owner = self.cluster.owning_node(path)
        if owner is not None and owner != self.node:
            raise FsError(
                f"task {self.task.name!r} on node {self.node!r} cannot access "
                f"{path!r} (local to node {owner!r})"
            )
        return path

    def open(self, path: str, mode: str = "r", **kwargs) -> VolFile:
        """Open an instrumented HDF5-like file; node-local paths are
        checked for locality (a task cannot reach another node's disk)."""
        return self.ctx.open(self.fs, self._resolve(path, mode), mode, **kwargs)

    def open_netcdf(self, path: str, mode: str = "r"):
        """Open an instrumented netCDF-like file (same locality rules)."""
        return self.ctx.open_netcdf(self.fs, self._resolve(path, mode), mode)

    def compute(self, seconds: float) -> None:
        """Model a compute phase of the task."""
        self.clock.advance(seconds, account=COMPUTE_ACCOUNT)

    def local_path(self, tier: str, filename: str) -> str:
        """A path on this task's node-local tier."""
        self.cluster.local_device(self.node, tier)  # validates the tier
        return f"{Cluster.local_prefix(self.node, tier)}/{filename}"


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner re-attempts failed tasks.

    Attributes:
        max_attempts: Total tries per task (1 = no retries).
        backoff_base: Wait before the first retry, in simulated seconds.
        backoff_factor: Exponential growth of the wait per further retry.
        replace: Re-place a retry when the task's node died (surviving
            nodes only); with False the retry stays put and fails again
            immediately on a dead node.
    """

    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    replace: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Wait before ``attempt`` (attempt 2 waits the base delay)."""
        if attempt <= 1:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (attempt - 2)


@dataclass
class TaskFailure:
    """One task that still failed after its full retry budget."""

    task: str
    node: str
    attempts: int
    error: str
    time: float

    def to_json_dict(self) -> dict:
        return {
            "task": self.task,
            "node": self.node,
            "attempts": self.attempts,
            "error": self.error,
            "time": self.time,
        }


@dataclass
class StageResult:
    """Timing of one executed stage."""

    name: str
    wall_time: float
    #: Stage span on the workflow's *virtual* timeline.  Stage-at-a-time
    #: execution chains stages back to back (``started_at`` of stage *k*
    #: is ``finished_at`` of stage *k-1*); the event scheduler overlaps
    #: stages, so spans may intersect and the workflow makespan is the
    #: first-start/last-finish envelope, not the sum of walls.
    started_at: float = 0.0
    finished_at: float = 0.0
    task_durations: Dict[str, float] = field(default_factory=dict)
    placement: Dict[str, str] = field(default_factory=dict)
    #: Tasks lost after retries (best-effort degradation or an abort).
    failures: Dict[str, TaskFailure] = field(default_factory=dict)
    #: Attempts each task consumed (1 = ran clean).  Fed to the DY505
    #: retry-race rule via ``dayu-lint --attempts``.
    attempts: Dict[str, int] = field(default_factory=dict)
    #: Total attempts beyond the first across the stage's tasks.
    retries: int = 0
    #: True when the stage aborted the workflow (non-best-effort failure);
    #: the remaining fields then cover the completed portion.
    aborted: bool = False

    @property
    def total_work(self) -> float:
        return sum(self.task_durations.values())

    @property
    def degraded(self) -> bool:
        """Lost at least one task (but may still have finished)."""
        return bool(self.failures)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_time": self.wall_time,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "task_durations": dict(self.task_durations),
            "placement": dict(self.placement),
            "failures": {t: f.to_json_dict()
                         for t, f in self.failures.items()},
            "attempts": dict(self.attempts),
            "retries": self.retries,
            "aborted": self.aborted,
        }


@dataclass
class WorkflowResult:
    """Timing and profiles of one executed workflow."""

    workflow: str
    stage_results: List[StageResult] = field(default_factory=list)
    profiles: Dict[str, TaskProfile] = field(default_factory=dict)

    @property
    def wall_time(self) -> float:
        """End-to-end makespan: first stage start to last stage finish.

        Stage-at-a-time execution chains stages, so this equals the sum
        of stage wall-clocks there; the event-driven scheduler overlaps
        stages, and summing overlapping walls would double-count — the
        envelope is the honest makespan.  The old sum survives as
        :attr:`serial_time` for stage-barrier comparisons.
        """
        if not self.stage_results:
            return 0.0
        return (max(s.finished_at for s in self.stage_results)
                - min(s.started_at for s in self.stage_results))

    @property
    def serial_time(self) -> float:
        """Sum of stage wall-clocks (the pre-overlap ``wall_time``)."""
        return sum(s.wall_time for s in self.stage_results)

    def stage(self, name: str) -> StageResult:
        for s in self.stage_results:
            if s.name == name:
                return s
        raise KeyError(f"no stage named {name!r}")

    @property
    def failures(self) -> Dict[str, TaskFailure]:
        """Every lost task across all stages."""
        out: Dict[str, TaskFailure] = {}
        for s in self.stage_results:
            out.update(s.failures)
        return out

    @property
    def attempts(self) -> Dict[str, int]:
        """Attempts each task consumed across all stages (1 = clean)."""
        out: Dict[str, int] = {}
        for s in self.stage_results:
            out.update(s.attempts)
        return out

    @property
    def retries(self) -> int:
        return sum(s.retries for s in self.stage_results)

    @property
    def degraded(self) -> bool:
        return any(s.degraded for s in self.stage_results)

    def speedup_over(self, baseline: "WorkflowResult") -> float:
        """``baseline.wall_time / self.wall_time``."""
        if self.wall_time <= 0:
            raise ValueError("cannot compute speedup of a zero-time run")
        return baseline.wall_time / self.wall_time

    def to_json_dict(self) -> dict:
        """Deterministic JSON form (the fixed-seed replay gate compares
        two of these byte-for-byte)."""
        return {
            "workflow": self.workflow,
            "wall_time": self.wall_time,
            "serial_time": self.serial_time,
            "retries": self.retries,
            "degraded": self.degraded,
            "stages": [s.to_json_dict() for s in self.stage_results],
            "tasks_profiled": sorted(self.profiles),
        }


class WorkflowRunner:
    """Executes workflows on a cluster with DaYu's mapper attached.

    Args:
        cluster: The simulated cluster.
        mapper: The Data Semantic Mapper collecting per-task profiles.
        pins: Task name → node name; other tasks go round-robin over the
            alive nodes (:func:`~repro.workflow.scheduler.stage_placement`).
            A pin to a node not in the cluster fails :meth:`run` early.
        retry_policy: Re-attempt failed tasks (default: fail fast).
        faults: Optional :class:`repro.faults.FaultInjector`; the runner
            polls it at stage/task/backoff boundaries so scheduled node
            deaths land at their simulated times.
    """

    def __init__(
        self,
        cluster: Cluster,
        mapper: DataSemanticMapper,
        pins: Optional[Mapping[str, str]] = None,
        path_resolver: Optional[Callable[[str, str, str], str]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        faults=None,
    ) -> None:
        self.cluster = cluster
        self.mapper = mapper
        self.pins = dict(pins or {})
        #: Optional ``(path, mode, node) -> path`` hook applied to every
        #: task open — the transparent-caching integration point.
        self.path_resolver = path_resolver
        self.retry_policy = retry_policy
        self.faults = faults
        #: The (possibly partial) result of the most recent :meth:`run` —
        #: still populated when the run aborted mid-workflow.
        self.last_result: Optional[WorkflowResult] = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def _monitor(self):
        return getattr(self.mapper, "monitor", None)

    def _poll_faults(self) -> None:
        if self.faults is not None:
            self.faults.poll()

    def _alive_nodes(self, what: str) -> List[str]:
        nodes = self.cluster.alive_node_names()
        if not nodes:
            raise NoAliveNodesError(self.cluster.dead_nodes, what)
        return nodes

    def _replacement_node(self, stage: Stage, task: Task) -> str:
        """A surviving node for a retry whose original node died."""
        nodes = self._alive_nodes(f"retry of {task.name!r}")
        return stage_placement(stage, nodes, self.pins)[task.name]

    def _begin(self, workflow: Workflow) -> WorkflowResult:
        """Validate ``workflow`` and the pins; start :attr:`last_result`."""
        workflow.validate()
        for task, node in self.pins.items():
            if node not in self.cluster.nodes:
                raise KeyError(f"task {task!r} is pinned to node {node!r}, "
                               f"which is not in the cluster")
        self.last_result = result = WorkflowResult(workflow=workflow.name)
        return result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, workflow: Workflow) -> WorkflowResult:
        result = self._begin(workflow)
        try:
            for stage in workflow.stages:
                self._run_stage(stage, result)
        finally:
            # Even an aborted run keeps the profiles of every completed
            # task — the partial result stays analyzable.
            result.profiles = dict(self.mapper.profiles)
        return result

    def _run_stage(self, stage: Stage, result: WorkflowResult) -> StageResult:
        self._poll_faults()
        started_at = (result.stage_results[-1].finished_at
                      if result.stage_results else 0.0)
        try:
            nodes = self._alive_nodes(f"stage {stage.name!r}")
        except NoAliveNodesError:
            # Total cluster death before the stage could start: record the
            # stage as aborted-empty so the partial result stays honest,
            # then let the typed error propagate as a clean abort.
            result.stage_results.append(StageResult(
                name=stage.name, wall_time=0.0, started_at=started_at,
                finished_at=started_at, aborted=True))
            raise
        placement = stage_placement(stage, nodes, self.pins)
        self._stage_started(stage.name)

        if stage.parallel:
            per_node: Dict[str, int] = {}
            for node in placement.values():
                per_node[node] = per_node.get(node, 0) + 1
            self.cluster.set_stage_concurrency(per_node)

        stage_result = StageResult(
            name=stage.name, wall_time=0.0, started_at=started_at,
            placement=placement)
        # Appended up-front: an abort below still leaves the partial
        # stage timings on the workflow result.
        result.stage_results.append(stage_result)
        abort: Optional[BaseException] = None
        try:
            for task in stage.tasks:
                try:
                    duration, exc = self._run_task(stage, task, stage_result)
                except NoAliveNodesError as err:
                    # Re-placement found zero survivors: clean abort —
                    # the partial stage timings below stay on the result.
                    abort = err
                    break
                if exc is None:
                    stage_result.task_durations[task.name] = duration
                elif not stage.best_effort:
                    abort = exc
                    break
        finally:
            self.cluster.reset_concurrency()
            durations = stage_result.task_durations
            if stage.parallel:
                stage_result.wall_time = max(durations.values(), default=0.0)
            else:
                stage_result.wall_time = sum(durations.values())
            stage_result.finished_at = started_at + stage_result.wall_time
            stage_result.aborted = abort is not None
            self._stage_finished(stage_result)
        if abort is not None:
            raise abort
        return stage_result

    def _run_task(self, stage: Stage, task: Task, stage_result: StageResult):
        """Run one task under the retry policy, retrying inline.

        Returns ``(duration, None)`` on success or ``(None, last
        exception)`` once the attempt budget is spent; the loss is then
        recorded on ``stage_result``.
        """
        policy = self.retry_policy or RetryPolicy(max_attempts=1)
        placement = stage_result.placement
        node = placement[task.name]
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                delay = self._backoff(policy, attempt)
                previous = node
                if policy.replace and not self.cluster.is_alive(node):
                    node = placement[task.name] = self._replacement_node(
                        stage, task)
                self._retried(stage_result, task.name, attempt, delay, node,
                              previous)
            else:
                self._poll_faults()
            duration, exc = self._attempt(task, node, attempt,
                                          attempt == policy.max_attempts)
            if exc is None:
                stage_result.attempts[task.name] = attempt
                return duration, None
        self._record_failure(stage_result, task.name, node, attempt, exc)
        return None, exc

    # ------------------------------------------------------------------
    # One attempt of a task, shared by both engines
    # ------------------------------------------------------------------
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


def _describe(exc: Optional[BaseException]) -> str:
    if exc is None:
        return ""
    return f"{type(exc).__name__}: {exc}"
