"""What a task sees and what a run reports.

The runner itself is :class:`~repro.workflow.dscheduler.DataflowRunner`;
this module holds the types around it: the :class:`TaskRuntime` a task
body runs against, the :class:`RetryPolicy`, and the
:class:`StageResult`/:class:`WorkflowResult` a run returns.

Time model
----------
All I/O charges the single cluster clock, so running a parallel stage's
tasks one after another accumulates the *sum* of their durations on the
raw clock.  Real parallel execution takes the *max*, with each device
slowed by its contention model.  The runner therefore:

1. declares how many tasks share each node while an attempt runs
   (devices apply their contention factors): a stage-barrier run
   declares the whole stage's per-node counts;
2. runs the attempts sequentially, measuring each one's simulated
   duration;
3. places each attempt on a *virtual* timeline — a node slot frees at
   the attempt's finish, and a task starts once its dependencies finish
   and a slot is free.  A barrier stage's tasks therefore all start when
   the stage opens, and a fault-free stage's wall-clock is the ``max``
   (parallel) or ``sum`` (serial) of its task durations.

The reported workflow/stage wall-clock times — the quantities the paper's
Figures 11 and 12 compare — live in the :class:`WorkflowResult`; the raw
clock keeps its total-work semantics for profile ordering.

Failure model
-------------
Real distributed workflows fail, and the runner treats failure as a
first-class state rather than an abort:

- A task body that raises fails *that attempt*; the mapper discards the
  attempt's partial profile and the runner publishes a ``TaskFailed``
  monitor event.  The failed attempt still occupies its node's slot on
  the virtual timeline.
- With a :class:`RetryPolicy`, failed attempts are re-run after an
  exponential backoff charged to the ``retry_backoff`` clock account
  (application wait time — deliberately *not* a DaYu overhead account)
  and to the virtual timeline.  When the task's node died, the retry is
  re-placed onto a surviving node by the rule that placed it.
- A task that exhausts its attempts on a ``best_effort`` stage is
  recorded in the :class:`StageResult` and the run continues (graceful
  degradation); on an ordinary stage the original exception propagates —
  but only after the partial :class:`StageResult` is preserved on the
  :class:`WorkflowResult` and the ``StageFinished`` event is published
  with ``failed=True``, so monitor bus accounting still reconciles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.mapper.mapper import TaskContext, TaskProfile
from repro.posix.simfs import FsError
from repro.vol.objects import VolFile
from repro.workflow.model import Task

__all__ = [
    "TaskRuntime",
    "RetryPolicy",
    "TaskFailure",
    "StageResult",
    "WorkflowResult",
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

    A retry whose node died is always re-placed onto a surviving node.
    """

    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0

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
    #: Stage span on the workflow's *virtual* timeline, failed attempts
    #: included.  Stage barriers chain stages back to back
    #: (``started_at`` of stage *k* is ``finished_at`` of stage *k-1*);
    #: dataflow dependencies overlap stages, so spans may intersect and
    #: the workflow makespan is the first-start/last-finish envelope,
    #: not the sum of walls.
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Simulated seconds of each completed task's successful attempt.
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

        Stage barriers chain stages, so this equals the sum of stage
        wall-clocks there; dataflow dependencies overlap stages, and
        summing overlapping walls would double-count — the envelope is
        the honest makespan.  The old sum survives as
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
