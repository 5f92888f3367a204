"""Typed events published onto the monitor bus.

The vocabulary mirrors the two capture layers plus the runner:

- object-level semantics (VOL): file open/close, dataset open/close,
  dataset read/write accesses;
- byte-level I/O (VFD): one :class:`VfdOp` per low-level operation, with
  the ``recorded`` flag marking operations that also entered the saved
  per-op trace (``trace_io``/``skip_ops`` may subsample the trace; the
  live stream always sees everything);
- lifecycle (mapper/runner): task and stage start/finish.  A
  :class:`TaskFinished` event carries the task's finished
  :class:`~repro.mapper.mapper.TaskProfile` — the unit the online
  aggregator feeds to the incremental graph builder, which is what makes
  the end-of-run live snapshot byte-identical to the post-hoc build.

Lifecycle events are *critical*: the bus delivers them under every
backpressure policy (only the high-rate VOL/VFD events are droppable or
sampled), so a lossy dynamics subscriber still sees a complete and
correctly ordered task timeline.

Events are immutable by convention, not by ``frozen=True``: one instance
is shared by every subscriber and must never be mutated, but frozen
dataclasses construct through ``object.__setattr__`` (~4x slower), and
construction sits on the tracers' per-operation hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.vfd.base import IoClass

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.mapper.mapper import TaskProfile

__all__ = [
    "MonitorEvent",
    "TaskStarted",
    "TaskFinished",
    "TaskFailed",
    "TaskRetried",
    "TaskReady",
    "TaskStolen",
    "NodeFailed",
    "StageStarted",
    "StageFinished",
    "FileOpened",
    "FileClosed",
    "DatasetOpened",
    "DatasetClosed",
    "DatasetAccess",
    "VfdOp",
    "CRITICAL_KINDS",
]


@dataclass(slots=True)
class MonitorEvent:
    """Base event: when it happened (sim clock) and which task caused it."""

    time: float
    task: Optional[str]

    kind = "event"


@dataclass(slots=True)
class TaskStarted(MonitorEvent):
    kind = "task_started"


@dataclass(slots=True)
class TaskFinished(MonitorEvent):
    """A task completed and its joined profile is final."""

    profile: "TaskProfile" = None  # type: ignore[assignment]

    kind = "task_finished"


@dataclass(slots=True)
class TaskFailed(MonitorEvent):
    """A task attempt raised; its partial profile was discarded.

    Published once per failed *attempt* (a task retried three times that
    ultimately succeeds yields two ``task_failed`` + one ``task_finished``).
    ``fatal`` is True when no further attempt will be made — either the
    retry budget is exhausted on a best-effort stage (the run degrades) or
    the failure aborts the workflow."""

    error: str = ""
    node: str = ""
    attempt: int = 1
    fatal: bool = False
    #: False when the attempt never started (e.g. its node was already
    #: dead), so no ``task_started`` was published for it — consumers must
    #: not decrement a running count for such attempts.
    started: bool = True

    kind = "task_failed"


@dataclass(slots=True)
class TaskRetried(MonitorEvent):
    """The runner is about to re-attempt a failed task after backoff."""

    attempt: int = 2
    backoff: float = 0.0
    node: str = ""
    #: Node of the previous (failed) attempt, when re-placement moved it.
    previous_node: str = ""

    kind = "task_retried"


@dataclass(slots=True)
class TaskReady(MonitorEvent):
    """Every dependency of a task reached memory: it entered the ready
    heap of the event-driven scheduler (:mod:`repro.workflow.dscheduler`).
    Published under dataflow dependencies only: a barrier stage's tasks
    all become ready when ``StageStarted`` reports the stage.

    ``at`` is the *virtual* time the task became runnable (max over its
    dependencies' virtual finishes, plus any retry backoff); ``time``
    stays the raw simulated clock like every other event."""

    stage: str = ""
    #: Virtual (overlapped-schedule) time the task became ready.
    at: float = 0.0
    #: Scheduling priority (cost-model upward rank) it was enqueued with.
    priority: float = 0.0

    kind = "task_ready"


@dataclass(slots=True)
class TaskStolen(MonitorEvent):
    """An idle node stole a task from its busy locality-preferred node.

    Published by the event scheduler when work stealing re-routes a
    ready task: ``victim`` is the node locality placement wanted (whose
    slots were all busy), ``node`` the idle thief that runs it instead,
    ``saved`` the virtual seconds of queue wait the steal avoided."""

    node: str = ""
    victim: str = ""
    saved: float = 0.0

    kind = "task_stolen"


@dataclass(slots=True)
class NodeFailed(MonitorEvent):
    """A cluster node died; its node-local tiers died with it."""

    node: str = ""

    kind = "node_failed"


@dataclass(slots=True)
class StageStarted(MonitorEvent):
    stage: str = ""

    kind = "stage_started"


@dataclass(slots=True)
class StageFinished(MonitorEvent):
    stage: str = ""
    wall_time: float = 0.0
    #: True when the stage aborted (a task exhausted its attempts on a
    #: non-best-effort stage); ``wall_time`` then covers the completed
    #: portion.  Best-effort stages finish with ``failed=False`` even when
    #: tasks were lost — the per-task ``task_failed`` events carry those.
    failed: bool = False

    kind = "stage_finished"


@dataclass(slots=True)
class FileOpened(MonitorEvent):
    file: str = ""

    kind = "file_opened"


@dataclass(slots=True)
class FileClosed(MonitorEvent):
    file: str = ""

    kind = "file_closed"


@dataclass(slots=True)
class DatasetOpened(MonitorEvent):
    file: str = ""
    data_object: str = ""
    shape: Tuple[int, ...] = ()
    dtype: str = ""
    layout: str = ""
    nbytes: int = 0

    kind = "dataset_opened"


@dataclass(slots=True)
class DatasetClosed(MonitorEvent):
    file: str = ""
    data_object: str = ""

    kind = "dataset_closed"


@dataclass(slots=True)
class DatasetAccess(MonitorEvent):
    """One VOL-layer dataset read or write (element granularity)."""

    file: str = ""
    data_object: str = ""
    op: str = "read"
    elements: int = 0
    nbytes: int = 0

    kind = "dataset_access"


@dataclass(slots=True)
class VfdOp(MonitorEvent):
    """One VFD-layer I/O operation (byte granularity)."""

    file: str = ""
    op: str = "read"
    offset: int = 0
    nbytes: int = 0
    start: float = 0.0
    duration: float = 0.0
    io_class: IoClass = IoClass.RAW
    data_object: Optional[str] = None
    #: True when this operation also entered the saved per-op trace
    #: (``trace_io`` on and past ``skip_ops``) — the subset the post-hoc
    #: engine sees, and therefore the subset streaming lint mirrors.
    recorded: bool = True

    kind = "vfd_op"


#: Event kinds the bus must deliver under every backpressure policy.
#: Failure events are critical: a lossy dynamics subscriber must still see
#: the complete task/stage/failure timeline, especially under faults —
#: going lossy exactly when the run degrades would blind the observer.
CRITICAL_KINDS = frozenset(
    {"task_started", "task_finished", "task_failed", "task_retried",
     "task_ready", "task_stolen",
     "node_failed", "stage_started", "stage_finished"}
)
