"""The workflow execution engine.

Distributed scientific workflows are stages of tasks with data dependencies
carried through shared files.  This package provides:

- :class:`~repro.workflow.model.Task` / ``Stage`` / ``Workflow`` — the
  workflow description;
- :func:`~repro.workflow.scheduler.stage_placement` — round-robin
  placement with task → node pins on top; the co-scheduling moves DaYu's
  analysis recommends and ``dayu-plan`` plans are pins;
- :mod:`~repro.workflow.dscheduler` — the execution engine: an
  event-driven per-task scheduler (ready heap, data-locality placement
  from SDG edge volumes, work stealing, retries re-entering the ready
  heap of a per-task state machine) and
  :class:`~repro.workflow.dscheduler.DataflowRunner`, which executes a
  workflow on a simulated cluster under DaYu profiling with stage
  barriers (parallel-stage wall-clock is the max of task durations with
  device contention applied) or dataflow dependencies;
- :mod:`~repro.workflow.runner` — the task runtime, retry policy and
  result types;
- :mod:`~repro.workflow.contracts` — ahead-of-time access contracts:
  the datasets a task commits to reading/writing, declared at
  construction or inferred from source by :mod:`repro.lint.static`.
"""

from repro.workflow.contracts import (
    ContractAccess,
    ContractError,
    TaskContract,
    creates,
    opens,
    reads,
    reconcile,
    validate_contract,
    writes,
)
from repro.workflow.dscheduler import (
    DataflowRunner,
    DataflowScheduler,
    TaskGraph,
    TaskState,
    upward_ranks,
)
from repro.workflow.model import Stage, Task, Workflow
from repro.workflow.runner import (
    RetryPolicy,
    StageResult,
    TaskFailure,
    TaskRuntime,
    WorkflowResult,
)
from repro.workflow.scheduler import NoAliveNodesError, stage_placement

__all__ = [
    "Task",
    "Stage",
    "Workflow",
    "WorkflowResult",
    "StageResult",
    "TaskRuntime",
    "RetryPolicy",
    "TaskFailure",
    "stage_placement",
    "NoAliveNodesError",
    "DataflowRunner",
    "DataflowScheduler",
    "TaskGraph",
    "TaskState",
    "upward_ranks",
    "TaskContract",
    "ContractAccess",
    "ContractError",
    "creates",
    "reads",
    "writes",
    "opens",
    "validate_contract",
    "reconcile",
]
