"""Workflow description: tasks, stages, workflows.

A *task* is a named unit of work — a Python callable receiving a
:class:`~repro.workflow.runner.TaskRuntime` — optionally with a modeled
compute phase.  A *stage* is a logical grouping of tasks "designed to
achieve distinct milestones within a larger process" (the paper's term);
tasks within a stage may run in parallel across the cluster.  A *workflow*
is an ordered list of stages.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.workflow.contracts import TaskContract, validate_contract

__all__ = ["Task", "Stage", "Workflow"]


@dataclass
class Task:
    """One schedulable unit of work.

    Attributes:
        name: Unique name within the workflow (DaYu keys its per-task
            profiles by this).
        fn: The task body, called as ``fn(runtime)``.
        compute_seconds: Modeled compute time charged before the body's
            I/O completes (simulation of the non-I/O work).
        contract: Optional declared access contract — the datasets this
            task commits to reading/writing (see
            :mod:`repro.workflow.contracts`).  Validated by
            :meth:`Workflow.validate`; consumed by the static lint front
            end and the contract-drift checker.
        depends_on: Explicit upstream task names.  The stage-at-a-time
            runner ignores these (its stage barrier is stricter); the
            event-driven scheduler (:mod:`repro.workflow.dscheduler`)
            adds them to the dependency graph on top of whatever its
            dependency mode derives.
    """

    name: str
    fn: Callable[["TaskRuntime"], None]  # noqa: F821 - runner type
    compute_seconds: float = 0.0
    contract: Optional[TaskContract] = None
    depends_on: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.compute_seconds < 0:
            raise ValueError(f"task {self.name}: negative compute time")
        if self.contract is not None and not self.contract.task:
            self.contract.task = self.name
        self.depends_on = tuple(self.depends_on)


@dataclass
class Stage:
    """A logical grouping of tasks; parallel stages fan out across nodes.

    ``best_effort`` declares the stage's tasks droppable: when a task
    still fails after its retry budget, the runner records the loss in the
    :class:`~repro.workflow.runner.StageResult` and keeps going instead of
    aborting the workflow — the graceful-degradation mode for ensemble
    stages whose downstream consumers can cope with missing members.
    """

    name: str
    tasks: List[Task] = field(default_factory=list)
    parallel: bool = True
    best_effort: bool = False

    def add(self, task: Task) -> "Stage":
        self.tasks.append(task)
        return self


@dataclass
class Workflow:
    """An ordered pipeline of stages.  ``contracts_memo`` caches the
    contracts :func:`repro.lint.predict.build_static_context` extracts."""

    name: str
    stages: List[Stage] = field(default_factory=list)
    contracts_memo: Optional[Tuple[tuple, Any]] = field(
        default=None, init=False, repr=False, compare=False)

    def add_stage(self, stage: Stage) -> "Workflow":
        self.stages.append(stage)
        return self

    def all_tasks(self) -> List[Task]:
        return [t for s in self.stages for t in s.tasks]

    def validate(self) -> None:
        """Check structural invariants (unique task names, non-empty,
        well-formed declared contracts)."""
        tasks = self.all_tasks()
        names = [t.name for t in tasks]
        if not names:
            raise ValueError(f"workflow {self.name!r} has no tasks")
        dupes = {n for n, c in Counter(names).items() if c > 1}
        if dupes:
            raise ValueError(
                f"workflow {self.name!r} has duplicate task names: {sorted(dupes)}"
            )
        known = set(names)
        for t in tasks:
            if t.contract is not None:
                validate_contract(t.contract, t.name)
            for dep in t.depends_on:
                if dep == t.name:
                    raise ValueError(
                        f"task {t.name!r} declares itself as a dependency")
                if dep not in known:
                    raise ValueError(
                        f"task {t.name!r} depends on unknown task {dep!r}")
