"""Optimization planning: advisory lint findings → an executable plan.

The planner consumes DY7xx advisory findings (plus DY105 vlen-contiguous,
see :data:`repro.lint.ADVISORY`) and the cluster it will run on, and
emits concrete steps, dispatching on each finding's rule code:

- ``pin`` — co-schedule the named tasks on one node (data reuse,
  read-after-write chains, time-dependent inputs, sequential scans);
- ``stage_in`` — copy a reused or late-needed file to that node's local
  tier before its consumers run;
- ``stage_out`` — demote a disposable file once its last consumer ran;
- ``convert_contiguous`` / ``convert_chunked`` — rewrite a file's layout;
- ``consolidate`` — merge a scattered file's small datasets.

``apply_format_changes`` executes the rewrite steps immediately (they are
offline file transformations); the placement steps are consumed when
re-running the workflow: :attr:`OptimizationPlan.pins` become the
runner's ``pins`` and :meth:`OptimizationPlan.stage_in_all` copies the
staged files.  Staged and staged-out replicas keep the
source's full absolute path under their destination prefix, so distinct
sources never share a replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.cluster.cluster import Cluster
from repro.lint.advisory import in_paper_order
from repro.lint.findings import Finding
from repro.middleware.consolidate import consolidate_datasets
from repro.middleware.layout_convert import convert_layout
from repro.middleware.stager import stage_in, stage_out
from repro.posix.simfs import SimFS

__all__ = ["PlanStep", "OptimizationPlan", "build_plan"]


@dataclass(frozen=True)
class PlanStep:
    """One executable optimization action."""

    action: str           # pin | stage_in | stage_out | convert_* | consolidate
    target: str           # file path or task name
    detail: str = ""      # node, tier, or layout parameter
    rationale: str = ""


@dataclass
class OptimizationPlan:
    """An ordered, executable set of optimization steps."""

    steps: List[PlanStep] = field(default_factory=list)
    #: task name → node for the co-scheduling decisions (the runner's
    #: ``pins``).
    pins: Dict[str, str] = field(default_factory=dict)
    #: shared-FS path → node-local staged path.
    staged_paths: Dict[str, str] = field(default_factory=dict)

    def by_action(self, action: str) -> List[PlanStep]:
        return [s for s in self.steps if s.action == action]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stage_in_all(self, fs: SimFS) -> Dict[str, str]:
        """Perform every ``stage_in`` step; returns original→staged paths."""
        for step in self.by_action("stage_in"):
            staged = self.staged_paths[step.target]
            stage_in(fs, step.target, staged)
        return dict(self.staged_paths)

    def stage_out_all(self, fs: SimFS, dst_dir: str) -> List[str]:
        """Perform every ``stage_out`` step into ``dst_dir`` (each file
        keeps its full path below it)."""
        moved = []
        for step in self.by_action("stage_out"):
            if not fs.exists(step.target):
                continue
            moved.append(stage_out(fs, step.target,
                                   _under(dst_dir, step.target),
                                   remove_src=False))
        return moved

    def apply_format_changes(self, fs: SimFS, suffix: str = ".opt.h5") -> Dict[str, str]:
        """Execute the layout/consolidation rewrites; returns old→new paths.

        Rewrites are written beside the originals (``<file><suffix>``) so
        callers can swap paths atomically per task.
        """
        rewritten: Dict[str, str] = {}
        for step in self.steps:
            if step.target in rewritten or not fs.exists(step.target):
                continue
            dst = step.target + suffix
            if step.action == "convert_contiguous":
                convert_layout(fs, step.target, dst, layout="contiguous")
            elif step.action == "convert_chunked":
                convert_layout(fs, step.target, dst, layout="chunked")
            elif step.action == "consolidate":
                consolidate_datasets(fs, step.target, dst)
            else:
                continue
            rewritten[step.target] = dst
        return rewritten

    def resolve(self, path: str) -> str:
        """The path a task should open: the staged replica when one exists."""
        return self.staged_paths.get(path, path)

    def summary(self) -> str:
        if not self.steps:
            return "Nothing to optimize."
        lines = [f"Optimization plan ({len(self.steps)} steps):"]
        for step in self.steps:
            detail = f" [{step.detail}]" if step.detail else ""
            lines.append(f"  {step.action:<19} {step.target}{detail}")
        return "\n".join(lines)


#: File rewrites, keyed by the rule code that calls for them.  A file
#: gets one rewrite: the first in :func:`in_paper_order`, so
#: consolidation beats contiguous conversion, which beats chunking.
_REWRITE_FOR = {
    "DY706": "consolidate",
    "DY708": "convert_contiguous",
    "DY105": "convert_chunked",
}


def _under(prefix: str, path: str) -> str:
    """``path`` re-rooted below ``prefix`` (injective over absolute paths)."""
    return f"{prefix.rstrip('/')}/{path.lstrip('/')}"


def build_plan(
    findings: Iterable[Finding],
    cluster: Cluster,
    *,
    target_node: Optional[str] = None,
    local_tier: Optional[str] = None,
) -> OptimizationPlan:
    """Compile advisory lint findings into an executable plan.

    Args:
        findings: Lint findings, e.g. ``lint_profiles(profiles,
            ADVISORY).findings``, in any order (they are read in
            :func:`~repro.lint.advisory.in_paper_order`); codes without a
            plan step are ignored.
        cluster: The cluster the optimized run will use.
        target_node: Node to co-schedule onto (default: first node).
        local_tier: Node-local tier for staging (default: the node's first
            tier).
    """
    node = target_node or cluster.node_names()[0]
    tiers = list(cluster.node(node).local_tiers)
    if not tiers:
        raise ValueError(f"node {node!r} has no local storage tier to stage to")
    tier = local_tier or tiers[0]
    local = Cluster.local_prefix(node, tier)
    plan = OptimizationPlan()
    staged: Set[str] = set()
    pinned: Set[str] = set()
    converted: Set[str] = set()

    def stage(path: str, why: str) -> None:
        if path in staged:
            return
        staged.add(path)
        plan.staged_paths[path] = _under(local, path)
        plan.steps.append(PlanStep("stage_in", path, detail=f"{node}:{tier}",
                                   rationale=why))

    def pin(tasks, why: str) -> None:
        for task in tasks:
            if task not in pinned:
                pinned.add(task)
                plan.pins[task] = node
                plan.steps.append(PlanStep("pin", task, detail=node,
                                           rationale=why))

    for f in in_paper_order(findings):
        if f.code in ("DY701", "DY703"):
            if f.subject.startswith("/"):
                stage(f.subject.split(":", 1)[0], f.message)
            pin(f.tasks, f.message)
        elif f.code == "DY704":
            stage(f.subject, f.message)
            pin(f.tasks, f.message)
        elif f.code == "DY709":
            pin(f.tasks, f.message)
        elif f.code == "DY705":
            plan.steps.append(PlanStep("stage_out", f.subject,
                                       rationale=f.message))
        elif f.code in _REWRITE_FOR:
            file = f.subject.split(":", 1)[0]
            if file not in converted:
                converted.add(file)
                plan.steps.append(PlanStep(_REWRITE_FOR[f.code], file,
                                           rationale=f.message))
        # DY702, DY707 and DY710 need application-side changes (a task's
        # own read-modify-write, skipped datasets, restructured stages);
        # the guidelines engine reports them but they have no file step.
    return plan

