"""Optimization planning: advisory lint findings → a ``dayu-plan/v1`` plan.

The planner consumes DY7xx advisory findings (plus DY105 vlen-contiguous,
see :data:`repro.lint.ADVISORY`) and the cluster it will run on.
:func:`build_plan` compiles the placement half into the same
:class:`~repro.workflow.plan.PlacementPlan` the solver emits, dispatching
on each finding's rule code:

- DY701 data-reuse / DY703 read-after-write — localize the file (when
  the subject names one) on the target node's local tier and pin the
  tasks there;
- DY704 time-dependent-input — localize the input and pin its tasks;
- DY709 readonly-sequential — pin the scanning tasks.

That plan runs like a solved one: ``pins=plan.tasks`` on the runner,
:func:`~repro.workflow.plan.plan_path_resolver` as its path resolver and
:func:`~repro.workflow.plan.stage_in_plan` before the run (or save it
and pass it to ``dayu-run --plan``).

Format rewrites and stage-outs are offline file transformations, not
placements, so they run straight from the findings:
:func:`apply_format_changes` (DY706 consolidate, DY708 contiguous, DY105
chunked) and :func:`stage_out_all` (DY705 disposable data).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Optional

from repro.cluster.cluster import Cluster
from repro.lint.advisory import in_paper_order
from repro.lint.findings import Finding
from repro.middleware.consolidate import consolidate_datasets
from repro.middleware.layout_convert import convert_layout
from repro.middleware.stager import stage_out
from repro.posix.simfs import SimFS
from repro.workflow.plan import FilePlacement, PlacementPlan

__all__ = ["build_plan", "apply_format_changes", "stage_out_all"]

#: Codes whose tasks are co-scheduled on the target node.
_PIN_CODES = ("DY701", "DY703", "DY704", "DY709")

#: File rewrites, keyed by the rule code that calls for them.  A file
#: gets one rewrite: the first in :func:`in_paper_order`, so
#: consolidation beats contiguous conversion, which beats chunking.
_REWRITE_FOR = {
    "DY706": consolidate_datasets,
    "DY708": partial(convert_layout, layout="contiguous"),
    "DY105": partial(convert_layout, layout="chunked"),
}


def _file(subject: str) -> str:
    """The file part of a ``file:dataset`` subject."""
    return subject.split(":", 1)[0]


def build_plan(
    findings: Iterable[Finding],
    cluster: Cluster,
    *,
    target_node: Optional[str] = None,
    local_tier: Optional[str] = None,
) -> PlacementPlan:
    """Compile advisory lint findings into a ``dayu-plan/v1`` plan.

    Args:
        findings: Lint findings, e.g. ``lint_profiles(profiles,
            ADVISORY).findings``, in any order (they are read in
            :func:`~repro.lint.advisory.in_paper_order`); codes without a
            placement are ignored.
        cluster: The cluster the optimized run will use.
        target_node: Node to co-schedule onto (default: first node).
        local_tier: Node-local tier for staging (default: the node's first
            tier).

    The plan's ``workload`` and ``cluster`` stay empty: it comes from
    findings, not from a registry workload priced on a cluster spec.
    """
    node = target_node or cluster.node_names()[0]
    tiers = list(cluster.node(node).local_tiers)
    if not tiers:
        raise ValueError(f"node {node!r} has no local storage tier to stage to")
    tier = local_tier or tiers[0]
    plan = PlacementPlan(workload="", scale=1.0, cluster="",
                         n_nodes=len(cluster.node_names()))
    staged = set()

    def stage(path: str) -> None:
        if path not in staged:
            staged.add(path)
            plan.files.append(FilePlacement(path, node, tier))

    for f in in_paper_order(findings):
        if f.code in ("DY701", "DY703") and f.subject.startswith("/"):
            stage(_file(f.subject))
        elif f.code == "DY704":
            stage(f.subject)
        if f.code in _PIN_CODES:
            for task in f.tasks:
                plan.tasks[task] = node
        # DY702, DY707 and DY710 need application-side changes (a task's
        # own read-modify-write, skipped datasets, restructured stages);
        # the guidelines engine reports them but they place nothing.
    return plan


def apply_format_changes(fs: SimFS, findings: Iterable[Finding],
                         suffix: str = ".opt.h5") -> Dict[str, str]:
    """Execute the layout/consolidation rewrites; returns old→new paths.

    Rewrites are written beside the originals (``<file><suffix>``) so
    callers can swap paths atomically per task.  Files that do not exist
    are skipped.
    """
    rewritten: Dict[str, str] = {}
    seen = set()
    for f in in_paper_order(findings):
        rewrite = _REWRITE_FOR.get(f.code)
        path = _file(f.subject)
        if rewrite is None or path in seen:
            continue
        seen.add(path)
        if fs.exists(path):
            rewrite(fs, path, path + suffix)
            rewritten[path] = path + suffix
    return rewritten


def _under(prefix: str, path: str) -> str:
    """``path`` re-rooted below ``prefix`` (injective over absolute paths)."""
    return f"{prefix.rstrip('/')}/{path.lstrip('/')}"


def stage_out_all(fs: SimFS, findings: Iterable[Finding],
                  dst_dir: str) -> List[str]:
    """Copy every DY705 disposable file into ``dst_dir``, keeping the
    source; each file keeps its full path below ``dst_dir``.  Files that
    do not exist are skipped."""
    return [stage_out(fs, f.subject, _under(dst_dir, f.subject),
                      remove_src=False)
            for f in in_paper_order(findings)
            if f.code == "DY705" and fs.exists(f.subject)]
