"""Greedy locality solver: derive a fig11-style placement pre-run.

The paper's fig11 optimization was built by hand: read the SDG, notice
which stages exchange data through the shared filesystem, pin them to
the producing node, and stage the hot files onto node-local flash.
:func:`solve_placement` derives the same move from the *predicted* SDG
and the static cost model, before anything runs:

1. Rank shared-storage files by predicted traffic (bytes moved through
   them, heaviest first).
2. For each file, gather its toucher set — every task whose contract
   mentions it (localized files are node-local, so *all* touchers must
   co-locate, not just the heavy ones).
3. Trial-place the touchers on each candidate node with the file on the
   fastest local tier, re-price only the stages that hold a toucher
   with :func:`~repro.lint.cost.price_stage` (a move changes node-local
   concurrency for the whole stage, and no other stage), add the
   stage-in price for pre-existing external inputs, and commit the move
   only when the predicted makespan strictly improves.

A trial's makespan, the sum of its stage walls in stage order, equals
a full :func:`~repro.lint.cost.build_cost_report`'s bit for bit; full
reports are built for the baseline and the final plan only.  The output
is a versioned, executable :class:`~repro.workflow.plan.PlacementPlan`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.configs import ClusterSpec
from repro.lint.cost import PriceMemo, build_cost_report, price_stage
from repro.lint.predict import (
    StaticContext,
    access_bytes,
    build_static_context,
)
from repro.storage.devices import DEVICE_CATALOG, predicted_cost
from repro.workflow.model import Workflow
from repro.workflow.plan import FilePlacement, PlacementPlan, local_path

__all__ = ["solve_placement"]


def _file_traffic(ctx: StaticContext, spec: ClusterSpec
                  ) -> List[Tuple[str, int]]:
    """Shared-storage files ranked by predicted traffic, heaviest first
    (ties by name).  Traffic counts every declared data movement."""
    traffic: Dict[str, int] = {}
    for contract in ctx.effective.values():
        for a in contract.accesses:
            if not a.moves_data:
                continue
            dev, _ = spec.device_for_path(a.file)
            if not dev.shared:
                continue
            ops = max(a.count, 1)
            traffic[a.file] = (traffic.get(a.file, 0)
                               + access_bytes(a) * ops)
    ranked = [(f, b) for f, b in traffic.items() if b > 0]
    ranked.sort(key=lambda fb: (-fb[1], fb[0]))
    return ranked


def _touchers(ctx: StaticContext, file: str) -> List[str]:
    """Every task whose contract mentions ``file`` at all — any access
    to a node-local file requires living on its node."""
    out: List[str] = []
    for task in (t.name for t in ctx.workflow.all_tasks()):
        contract = ctx.effective.get(task)
        if contract is None:
            continue
        if any(a.file == file for a in contract.accesses):
            out.append(task)
    return out


def _copy_volume(ctx: StaticContext, file: str) -> int:
    """Predicted bytes of one copy of a file: the created extents of its
    datasets when declared, else the largest declared single access."""
    per_key: Dict[Tuple[str, str], int] = {}
    for contract in ctx.effective.values():
        for a in contract.accesses:
            if a.file != file:
                continue
            best = per_key.get(a.key, 0)
            per_key[a.key] = max(best, access_bytes(a))
    return sum(per_key.values())


def _stage_in_seconds(ctx: StaticContext, spec: ClusterSpec,
                      file_map: Dict[str, str]) -> float:
    """Predicted cost of staging pre-existing (externally produced)
    localized files: read the shared source, write the local copy."""
    tier = spec.fastest_local_tier()
    if tier is None:
        return 0.0
    local_dev = DEVICE_CATALOG[tier[1]]
    total = 0.0
    for src in file_map:
        if ctx.file_producers.get(src):
            continue  # produced inside the workflow: born local
        volume = _copy_volume(ctx, src)
        src_dev, _ = spec.device_for_path(src)
        total += predicted_cost(src_dev, read_ops=1, read_bytes=volume)
        total += predicted_cost(local_dev, write_ops=1, write_bytes=volume)
    return total


def _trial_walls(ctx: StaticContext, walls: Sequence[float],
                 stages: Sequence[int], placement: Dict[str, str],
                 file_map: Dict[str, str], memo: PriceMemo) -> List[float]:
    """The committed stage walls with ``stages`` re-priced under a
    trial placement and file map."""
    out = list(walls)
    for si in stages:
        out[si] = price_stage(ctx, si, placement, file_map,
                              memo)[1].wall_seconds
    return out


def solve_placement(
    workflow: Workflow,
    spec: ClusterSpec,
    workload: str = "",
    scale: float = 1.0,
) -> PlacementPlan:
    """Solve a locality placement for ``workflow`` on ``spec``.

    Returns a plan (possibly empty: no move predicted to pay off) whose
    ``predicted`` block records the baseline makespan, the planned
    makespan, and the stage-in price the plan will pay.
    """
    ctx = build_static_context(workflow)
    baseline = build_cost_report(ctx, spec)
    plan = PlacementPlan(workload=workload, scale=scale, cluster=spec.name,
                         n_nodes=spec.n_nodes)
    tier = spec.fastest_local_tier()
    if tier is None:
        plan.predicted = {
            "baseline_makespan_seconds": baseline.makespan_seconds,
            "planned_makespan_seconds": baseline.makespan_seconds,
            "stage_in_seconds": 0.0,
        }
        return plan

    placement = dict(baseline.placement)
    walls = [s.wall_seconds for s in baseline.stages]
    memo = PriceMemo(spec)
    file_map: Dict[str, str] = {}
    pinned: Set[str] = set()
    best_cost = baseline.makespan_seconds

    for file, _bytes in _file_traffic(ctx, spec):
        touchers = _touchers(ctx, file)
        if not touchers:
            continue
        agreed = {placement[t] for t in touchers if t in pinned}
        if len(agreed) > 1:
            continue  # earlier commits split this file's touchers
        candidates = sorted(agreed) if agreed else list(spec.node_names)
        stages = sorted({ctx.schedule[t][0] for t in touchers})
        best_trial: Optional[Tuple[float, str, List[float]]] = None
        for node in candidates:
            trial_placement = dict(placement)
            for t in touchers:
                trial_placement[t] = node
            trial_map = dict(file_map)
            trial_map[file] = local_path(file, node, tier[0])
            trial_walls = _trial_walls(ctx, walls, stages, trial_placement,
                                       trial_map, memo)
            cost = (sum(trial_walls)
                    + _stage_in_seconds(ctx, spec, trial_map))
            if best_trial is None or cost < best_trial[0]:
                best_trial = (cost, node, trial_walls)
        if best_trial is None or best_trial[0] >= best_cost - 1e-9:
            continue
        cost, node, walls = best_trial
        for t in touchers:
            placement[t] = node
            pinned.add(t)
        file_map[file] = local_path(file, node, tier[0])
        best_cost = cost
        plan.files.append(FilePlacement(
            path=file, node=node, tier=tier[0],
            volume=_copy_volume(ctx, file),
            datasets=tuple(sorted({a.dataset
                                   for c in ctx.effective.values()
                                   for a in c.accesses
                                   if a.file == file}))))

    plan.tasks = {t: placement[t] for t in sorted(pinned)}
    final = build_cost_report(ctx, spec, placement=placement,
                              file_placement=file_map)
    plan.predicted = {
        "baseline_makespan_seconds": baseline.makespan_seconds,
        "planned_makespan_seconds": final.makespan_seconds,
        "stage_in_seconds": _stage_in_seconds(ctx, spec, file_map),
    }
    return plan
