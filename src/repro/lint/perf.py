"""DY6xx — predicted performance rules, and DY65x prediction drift.

The DY60x rules (scope ``perf``) evaluate once over the pre-run
:class:`~repro.lint.cost.CostContext` — no traces anywhere.  They are
opt-in (``dayu-lint --cost``): like DY5xx they overlap what an
optimization advisor would recommend, and several bundled fixtures are
intentionally naive.

The DY65x rules (scope ``costdrift``) close the loop: once a run *has*
been traced, the prediction itself goes on trial.  A task whose traced
duration or byte volume disagrees with its predicted cost by a large
factor is a finding — the performance mirror of DY45x contract drift.

Thresholds live on :class:`~repro.lint.rules.LintConfig` (the
``cost_*``, ``imbalance_factor``, ``locality_min_fraction``, and
``edge_dominance_fraction`` fields); every DY60x rule additionally
ignores anything predicted under ``cost_min_seconds`` — sub-50 ms
hazards are noise at workflow scale.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.lint.cost import CostContext, CostDriftContext
from repro.lint.findings import Finding, Severity
from repro.lint.rules import LintConfig, rule
from repro.storage.devices import DEVICE_CATALOG, predicted_cost

__all__ = []  # rules register themselves; nothing to import by name


# ----------------------------------------------------------------------
# DY60x — pre-run performance hazards
# ----------------------------------------------------------------------
@rule("DY601", "small-io-on-critical-path", Severity.ERROR, "perf",
      "A dataset on the predicted critical path is accessed in many "
      "tiny operations whose per-op latency dominates its cost — "
      "batching them shortens the whole workflow.",
      default_enabled=False)
def _small_io_on_critical_path(cctx: CostContext,
                               config: LintConfig) -> Iterator[Finding]:
    on_path = set(cctx.report.critical_path)
    for task in cctx.report.critical_path:
        tc = cctx.report.tasks.get(task)
        if tc is None:
            continue
        for d in tc.datasets:
            if d.ops < config.small_io_min_ops:
                continue
            if d.volume > d.ops * config.small_io_max_avg_bytes:
                continue
            if d.io_seconds < config.cost_min_seconds:
                continue
            if d.latency_seconds < 0.5 * d.io_seconds:
                continue
            yield Finding(
                code="DY601", rule="small-io-on-critical-path",
                severity=Severity.ERROR,
                subject=f"{d.file}:{d.dataset}",
                tasks=(task,),
                message=(
                    f"{task} (on the predicted critical path) issues "
                    f"{d.ops} operations averaging "
                    f"{d.volume // d.ops} bytes against {d.dataset} in "
                    f"{d.file}; latency is "
                    f"{d.latency_seconds / d.io_seconds:.0%} of its "
                    f"{d.io_seconds:.3f}s predicted cost — batch the "
                    "accesses"),
                evidence={
                    "ops": d.ops,
                    "volume": d.volume,
                    "avg_bytes": d.volume // d.ops,
                    "io_seconds": round(d.io_seconds, 6),
                    "latency_seconds": round(d.latency_seconds, 6),
                    "critical_path": sorted(on_path),
                },
            )


@rule("DY602", "predicted-stage-straggler", Severity.WARNING, "perf",
      "One task of a parallel stage is predicted far slower than the "
      "stage mean — the whole stage waits on it at the barrier.",
      default_enabled=False)
def _predicted_stage_straggler(cctx: CostContext,
                               config: LintConfig) -> Iterator[Finding]:
    for stage in cctx.report.stages:
        if not stage.parallel or len(stage.tasks) < 2:
            continue
        totals = {t: cctx.report.tasks[t].total_seconds
                  for t in stage.tasks if t in cctx.report.tasks}
        if len(totals) < 2:
            continue
        mean = sum(totals.values()) / len(totals)
        straggler = max(sorted(totals), key=lambda t: (totals[t], t))
        worst = totals[straggler]
        if mean <= 0 or worst < config.imbalance_factor * mean:
            continue
        if worst - mean < config.cost_min_seconds:
            continue
        yield Finding(
            code="DY602", rule="predicted-stage-straggler",
            severity=Severity.WARNING,
            subject=stage.name,
            tasks=(straggler,),
            message=(
                f"stage {stage.name} is predicted to wait on "
                f"{straggler}: {worst:.3f}s against a stage mean of "
                f"{mean:.3f}s ({worst / mean:.1f}x) — rebalance the "
                "stage's I/O"),
            evidence={
                "straggler_seconds": round(worst, 6),
                "stage_mean_seconds": round(mean, 6),
                "factor": round(worst / mean, 3),
                "tasks": {t: round(s, 6)
                          for t, s in sorted(totals.items())},
            },
        )


def _local_read_cost(cctx: CostContext, read_ops: int,
                     read_bytes: int) -> Optional[float]:
    tier = cctx.spec.fastest_local_tier()
    if tier is None:
        return None
    dev = DEVICE_CATALOG[tier[1]]
    return predicted_cost(dev, read_ops=read_ops, read_bytes=read_bytes)


def _locality_floor(cctx: CostContext, config: LintConfig) -> float:
    return max(config.locality_min_fraction
               * cctx.report.makespan_seconds,
               config.cost_min_seconds)


@rule("DY603", "cross-node-transfer", Severity.WARNING, "perf",
      "A producer→consumer hand-off crosses nodes through shared "
      "storage; co-placing the tasks and localizing the file would "
      "eliminate the transfer (the paper's fig11 placement).",
      default_enabled=False)
def _cross_node_transfer(cctx: CostContext,
                         config: LintConfig) -> Iterator[Finding]:
    floor = _locality_floor(cctx, config)
    for e in cctx.report.edges:
        if not e.cross_node or e.seconds < config.cost_min_seconds:
            continue
        dev, _ = cctx.spec.device_for_path(
            cctx.report.file_placement.get(e.file, e.file))
        if not dev.shared:
            continue
        ops = sum(max(a.count, 1)
                  for a in cctx.static.accesses_for((e.file, e.dataset),
                                                    e.consumer)
                  if a.op == "read")
        local = _local_read_cost(cctx, ops, e.volume)
        if local is None:
            continue
        saving = e.seconds - local
        if saving < floor:
            continue
        yield Finding(
            code="DY603", rule="cross-node-transfer",
            severity=Severity.WARNING,
            subject=f"{e.producer}->{e.consumer}",
            tasks=(e.producer, e.consumer),
            message=(
                f"{e.producer} hands {e.volume} bytes of {e.dataset} in "
                f"{e.file} to {e.consumer} across nodes via shared "
                f"storage; a locality placement is predicted to save "
                f"{saving:.3f}s — run dayu-plan"),
            evidence={
                "volume": e.volume,
                "shared_seconds": round(e.seconds, 6),
                "local_seconds": round(local, 6),
                "predicted_saving_seconds": round(saving, 6),
                "producer_node": cctx.report.placement.get(e.producer),
                "consumer_node": cctx.report.placement.get(e.consumer),
            },
        )


@rule("DY604", "hot-dataset-tier-misplacement", Severity.WARNING, "perf",
      "A heavily-read dataset lives on a shared tier although a faster "
      "node-local tier exists — staging it local is predicted to pay "
      "for itself.",
      default_enabled=False)
def _hot_dataset_tier(cctx: CostContext,
                      config: LintConfig) -> Iterator[Finding]:
    floor = _locality_floor(cctx, config)
    tier = cctx.spec.fastest_local_tier()
    if tier is None:
        return
    for key in sorted(cctx.report.dataset_traffic):
        t = cctx.report.dataset_traffic[key]
        if not t.shared or not t.read_ops:
            continue
        shared_dev = DEVICE_CATALOG[t.device]
        current = predicted_cost(shared_dev, read_ops=t.read_ops,
                                 read_bytes=t.bytes_read)
        local = _local_read_cost(cctx, t.read_ops, t.bytes_read)
        if local is None:
            continue
        saving = current - local
        if saving < floor:
            continue
        yield Finding(
            code="DY604", rule="hot-dataset-tier-misplacement",
            severity=Severity.WARNING,
            subject=f"{t.file}:{t.dataset}",
            tasks=tuple(sorted(t.readers)),
            message=(
                f"{t.dataset} in {t.file} serves {t.bytes_read} read "
                f"bytes from shared {t.device}; staging it on the "
                f"{tier[0]} tier ({tier[1]}) is predicted to save "
                f"{saving:.3f}s"),
            evidence={
                "device": t.device,
                "read_ops": t.read_ops,
                "bytes_read": t.bytes_read,
                "shared_seconds": round(current, 6),
                "local_seconds": round(local, 6),
                "predicted_saving_seconds": round(saving, 6),
                "suggested_tier": tier[0],
            },
        )


@rule("DY605", "dominant-transfer", Severity.NOTE, "perf",
      "A single producer→consumer transfer is predicted to cost a large "
      "fraction of the whole makespan — the first target for "
      "consolidation or layout work.",
      default_enabled=False)
def _dominant_transfer(cctx: CostContext,
                       config: LintConfig) -> Iterator[Finding]:
    makespan = cctx.report.makespan_seconds
    if makespan <= 0:
        return
    for e in cctx.report.edges:
        if e.seconds < config.cost_min_seconds:
            continue
        if e.seconds < config.edge_dominance_fraction * makespan:
            continue
        yield Finding(
            code="DY605", rule="dominant-transfer",
            severity=Severity.NOTE,
            subject=f"{e.file}:{e.dataset}",
            tasks=(e.producer, e.consumer),
            message=(
                f"the {e.producer}→{e.consumer} transfer of "
                f"{e.dataset} in {e.file} is predicted at "
                f"{e.seconds:.3f}s — "
                f"{e.seconds / makespan:.0%} of the "
                f"{makespan:.3f}s makespan"),
            evidence={
                "volume": e.volume,
                "seconds": round(e.seconds, 6),
                "makespan_seconds": round(makespan, 6),
                "fraction": round(e.seconds / makespan, 3),
            },
        )


# ----------------------------------------------------------------------
# DY65x — prediction drift (needs one traced run)
# ----------------------------------------------------------------------
def _drifted(predicted: float, actual: float, factor: float,
             floor: float) -> bool:
    hi, lo = max(predicted, actual), min(predicted, actual)
    if hi < floor:
        return False
    return lo <= 0 or hi >= factor * lo


@rule("DY651", "task-cost-drift", Severity.WARNING, "costdrift",
      "A task's traced duration disagrees with its predicted cost by a "
      "large factor — the contract, the device model, or the code is "
      "wrong about this task.",
      default_enabled=False)
def _task_cost_drift(dctx: CostDriftContext,
                     config: LintConfig) -> Iterator[Finding]:
    for task in sorted(dctx.actual_durations):
        tc = dctx.report.tasks.get(task)
        if tc is None:
            continue
        actual = dctx.actual_durations[task]
        predicted = tc.total_seconds
        if not _drifted(predicted, actual, config.cost_drift_factor,
                        config.cost_drift_min_seconds):
            continue
        direction = ("slower" if actual > predicted else "faster")
        yield Finding(
            code="DY651", rule="task-cost-drift",
            severity=Severity.WARNING,
            subject=task,
            tasks=(task,),
            message=(
                f"{task} ran {actual:.3f}s against a predicted "
                f"{predicted:.3f}s — "
                f"{max(actual, predicted) / max(min(actual, predicted), 1e-9):.1f}x "
                f"{direction} than the cost model expected"),
            evidence={
                "predicted_seconds": round(predicted, 6),
                "actual_seconds": round(actual, 6),
            },
        )


@rule("DY652", "makespan-drift", Severity.NOTE, "costdrift",
      "The run's traced makespan disagrees with the predicted one by a "
      "large factor — the prediction as a whole missed this workflow.",
      default_enabled=False)
def _makespan_drift(dctx: CostDriftContext,
                    config: LintConfig) -> Iterator[Finding]:
    predicted = dctx.report.makespan_seconds
    actual = dctx.actual_makespan
    if not _drifted(predicted, actual, config.cost_drift_factor,
                    config.cost_drift_min_seconds):
        return
    yield Finding(
        code="DY652", rule="makespan-drift",
        severity=Severity.NOTE,
        subject=dctx.report.workflow,
        tasks=(),
        message=(
            f"workflow {dctx.report.workflow} ran {actual:.3f}s against "
            f"a predicted makespan of {predicted:.3f}s"),
        evidence={
            "predicted_makespan_seconds": round(predicted, 6),
            "actual_makespan_seconds": round(actual, 6),
            "predicted_critical_path": list(dctx.report.critical_path),
        },
    )


@rule("DY653", "traced-volume-drift", Severity.WARNING, "costdrift",
      "A task moved a very different byte volume than its contract "
      "predicted — element counts or dtypes in the contract are stale.",
      default_enabled=False)
def _traced_volume_drift(dctx: CostDriftContext,
                         config: LintConfig) -> Iterator[Finding]:
    for task in sorted(dctx.actual_bytes):
        tc = dctx.report.tasks.get(task)
        if tc is None:
            continue
        predicted = tc.read_bytes + tc.write_bytes
        br, bw = dctx.actual_bytes[task]
        actual = br + bw
        hi, lo = max(predicted, actual), min(predicted, actual)
        if (hi - lo < config.cost_drift_min_bytes
                or (lo > 0 and hi < config.cost_drift_factor * lo)):
            continue
        yield Finding(
            code="DY653", rule="traced-volume-drift",
            severity=Severity.WARNING,
            subject=task,
            tasks=(task,),
            message=(
                f"{task} moved {actual} traced bytes against a "
                f"predicted {predicted} — contract volumes are stale"),
            evidence={
                "predicted_bytes": predicted,
                "actual_bytes": actual,
                "actual_bytes_read": br,
                "actual_bytes_written": bw,
            },
        )
