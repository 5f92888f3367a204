"""Fault resilience: makespan vs. fault rate, with and without retries.

Beyond the paper's figures, this experiment characterizes the simulator's
fault plane (:mod:`repro.faults`): the chaos map/reduce workload
(:mod:`repro.workloads.chaos`) runs under transient write faults on its
partition directory at increasing rates, in three variants per rate:

- **fault-free** — the reference makespan;
- **no retries** — failed partition tasks are dropped (the stage is
  best-effort) and the merge pays the recompute premium for each lost
  partition;
- **retries** — a :class:`~repro.workflow.runner.RetryPolicy` re-attempts
  failed tasks with exponential backoff.

The makespan charges every failed attempt and backoff wait on the
virtual timeline.  Retries therefore trade lost partitions (and the
merge's recompute premium) for backoff waits on the partition stage's
critical path: with the default 0.25 s base backoff, two retries make
the ~0.08 s workflow 5-12x longer, while no-retry stays within ~20 % of
fault-free.  The test suite asserts that retries lose fewer tasks and
that a retried task's stage wall covers its backoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.common import ResultTable, fresh_env
from repro.faults import FaultInjector
from repro.workflow.runner import RetryPolicy, WorkflowResult
from repro.workloads.chaos import ChaosParams, build_chaos, chaos_fault_spec

__all__ = ["ResilienceRun", "run_chaos_once", "run_fault_resilience"]


@dataclass
class ResilienceRun:
    """One chaos run and the fault-plane telemetry around it."""

    result: WorkflowResult
    injected: dict
    lost_tasks: int

    @property
    def makespan(self) -> float:
        return self.result.wall_time


def run_chaos_once(
    rate: float,
    retries: int = 0,
    seed: int = 7,
    n_nodes: int = 2,
    params: Optional[ChaosParams] = None,
) -> ResilienceRun:
    """One chaos run at a fault rate; ``retries`` extra attempts per task."""
    p = params or ChaosParams()
    env = fresh_env(n_nodes=n_nodes)
    injector = None
    if rate > 0:
        spec = chaos_fault_spec(p, rate=rate, seed=seed)
        injector = FaultInjector(spec, env.cluster).arm()
        env.runner.faults = injector
    if retries > 0:
        env.runner.retry_policy = RetryPolicy(max_attempts=retries + 1)
    result = env.runner.run(build_chaos(p))
    if injector is not None:
        injector.disarm()
    return ResilienceRun(
        result=result,
        injected=injector.stats() if injector else {},
        lost_tasks=len(result.failures),
    )


def run_fault_resilience(
    rates: Sequence[float] = (0.0, 0.02, 0.05, 0.10, 0.20),
    retries: int = 2,
    seed: int = 7,
) -> ResultTable:
    """Sweep fault rates; compare no-retry vs. retry makespans."""
    table = ResultTable(
        title="Fault resilience — chaos workload makespan vs. fault rate",
        columns=["rate", "variant", "makespan_s", "lost_tasks",
                 "task_retries", "injected_errors"],
    )
    baseline = None
    for rate in rates:
        variants = [("no retries", 0)]
        if rate > 0:
            variants.append((f"retries x{retries}", retries))
        for label, n_retries in variants:
            run = run_chaos_once(rate, retries=n_retries, seed=seed)
            if rate == 0:
                baseline = run
                label = "fault-free"
            table.add(
                rate=rate,
                variant=label,
                makespan_s=run.makespan,
                lost_tasks=run.lost_tasks,
                task_retries=run.result.retries,
                injected_errors=sum(run.injected.values()),
            )
    if baseline is not None:
        table.notes.append(
            f"fault-free reference makespan: {baseline.makespan:.3f} s; "
            "no-retry pays the merge's recompute premium per lost "
            "partition, retries pay their backoff waits (base 0.25 s, "
            "doubling) on the partition stage's critical path")
    return table
