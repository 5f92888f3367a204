"""Figure 13a: scattered small datasets vs. consolidation (PyFLEXTRKR).

The paper simulates stage 9's access pattern: a file holding 32 small
datasets, each accessed 23 times, under 1-16 concurrent processes, against
node-local NVMe.  Consolidating the datasets into one large dataset (with
an offset index) removes the per-dataset metadata walk from every access.

Each access round opens the file fresh — matching the workflow's behaviour
where every stage-9 task re-opens its input and pays the metadata reads
again (no warm cache across rounds).

Measured metric: the sum of POSIX operation costs (exactly the paper's
"measured I/O times (sum of POSIX operations)").  Paper headline: 1.7x to
3.7x reduction, biggest for small datasets and low process counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.experiments.common import Env, ResultTable, fresh_env
from repro.hdf5 import H5File
from repro.middleware.consolidate import consolidate_datasets, read_consolidated
from repro.workflow.model import Stage, Task, Workflow
from repro.workflow.runner import TaskRuntime

__all__ = ["Fig13aParams", "run_fig13a"]


@dataclass(frozen=True)
class Fig13aParams:
    """Experiment scale (paper: 32 datasets x 23 accesses on NVMe)."""

    n_datasets: int = 32
    accesses: int = 23
    dataset_bytes: tuple = (1024, 2048, 4096, 8192)
    process_counts: tuple = (1, 2, 4, 8, 16)


def _prepare(env: Env, nbytes: int) -> tuple:
    """Create the scattered and consolidated variants on node-local SSD."""
    node = env.cluster.node_names()[0]
    local = env.cluster.local_prefix(node, "ssd")
    scattered = f"{local}/scattered_{nbytes}.h5"
    consolidated = f"{local}/consolidated_{nbytes}.h5"
    rng = np.random.default_rng(nbytes)
    with H5File(env.cluster.fs, scattered, "w") as f:
        for d in range(32):
            f.create_dataset(
                f"speed_{d:03d}", shape=(nbytes,), dtype="i1",
                data=rng.integers(-100, 100, nbytes).astype(np.int8),
            )
    consolidate_datasets(env.cluster.fs, scattered, consolidated)
    return node, scattered, consolidated


def _measure(env: Env, node: str, path: str, consolidated: bool,
             n_procs: int, p: Fig13aParams) -> float:
    """Sum of POSIX op costs for ``n_procs`` readers doing the access storm."""

    def reader(worker: int):
        def fn(rt: TaskRuntime) -> None:
            for _ in range(p.accesses):
                # Fresh open per round: metadata is re-read every time.
                f = rt.open(path, "r")
                if consolidated:
                    big = f["consolidated"]
                    for d in range(p.n_datasets):
                        read_consolidated(big, f"speed_{d:03d}")
                else:
                    for d in range(p.n_datasets):
                        f[f"speed_{d:03d}"].read()
                f.close()
        return fn

    label = "cons" if consolidated else "scat"
    wf = Workflow(f"fig13a_{label}_{n_procs}", [
        Stage("access", [
            Task(f"{label}_p{n_procs}_w{k}", reader(k)) for k in range(n_procs)
        ])
    ])
    env.runner.pins = {t.name: node for t in wf.all_tasks()}
    fs = env.cluster.fs
    before = fs.io_time()
    env.runner.run(wf)
    return fs.io_time() - before


def run_fig13a(params: Fig13aParams = Fig13aParams()) -> ResultTable:
    """Sweep dataset size x process count for both variants."""
    table = ResultTable(
        title="Figure 13a — PyFLEXTRKR stage-9: scattered vs. consolidated",
        columns=["dataset_bytes", "processes", "baseline_ms",
                 "consolidated_ms", "reduction"],
        notes=["I/O time = sum of POSIX operation costs; node-local SSD; "
               "32 datasets, each accessed 23 times per process."],
    )
    reductions = []
    for nbytes in params.dataset_bytes:
        for procs in params.process_counts:
            env = fresh_env(n_nodes=1)
            node, scattered, consolidated = _prepare(env, nbytes)
            base = _measure(env, node, scattered, False, procs, params)
            # Fresh environment so device/sequence state cannot leak.
            env2 = fresh_env(n_nodes=1)
            node2, _, consolidated2 = _prepare(env2, nbytes)
            cons = _measure(env2, node2, consolidated2, True, procs, params)
            reduction = base / cons if cons > 0 else float("inf")
            reductions.append(reduction)
            table.add(
                dataset_bytes=nbytes, processes=procs,
                baseline_ms=base * 1e3, consolidated_ms=cons * 1e3,
                reduction=reduction,
            )
    table.notes.append(
        f"Reduction range {min(reductions):.2f}x - {max(reductions):.2f}x "
        "(paper: 1.7x - 3.7x)."
    )
    return table
