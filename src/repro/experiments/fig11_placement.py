"""Figure 11: PyFLEXTRKR stages 3-5 — baseline vs. DaYu-guided placement.

DaYu's analysis of the full pipeline (its Figure 4) shows that stage 3
(run_gettracks) is parallelizable with an all-to-all access pattern over
the stage-1/2 outputs, stage 4 (run_trackstats) is a serial fan-in over the
same inputs plus stage 3's single output, and stage 5 (run_identifymcs)
consumes stage 4's output one-to-one.  That knowledge enables co-scheduling
stages 3-5 on one node with the inputs staged onto node-local SSD.

Two configurations, scaled ~10x down in data and 8x in process count:

- **C1** — paper: 170 MB input, 48 processes, 2 nodes →
  here: 17 MB, 6 stage-3 tasks, 2 nodes.
- **C2** — paper: 1.2 GB input, 240 processes, 8 nodes →
  here: 120 MB, 12 stage-3 tasks, 8 nodes.

Reported bars match the paper's: Stage-In, Stage 3, Stage 4, Stage 5,
Stage-Out, for baseline (BeeGFS) and optimized (node-local SSD).
Paper headline: 1.6x overall, 2.6x on stage 3 in C1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.experiments.common import Env, ResultTable, fresh_env
from repro.hdf5 import H5File
from repro.middleware.stager import stage_in, stage_out
from repro.workflow.model import Stage, Task, Workflow
from repro.workflow.runner import TaskRuntime, WorkflowResult

__all__ = ["Fig11Config", "C1", "C2", "run_fig11", "PlacementRun"]

MIB = 1 << 20


@dataclass(frozen=True)
class Fig11Config:
    """One Figure 11 experiment configuration."""

    label: str
    total_input_bytes: int
    n_files: int
    n_parallel: int
    n_nodes: int
    #: Modeled compute per task (the tracking algorithms are not free);
    #: calibrated so the I/O share of stage time is comparable to the
    #: paper's runs.
    stage3_compute: float = 0.05
    stage4_compute: float = 0.03
    stage5_compute: float = 0.01

    @property
    def elems_per_file(self) -> int:
        return max(self.total_input_bytes // (4 * self.n_files), 1)


#: Scaled versions of the paper's C1 / C2.
C1 = Fig11Config("C1", total_input_bytes=17 * MIB, n_files=12,
                 n_parallel=6, n_nodes=2)
C2 = Fig11Config("C2", total_input_bytes=120 * MIB, n_files=24,
                 n_parallel=12, n_nodes=8,
                 stage3_compute=0.4, stage4_compute=0.2, stage5_compute=0.05)

_PHASES = ("Stage-In", "Stage 3", "Stage 4", "Stage 5", "Stage-Out")


def _prepare_inputs(env: Env, cfg: Fig11Config, src_dir: str) -> List[str]:
    """Create the stage-1/2 outputs (track files) on the shared FS."""
    rng = np.random.default_rng(3)
    paths = []
    for i in range(cfg.n_files):
        path = f"{src_dir}/track_{i:03d}.h5"
        with H5File(env.cluster.fs, path, "w") as f:
            f.create_dataset(
                "links", shape=(cfg.elems_per_file,), dtype="f4",
                data=rng.random(cfg.elems_per_file, dtype=np.float32),
            )
        paths.append(path)
    return paths


def _stages_3_to_5(cfg: Fig11Config, data_dir: str, out_dir: str) -> List[Stage]:
    """Stages 3-5 reading inputs from ``data_dir``, writing to ``out_dir``."""

    def gettracks(worker: int):
        def fn(rt: TaskRuntime) -> None:
            # All-to-all: every stage-3 task reads every input file.
            total = None
            for i in range(cfg.n_files):
                f = rt.open(f"{data_dir}/track_{i:03d}.h5", "r")
                links = f["links"].read()
                f.close()
                total = links if total is None else total + links
            if worker == 0:
                out = rt.open(f"{out_dir}/tracks_all.h5", "w")
                out.create_dataset("tracks", shape=(cfg.elems_per_file,),
                                   dtype="f4", data=total)
                out.close()
        return fn

    def trackstats(rt: TaskRuntime) -> None:
        # Fan-in: same inputs as stage 3, plus stage 3's output.
        for i in range(cfg.n_files):
            f = rt.open(f"{data_dir}/track_{i:03d}.h5", "r")
            f["links"].read()
            f.close()
        f = rt.open(f"{out_dir}/tracks_all.h5", "r")
        tracks = f["tracks"].read()
        f.close()
        out = rt.open(f"{out_dir}/trackstats.h5", "w")
        out.create_dataset("stats", shape=(tracks.size,), dtype="f4",
                           data=np.sort(tracks))
        out.close()

    def identifymcs(rt: TaskRuntime) -> None:
        f = rt.open(f"{out_dir}/trackstats.h5", "r")
        stats = f["stats"].read()
        f.close()
        out = rt.open(f"{out_dir}/mcs.h5", "w")
        out.create_dataset("mcs", shape=(stats.size,), dtype="i4",
                           data=(stats > 0.5).astype(np.int32))
        out.close()

    return [
        Stage("stage3", [Task(f"run_gettracks_{k}", gettracks(k),
                              compute_seconds=cfg.stage3_compute)
                         for k in range(cfg.n_parallel)]),
        Stage("stage4", [Task("run_trackstats", trackstats,
                              compute_seconds=cfg.stage4_compute)],
              parallel=False),
        Stage("stage5", [Task("run_identifymcs", identifymcs,
                              compute_seconds=cfg.stage5_compute)],
              parallel=False),
    ]


@dataclass
class PlacementRun:
    """Per-phase wall times of one variant."""

    label: str
    phase_seconds: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.phase_seconds.values())


def _run_baseline(cfg: Fig11Config) -> PlacementRun:
    env = fresh_env(n_nodes=cfg.n_nodes)
    src = f"/beegfs/flex/{cfg.label}"
    _prepare_inputs(env, cfg, src)
    wf = Workflow("fig11_baseline", _stages_3_to_5(cfg, src, src))
    result = env.runner.run(wf)
    phases = {"Stage-In": 0.0, "Stage-Out": 0.0}
    phases["Stage 3"] = result.stage("stage3").wall_time
    phases["Stage 4"] = result.stage("stage4").wall_time
    phases["Stage 5"] = result.stage("stage5").wall_time
    return PlacementRun("baseline (BeeGFS)", phases)


def _run_optimized(cfg: Fig11Config) -> PlacementRun:
    env = fresh_env(n_nodes=cfg.n_nodes)
    src = f"/beegfs/flex/{cfg.label}"
    paths = _prepare_inputs(env, cfg, src)
    node = env.cluster.node_names()[0]
    local = env.cluster.local_prefix(node, "ssd")
    fs = env.cluster.fs

    # Stage-in: copy all inputs to the co-scheduled node's SSD.
    t0 = env.clock.now
    for path in paths:
        stage_in(fs, path, f"{local}/{path.rsplit('/', 1)[-1]}")
    stage_in_time = env.clock.now - t0

    wf = Workflow("fig11_optimized", _stages_3_to_5(cfg, local, local))
    env.runner.pins = {t.name: node for t in wf.all_tasks()}
    result = env.runner.run(wf)

    # Stage-out: final output back to the shared filesystem.
    t0 = env.clock.now
    stage_out(fs, f"{local}/mcs.h5", f"{src}/mcs.h5", remove_src=False)
    stage_out_time = env.clock.now - t0

    phases = {
        "Stage-In": stage_in_time,
        "Stage 3": result.stage("stage3").wall_time,
        "Stage 4": result.stage("stage4").wall_time,
        "Stage 5": result.stage("stage5").wall_time,
        "Stage-Out": stage_out_time,
    }
    return PlacementRun("DaYu (SSD, co-scheduled)", phases)


def run_fig11(configs: List[Fig11Config] = (C1, C2)) -> ResultTable:
    """Run both variants for each configuration; report phase times and
    speedups (paper: 1.6x overall; 2.6x stage 3 in C1)."""
    table = ResultTable(
        title="Figure 11 — PyFLEXTRKR stages 3-5, baseline vs. DaYu placement",
        columns=["config", "variant"] + list(_PHASES) + ["total_s"],
    )
    for cfg in configs:
        baseline = _run_baseline(cfg)
        optimized = _run_optimized(cfg)
        for run in (baseline, optimized):
            table.add(
                config=cfg.label,
                variant=run.label,
                **{ph: run.phase_seconds[ph] for ph in _PHASES},
                total_s=run.total,
            )
        overall = baseline.total / optimized.total
        stage3 = (baseline.phase_seconds["Stage 3"]
                  / optimized.phase_seconds["Stage 3"])
        table.notes.append(
            f"{cfg.label}: overall speedup {overall:.2f}x "
            f"(paper ~1.6x); stage-3 speedup {stage3:.2f}x"
            + (" (paper ~2.6x)" if cfg.label == "C1" else "")
        )
    return table
