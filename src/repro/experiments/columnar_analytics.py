"""Columnar trace analytics: run-file scan speed vs. the JSON row path.

The columnar run file (:mod:`repro.mapper.columnar`) exists for exactly
one reason: the offline Analyzer reads a handful of *columns* (the
dataset-stats family) out of traces whose bytes are dominated by per-op
records.  A JSON parse must still walk every record; the columnar
reader seeks straight to the stats chunks behind the footer index and
hands the graph builder packed arrays.

Two harnesses quantify that:

- :func:`run_columnar_scaleout` — the synthetic ~1k-node workflow from
  :mod:`repro.experiments.analyzer_scale`, stored two ways (JSON dir,
  one compacted ``.dayuc`` run) and analyzed through each path, with
  byte-identical serialized graphs asserted across both.  This is the
  number gated by ``BENCH_columnar.json``.
- :func:`run_workload_table` — every bundled workload, traced for real,
  then analyzed row-wise and columnar-wise; also checks that the lint
  fingerprint set is byte-identical between the two inputs.  This feeds
  the EXPERIMENTS.md row-vs-columnar table.

Both measure *real* wall-clock time (the Analyzer is offline tooling).
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from repro.analyzer import ParallelAnalyzer, build_ftg, build_sdg, graph_to_json
from repro.experiments.analyzer_scale import (
    SyntheticScale,
    make_synthetic_profiles,
)
from repro.experiments.common import ResultTable, fresh_env
from repro.lint import lint_profiles
from repro.mapper.columnar import RunReader, build_graph_from_groups, compact_profiles
from repro.mapper.persist import load_profiles_from_host_dir

__all__ = [
    "run_columnar_scaleout",
    "run_workload_table",
    "SMOKE_SCALE",
]

#: Reduced shape for CI smoke runs (DAYU_SMOKE=1): same code paths, a few
#: seconds instead of tens.  The speedup gate drops from 10x to 5x there —
#: fixed per-call overhead looms larger on tiny inputs.
SMOKE_SCALE = SyntheticScale(n_tasks=40, files_per_task=10, n_files=220)


def run_columnar_scaleout(
    scale: SyntheticScale = SyntheticScale(),
    io_records_per_stat: int = 64,
    work_dir: Optional[str] = None,
) -> dict:
    """Time JSON-baseline vs. columnar-run graph builds.

    Both stores hold the *same* profiles, per-op records included — the
    columnar path never decodes the record chunks, which is the whole
    point.  Serialized FTG/SDG must be byte-identical across the two.
    """
    profiles = make_synthetic_profiles(
        scale, io_records_per_stat=io_records_per_stat)

    own_dir = work_dir is None
    base = Path(work_dir or tempfile.mkdtemp(prefix="dayu-columnar-"))
    json_dir = base / "json"
    run_path = base / "run.dayuc"
    json_dir.mkdir(parents=True, exist_ok=True)
    try:
        json_bytes = 0
        for p in profiles:
            blob = p.serialize()
            json_bytes += len(blob)
            (json_dir / f"{p.task}.json").write_bytes(blob)
        columnar_bytes = compact_profiles(profiles, run_path)

        # The in-memory synthetic profiles are harness scaffolding, not
        # part of any measured path — free them, or gen-2 GC scans over
        # their millions of records dominate (and randomize) the timings.
        n_profiles = len(profiles)
        del profiles
        gc.collect()

        # Baseline: the seed pipeline — serial JSON parse with per-op
        # records, serial graph build.
        t0 = time.perf_counter()
        baseline_profiles = load_profiles_from_host_dir(
            str(json_dir), with_io_records=True)
        base_ftg = build_ftg(baseline_profiles)
        base_sdg = build_sdg(baseline_profiles)
        baseline_seconds = time.perf_counter() - t0

        # Each path is timed in isolation: drop the previous path's
        # object graph first, or the cyclic GC keeps re-scanning millions
        # of live baseline records inside the next timed region.
        del baseline_profiles
        gc.collect()

        # Columnar: mmap the run, build graphs straight from the stats
        # column arrays — no TaskProfile objects, no record decode.
        t0 = time.perf_counter()
        with RunReader.open(run_path) as reader:
            groups = list(reader)
            col_ftg = build_graph_from_groups("ftg", groups)
            col_sdg = build_graph_from_groups("sdg", groups)
        columnar_seconds = time.perf_counter() - t0

        identical = (
            graph_to_json(base_ftg) == graph_to_json(col_ftg)
            and graph_to_json(base_sdg) == graph_to_json(col_sdg)
        )
    finally:
        if own_dir:
            shutil.rmtree(base, ignore_errors=True)

    return {
        "n_profiles": n_profiles,
        "io_records_per_stat": io_records_per_stat,
        "ftg_nodes": col_ftg.number_of_nodes(),
        "ftg_edges": col_ftg.number_of_edges(),
        "sdg_nodes": col_sdg.number_of_nodes(),
        "sdg_edges": col_sdg.number_of_edges(),
        "json_bytes": json_bytes,
        "columnar_bytes": columnar_bytes,
        "size_ratio": json_bytes / columnar_bytes if columnar_bytes else 0.0,
        "baseline_seconds": baseline_seconds,
        "columnar_seconds": columnar_seconds,
        "speedup": (baseline_seconds / columnar_seconds
                    if columnar_seconds > 0 else 0.0),
        "identical_graphs": identical,
    }


def _trace_workload(name: str, out_dir: Path, scale: float = 1.0) -> int:
    """Run one bundled workload under profiling; save JSON traces."""
    from repro.workloads.registry import build_workload

    env = fresh_env(n_nodes=2)
    workflow, prepare = build_workload(name, scale)
    if prepare is not None:
        prepare(env.cluster)
    env.runner.run(workflow)
    return len(env.mapper.save_to_host_dir(str(out_dir)))


def run_workload_table(
    workloads: Optional[List[str]] = None,
    work_dir: Optional[str] = None,
) -> ResultTable:
    """Row vs. columnar analyze time and lint parity, per bundled workload.

    For each workload: trace it, compact the row traces into one run
    file, build FTG+SDG and lint both ways, and record wall times plus
    whether graphs and lint fingerprints came out byte-identical.
    """
    from repro.workloads.registry import WORKLOADS

    names = list(workloads) if workloads is not None else list(WORKLOADS)
    own_dir = work_dir is None
    base = Path(work_dir or tempfile.mkdtemp(prefix="dayu-wltable-"))
    table = ResultTable(
        title="Row vs. columnar analyze time per bundled workload",
        columns=["workload", "tasks", "row_ms", "columnar_ms",
                 "speedup", "graphs_identical", "lint_identical"],
        notes=["Row path: serial load of per-task traces with per-op "
               "records + graph build + lint.  Columnar path: mmap one "
               "compacted run file, build graphs from stats columns, "
               "lint the run's profiles."],
    )
    try:
        for name in names:
            rows_dir = base / name / "rows"
            rows_dir.mkdir(parents=True, exist_ok=True)
            run_path = base / name / "run.dayuc"
            n = _trace_workload(name, rows_dir)

            analyzer = ParallelAnalyzer(max_workers=1, with_io_records=True)

            t0 = time.perf_counter()
            profiles = analyzer.load(str(rows_dir))
            row_ftg = build_ftg(profiles)
            row_sdg = build_sdg(profiles)
            row_lint = lint_profiles(profiles)
            row_seconds = time.perf_counter() - t0

            compact_profiles(profiles, run_path)

            t0 = time.perf_counter()
            with RunReader.open(run_path) as reader:
                groups = list(reader)
                col_ftg = build_graph_from_groups("ftg", groups)
                col_sdg = build_graph_from_groups("sdg", groups)
            col_lint = analyzer.lint_run(str(run_path))
            col_seconds = time.perf_counter() - t0

            graphs_ok = (graph_to_json(row_ftg) == graph_to_json(col_ftg)
                         and graph_to_json(row_sdg) == graph_to_json(col_sdg))
            lint_ok = ({f.fingerprint for f in row_lint.findings}
                       == {f.fingerprint for f in col_lint.findings})
            table.add(
                workload=name,
                tasks=n,
                row_ms=f"{row_seconds * 1e3:.1f}",
                columnar_ms=f"{col_seconds * 1e3:.1f}",
                speedup=(f"{row_seconds / col_seconds:.2f}x"
                         if col_seconds else "-"),
                graphs_identical="yes" if graphs_ok else "NO",
                lint_identical="yes" if lint_ok else "NO",
            )
    finally:
        if own_dir:
            shutil.rmtree(base, ignore_errors=True)

    return table
