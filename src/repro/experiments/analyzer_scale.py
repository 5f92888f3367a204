"""Workflow Analyzer scalability (paper Section VII-B, closing claim).

"The Workflow Analyzer takes less than 15 seconds to analyze a graph with
1k nodes and 6k edges, and less than 2 seconds to construct the
corresponding FTG and SDG in HTML format."

The Analyzer is offline tooling, so — unlike the simulated runtimes used
everywhere else — this experiment measures *real* wall-clock time with
``time.perf_counter``.

The end-to-end *trace-to-graphs* pipeline over the same synthetic
profiles is timed by
:func:`repro.experiments.columnar_analytics.run_columnar_scaleout`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from repro.analyzer import build_ftg, build_sdg, to_html
from repro.lint import ADVISORY, lint_profiles
from repro.mapper.mapper import TaskProfile
from repro.mapper.stats import DatasetIoStats
from repro.simclock import TimeSpan
from repro.vfd.base import IoClass
from repro.vfd.tracing import FileSession, VfdIoRecord
from repro.vol.tracer import DataObjectProfile

__all__ = [
    "SyntheticScale",
    "make_synthetic_profiles",
    "run_analyzer_scale",
]


@dataclass(frozen=True)
class SyntheticScale:
    """Synthetic workflow shape targeting ~1k graph nodes / ~6k edges."""

    n_tasks: int = 150
    files_per_task: int = 20
    n_files: int = 850
    datasets_per_file: int = 2


def _synthetic_records(
    stats: DatasetIoStats, n: int, t: int
) -> List[VfdIoRecord]:
    """Deterministic per-op records consistent with one stats row."""
    op = "write" if stats.writes else "read"
    records = []
    for i in range(n):
        records.append(VfdIoRecord(
            task=stats.task,
            file=stats.file,
            op=op,
            offset=i * 4096,
            nbytes=4096,
            start=float(t) + i * 1e-4,
            duration=1e-5,
            access_type=IoClass.METADATA if i % 8 == 0 else IoClass.RAW,
            data_object=stats.data_object,
        ))
    return records


def make_synthetic_profiles(
    scale: SyntheticScale = SyntheticScale(),
    io_records_per_stat: int = 0,
) -> List[TaskProfile]:
    """Deterministic synthetic task profiles with realistic edge density.

    ``io_records_per_stat`` > 0 additionally populates per-operation
    records, file sessions, and object profiles — the trace sections that
    dominate on-disk size but that graph construction never reads.
    """
    profiles: List[TaskProfile] = []
    for t in range(scale.n_tasks):
        task = f"task_{t:04d}"
        stats: List[DatasetIoStats] = []
        for k in range(scale.files_per_task):
            file_idx = (t * 7 + k * 13) % scale.n_files
            file = f"/pfs/synth/file_{file_idx:05d}.h5"
            for d in range(scale.datasets_per_file):
                s = DatasetIoStats(task=task, file=file, data_object=f"/ds{d}")
                if (t + k + d) % 3 == 0:
                    s.writes = 4
                    s.bytes_written = 1 << 16
                    s.data_ops = 3
                    s.data_bytes = 1 << 16
                    s.metadata_ops = 1
                    s.metadata_bytes = 512
                    s.first_raw_op = "write"
                else:
                    s.reads = 2
                    s.bytes_read = 1 << 14
                    s.data_ops = 2
                    s.data_bytes = 1 << 14
                    s.first_raw_op = "read"
                s.io_time = 0.001
                s.first_start = float(t)
                s.last_end = float(t) + 0.5
                s.regions = {0: 1, (t + d) % 8: 1}
                stats.append(s)
        object_profiles: List[DataObjectProfile] = []
        file_sessions: List[FileSession] = []
        io_records: List[VfdIoRecord] = []
        if io_records_per_stat > 0:
            for s in stats:
                io_records.extend(
                    _synthetic_records(s, io_records_per_stat, t))
                object_profiles.append(DataObjectProfile(
                    task=task, file=s.file, object_name=s.data_object,
                    acquired=float(t), released=float(t) + 0.5,
                    open_count=1, shape=(4096,), dtype="float32",
                    layout="contiguous", nbytes=s.access_volume,
                    reads=s.reads, writes=s.writes,
                ))
            for file in sorted({s.file for s in stats}):
                file_sessions.append(FileSession(
                    task=task, file=file, open_time=float(t),
                    close_time=float(t) + 1.0,
                ))
        profiles.append(TaskProfile(
            task=task,
            span=TimeSpan(float(t), float(t) + 1.0),
            files=sorted({s.file for s in stats}),
            object_profiles=object_profiles,
            file_sessions=file_sessions,
            io_records=io_records,
            dataset_stats=stats,
        ))
    return profiles


def run_analyzer_scale(scale: SyntheticScale = SyntheticScale()) -> dict:
    """Measure analysis and rendering wall time on the synthetic workflow.

    Returns a dict with graph sizes and the two timings the paper reports.
    """
    profiles = make_synthetic_profiles(scale)

    t0 = time.perf_counter()
    ftg = build_ftg(profiles)
    sdg = build_sdg(profiles)
    report = lint_profiles(profiles, ADVISORY)
    analyze_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    ftg_html = to_html(ftg, title="synthetic FTG")
    sdg_html = to_html(sdg, title="synthetic SDG")
    render_seconds = time.perf_counter() - t0

    return {
        "ftg_nodes": ftg.number_of_nodes(),
        "ftg_edges": ftg.number_of_edges(),
        "sdg_nodes": sdg.number_of_nodes(),
        "sdg_edges": sdg.number_of_edges(),
        "findings": len(report.findings),
        "analyze_seconds": analyze_seconds,
        "render_seconds": render_seconds,
        "html_bytes": len(ftg_html) + len(sdg_html),
    }

