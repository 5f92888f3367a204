"""Figure 9: Data Semantic Mapper overhead scaling.

Four panels, reproduced with sizes scaled ~1000× down from the paper's
(GB → MB); the swept axes and the *shapes* are the paper's:

- **9a** — h5bench, total file size sweep: VFD/VOL execution overhead %
  stays tiny and *decreases* as file size grows.
- **9b** — h5bench, process-count sweep at fixed volume per process:
  overhead % decreases with parallelism.
- **9c** — corner-case Python benchmark, dataset-I/O-operation sweep at
  fixed file size: runtime overhead *increases* with operation count
  (toward a few %, VFD > VOL).
- **9d** — corner-case storage overhead: VOL trace size is flat (profiles
  are per-object, not per-op); VFD trace grows linearly with operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.common import ResultTable, fresh_env
from repro.mapper.overhead import overhead_report
from repro.workloads.corner_case import CornerCaseParams, build_corner_case
from repro.workloads.h5bench import H5benchParams, build_h5bench_write

__all__ = [
    "run_fig9a_filesize",
    "run_fig9b_processes",
    "run_fig9c_read_scaling",
    "run_fig9d_storage",
]

MIB = 1 << 20


def _h5bench_overhead(n_procs: int, total_bytes: int) -> dict:
    env = fresh_env(n_nodes=2)
    params = H5benchParams(
        data_dir="/beegfs/h5bench",
        n_procs=n_procs,
        bytes_per_proc=max(total_bytes // n_procs, 1 << 12),
        ops_per_proc=8,
    )
    env.runner.run(build_h5bench_write(params))
    report = overhead_report(
        env.clock,
        trace_storage_bytes=env.mapper.storage_bytes,
        data_volume_bytes=env.mapper.data_volume(),
    )
    # Figure 9 isolates pure tracing overhead: with no monitor attached,
    # the live-monitoring account must not have accrued a single tick.
    assert report.monitor == 0.0, "unmonitored run charged monitor time"
    return {
        "vfd_percent": report.vfd_percent,
        "vol_percent": report.vol_percent,
        "storage_percent": report.storage_percent,
    }


def run_fig9a_filesize(sizes_mib: List[int] = (10, 20, 40, 80)) -> ResultTable:
    """H5bench data-size scaling (paper Figure 9a).

    Paper: VFD 0.02-0.14%, VOL below it, both decreasing with file size.
    """
    table = ResultTable(
        title="Figure 9a — h5bench overhead vs. total file size",
        columns=["file_size_mib", "vfd_percent", "vol_percent"],
        notes=["Sizes scaled ~1000x down from the paper's 10-80 GB; "
               "fixed 4 processes."],
    )
    for size in sizes_mib:
        r = _h5bench_overhead(n_procs=4, total_bytes=size * MIB)
        table.add(file_size_mib=size,
                  vfd_percent=r["vfd_percent"], vol_percent=r["vol_percent"])
    return table


def run_fig9b_processes(procs: List[int] = (8, 16, 32, 64)) -> ResultTable:
    """H5bench process scaling at fixed volume per process (Figure 9b).

    Paper: 1 GB per process, 16-64 processes, overhead decreasing.
    """
    table = ResultTable(
        title="Figure 9b — h5bench overhead vs. process count",
        columns=["processes", "vfd_percent", "vol_percent"],
        notes=["Fixed 1 MiB per process (paper: 1 GB per process)."],
    )
    for n in procs:
        r = _h5bench_overhead(n_procs=n, total_bytes=n * MIB)
        table.add(processes=n,
                  vfd_percent=r["vfd_percent"], vol_percent=r["vol_percent"])
    return table


def _corner_case(read_repeats: int, file_bytes: int) -> tuple:
    env = fresh_env(n_nodes=1)
    params = CornerCaseParams(
        data_dir="/beegfs/corner",
        n_datasets=200,
        file_bytes=file_bytes,
        read_repeats=read_repeats,
    )
    env.runner.run(build_corner_case(params))
    profile = env.mapper.profiles["corner_case"]
    report = overhead_report(
        env.clock,
        trace_storage_bytes=env.mapper.storage_bytes,
        data_volume_bytes=file_bytes,  # the program's required storage
    )
    assert report.monitor == 0.0, "unmonitored run charged monitor time"
    return params, profile, report


def run_fig9c_read_scaling(
    repeats: List[int] = (0, 10, 20, 30, 40),
    file_bytes: int = 50 * MIB,
) -> ResultTable:
    """Corner-case runtime overhead vs. dataset I/O operations (Figure 9c).

    Paper: 200 datasets in a 200 MB file; overhead climbs toward ~3% VFD /
    ~1% VOL as dataset I/O operations approach 8000.
    """
    table = ResultTable(
        title="Figure 9c — corner-case runtime overhead vs. dataset I/O count",
        columns=["dataset_io_operations", "vfd_percent", "vol_percent"],
        notes=["200 datasets; file size scaled to "
               f"{file_bytes // MIB} MiB (paper: 200 MB)."],
    )
    for r in repeats:
        params, profile, report = _corner_case(r, file_bytes)
        table.add(
            dataset_io_operations=params.dataset_io_operations,
            vfd_percent=report.vfd_percent,
            vol_percent=report.vol_percent,
        )
    return table


def run_fig9d_storage(
    repeats: List[int] = (0, 10, 20, 30, 40),
    file_bytes: int = 200 * MIB,
) -> ResultTable:
    """Corner-case storage overhead vs. I/O operations (Figure 9d).

    Paper: VOL trace flat (~0.2% of program storage); VFD linear in ops
    (~0.35% at 8000 ops).  Measured as the bytes each trace adds to
    DaYu's columnar trace format; the JSON interchange form is ~3x
    larger.
    """
    table = ResultTable(
        title="Figure 9d — trace storage overhead vs. I/O operations",
        columns=["io_operations", "vfd_storage_percent", "vol_storage_percent"],
        notes=["Denominator: the program's required storage "
               f"({file_bytes // MIB} MiB); columnar trace format."],
    )
    for r in repeats:
        env = fresh_env(n_nodes=1)
        params = CornerCaseParams(
            data_dir="/beegfs/corner", n_datasets=200,
            file_bytes=file_bytes, read_repeats=r,
        )
        env.runner.run(build_corner_case(params))
        profile = env.mapper.profiles["corner_case"]
        table.add(
            io_operations=len(profile.io_records),
            vfd_storage_percent=100.0 * profile.vfd_binary_bytes / file_bytes,
            vol_storage_percent=100.0 * profile.vol_binary_bytes / file_bytes,
        )
    return table
