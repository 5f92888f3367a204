"""Workload reimplementations: the paper's case studies as I/O skeletons.

Each module reproduces one evaluated workload's *dataflow* — same stages,
task counts, file and dataset topology, and access patterns — with the
numeric compute replaced by modeled compute time (DaYu analyzes I/O, not
math):

- :mod:`~repro.workloads.pyflextrkr` — the nine-stage storm-tracking
  pipeline (paper Section VI-A, Figures 4-5, 11, 13a).
- :mod:`~repro.workloads.ddmd` — DeepDriveMD's simulation/aggregation/
  training/inference loop (Section VI-B, Figures 6-7, 12, 13b).
- :mod:`~repro.workloads.arldm` — the ARLDM image-synthesis data prep with
  variable-length image/text data (Section VI-C, Figures 8, 13c).
- :mod:`~repro.workloads.h5bench` — the parallel I/O kernel used for
  overhead scaling (Figures 9a-b, 10a).
- :mod:`~repro.workloads.corner_case` — the 200-dataset worst-case Python
  benchmark (Figures 9c-d, 10b).
"""

from repro.workloads.arldm import ArldmParams, build_arldm
from repro.workloads.climate import ClimateParams, build_climate
from repro.workloads.corner_case import CornerCaseParams, build_corner_case
from repro.workloads.ddmd import DdmdParams, build_ddmd
from repro.workloads.h5bench import H5benchParams, build_h5bench_read, build_h5bench_write
from repro.workloads.pyflextrkr import (
    PyflextrkrParams,
    build_pyflextrkr,
    prepare_pyflextrkr_inputs,
)

__all__ = [
    "PyflextrkrParams",
    "build_pyflextrkr",
    "prepare_pyflextrkr_inputs",
    "DdmdParams",
    "build_ddmd",
    "ArldmParams",
    "build_arldm",
    "H5benchParams",
    "build_h5bench_write",
    "build_h5bench_read",
    "CornerCaseParams",
    "build_corner_case",
    "ClimateParams",
    "build_climate",
]
