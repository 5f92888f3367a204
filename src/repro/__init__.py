"""DaYu reproduction: dataflow semantics and dynamics for scientific workflows.

A from-scratch Python implementation of the system described in *"DaYu:
Optimizing Distributed Scientific Workflows by Decoding Dataflow Semantics
and Dynamics"* (IEEE CLUSTER 2024), together with every substrate it runs
on — an HDF5-like and a netCDF-like self-describing format, a simulated
POSIX/storage stack with calibrated device models, a multi-node cluster and
workflow engine, and the paper's three case-study workloads.

Package map (bottom of the stack first):

- :mod:`repro.simclock`, :mod:`repro.storage`, :mod:`repro.posix` — the
  simulated time base, device cost models, and POSIX filesystem;
- :mod:`repro.vfd`, :mod:`repro.hdf5`, :mod:`repro.netcdf`,
  :mod:`repro.vol` — the instrumented I/O stacks;
- :mod:`repro.mapper`, :mod:`repro.analyzer`, :mod:`repro.lint`,
  :mod:`repro.guidelines` — DaYu itself;
- :mod:`repro.middleware`, :mod:`repro.optimizer` — the optimization
  machinery (tiered caching, staging, consolidation, layout conversion,
  automated planning, transparent runtime caching);
- :mod:`repro.cluster`, :mod:`repro.workflow`, :mod:`repro.workloads`,
  :mod:`repro.experiments` — execution environments, the case studies,
  and the per-figure evaluation harnesses;
- :mod:`repro.cli` — the ``dayu-run`` / ``dayu-analyze`` toolset.

See ``README.md`` for a quickstart, ``DESIGN.md`` for the system inventory
and substitutions, and ``EXPERIMENTS.md`` for paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
