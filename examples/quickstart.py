#!/usr/bin/env python
"""Quickstart: profile a single task's dataflow with DaYu.

This example builds the smallest end-to-end DaYu pipeline:

1. a simulated node with a BeeGFS-like shared mount;
2. one task writing and reading datasets through the instrumented
   (VOL + VFD) HDF5-like stack;
3. the Data Semantic Mapper joining object semantics with low-level I/O;
4. the Workflow Analyzer rendering the Semantic Dataflow Graph — the
   paper's Figure 3 view — as a standalone interactive HTML file.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analyzer import build_sdg, to_html
from repro.hdf5 import Selection
from repro.lint import ADVISORY, lint_profiles
from repro.mapper import DaYuConfig, DataSemanticMapper, overhead_report
from repro.posix import SimFS
from repro.simclock import SimClock
from repro.storage import Mount, make_device


def main() -> None:
    # A one-node "cluster": a shared parallel-filesystem mount.
    clock = SimClock()
    fs = SimFS(clock, mounts=[Mount("/pfs", make_device("beegfs"))])

    # DaYu: the Input Parser reads the configuration...
    config = DaYuConfig.parse({"page_size": 4096}, clock)
    mapper = DataSemanticMapper(clock, config)

    # ...and the launcher announces each task.
    with mapper.task("quickstart_task") as ctx:
        f = ctx.open(fs, "/pfs/quickstart.h5", "w")
        # A contiguous dataset: whole-array access in one I/O.
        temps = f.create_dataset("dataset_1", shape=(4096,), dtype="f8",
                                 data=np.linspace(250.0, 320.0, 4096))
        # A chunked dataset: partial access touches only two chunks.
        counts = f.create_dataset("dataset_2", shape=(4096,), dtype="i4",
                                  layout="chunked", chunks=(512,),
                                  data=np.arange(4096, dtype=np.int32))
        temps.read()
        counts.read(Selection.hyperslab(((1024, 1024),)))
        f.close()

    profile = mapper.profiles["quickstart_task"]
    print(f"Task ran for {profile.duration * 1e3:.2f} simulated ms, "
          f"touching {len(profile.files)} file(s).\n")

    print("Per-dataset I/O statistics (the Characteristic Mapper join):")
    for stats in profile.dataset_stats:
        print(f"  {stats.data_object:<16} {stats.operation:<10} "
              f"ops={stats.access_count:<4} volume={stats.access_volume:>8} B  "
              f"metadata/data = {stats.metadata_ops}/{stats.data_ops}  "
              f"bandwidth={stats.bandwidth / 1e6:.1f} MB/s")

    report = overhead_report(clock, trace_storage_bytes=mapper.storage_bytes,
                             data_volume_bytes=mapper.data_volume())
    print(f"\nDaYu overhead: {report.total_percent:.3f}% of runtime "
          f"(VFD {report.vfd_percent:.3f}% / VOL {report.vol_percent:.3f}%), "
          f"trace storage {report.storage_percent:.3f}% of data volume.")

    advice = lint_profiles([profile], ADVISORY)
    print()
    for finding in advice.findings:
        print(f"  {finding}")
    print(advice.summary())

    sdg = build_sdg([profile], with_regions=True, region_bytes=4096)
    out = "quickstart_sdg.html"
    with open(out, "w") as fh:
        fh.write(to_html(sdg, title="Quickstart SDG (cf. paper Figure 3)"))
    print(f"\nWrote the interactive Semantic Dataflow Graph to ./{out}")


if __name__ == "__main__":
    main()
