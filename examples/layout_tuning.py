#!/usr/bin/env python
"""Data-layout tuning: the ARLDM variable-length data study.

Reproduces the paper's Section VI-C workflow:

1. run the ARLDM data-preparation stage with its default contiguous
   layout for variable-length image/text arrays;
2. let DaYu flag the layout (variable-length data → chunked, per the
   Section III-A.4 guidelines) and show the per-region SDG fragmentation;
3. rewrite the file with the layout converter and compare POSIX write
   operations and write time (the paper's Figures 8 and 13c);
4. demonstrate the consolidation tool on a scattered small-dataset file
   (the PyFLEXTRKR stage-9 fix, Figure 13a).

Run:  python examples/layout_tuning.py
"""

import numpy as np

from repro.analyzer import NodeKind, build_sdg
from repro.experiments.common import fresh_env
from repro.guidelines import AccessPattern, advise_layout
from repro.hdf5 import H5File
from repro.lint import ADVISORY, lint_profiles
from repro.middleware import consolidate_datasets, convert_layout, read_consolidated
from repro.workloads.arldm import ArldmParams, build_arldm


def vlen_layout_study() -> None:
    print("=== ARLDM: variable-length data layout ===")
    for layout in ("contiguous", "chunked"):
        env = fresh_env(n_nodes=1)
        params = ArldmParams(data_dir="/beegfs/arldm", items=20,
                             avg_image_bytes=131072, layout=layout, chunks=5,
                             heap_data_capacity=131072)
        result = env.runner.run(build_arldm(params))
        save = env.mapper.profiles["arldm_saveh5"]
        writes = sum(s.writes for s in save.dataset_stats)
        wall = result.stage("arldm_prepare").wall_time
        print(f"  {layout:<11} arldm_saveh5: {wall * 1e3:7.1f} ms, "
              f"{writes} POSIX writes")
        if layout == "contiguous":
            report = lint_profiles([save], ADVISORY)
            for finding in [f for f in report.findings
                            if f.code == "DY105"][:1]:
                print(f"    DaYu: {finding.message}")
            sdg = build_sdg([save], with_regions=True, region_bytes=262144)
            regions = [n for n, a in sdg.nodes(data=True)
                       if a["kind"] == NodeKind.REGION.value]
            print(f"    SDG shows dataset content spread over "
                  f"{len(regions)} file address regions (cf. Figure 8)")

    advice = advise_layout("vlen-bytes", 20, AccessPattern.RANDOM)
    print(f"  guideline: {advice.layout} — {advice.rationale}\n")


def consolidation_study() -> None:
    print("=== PyFLEXTRKR stage-9: consolidating scattered datasets ===")
    env = fresh_env(n_nodes=1)
    fs = env.cluster.fs
    scattered = "/beegfs/speed_stats.h5"
    with H5File(fs, scattered, "w") as f:
        for d in range(32):
            f.create_dataset(f"speed_{d:03d}", shape=(100,), dtype="i4",
                             data=np.arange(100, dtype=np.int32) * d)
    consolidate_datasets(fs, scattered, "/beegfs/speed_stats_merged.h5")

    def read_all(path, consolidated):
        fs.clear_log()
        t0 = env.clock.now
        with H5File(fs, path, "r") as f:
            if consolidated:
                big = f["consolidated"]
                for d in range(32):
                    read_consolidated(big, f"speed_{d:03d}")
            else:
                for d in range(32):
                    f[f"speed_{d:03d}"].read()
        return fs.op_count(op="read"), env.clock.now - t0

    ops_scattered, t_scattered = read_all(scattered, False)
    ops_merged, t_merged = read_all("/beegfs/speed_stats_merged.h5", True)
    print(f"  scattered:    {ops_scattered} read ops, {t_scattered * 1e3:6.2f} ms")
    print(f"  consolidated: {ops_merged} read ops, {t_merged * 1e3:6.2f} ms "
          f"({t_scattered / t_merged:.1f}x faster, cf. Figure 13a)\n")


def layout_converter_study() -> None:
    print("=== DDMD: chunked → contiguous conversion ===")
    env = fresh_env(n_nodes=1)
    fs = env.cluster.fs
    src = "/beegfs/sim_out.h5"
    with H5File(fs, src, "w") as f:
        for name, n in (("contact_map", 65536), ("point_cloud", 16384),
                        ("fnc", 1024), ("rmsd", 1024)):
            f.create_dataset(name, shape=(n,), dtype="f4",
                             layout="chunked", chunks=(max(n // 8, 1),),
                             data=np.zeros(n, dtype=np.float32))
    n = convert_layout(fs, src, "/beegfs/sim_out_contig.h5", layout="auto")
    print(f"  rewrote {n} datasets with the layout advisor")

    def read_ops(path):
        fs.clear_log()
        with H5File(fs, path, "r") as f:
            for name in ("contact_map", "point_cloud", "fnc", "rmsd"):
                f[name].read()
        return fs.op_count(op="read")

    before, after = read_ops(src), read_ops("/beegfs/sim_out_contig.h5")
    print(f"  full-file read: {before} ops (chunked) → {after} ops "
          f"(contiguous), cf. Figure 13b")


def main() -> None:
    vlen_layout_study()
    consolidation_study()
    layout_converter_study()


if __name__ == "__main__":
    main()
