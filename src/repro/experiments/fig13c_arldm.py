"""Figure 13c: ARLDM variable-length data — contiguous vs. chunked layout.

The paper measures ``arldm_saveh5``'s execution time (the write of the
whole output file) with the default contiguous layout and with chunked
layouts of 5 and 10 chunks, at dataset scales of 5/10/20 GB (here scaled
to 5/10/20 MB, element sizes growing with total size exactly as
flintstones' fixed story count does).

Mechanism reproduced: contiguous VL storage writes every element into the
global heap individually — and once elements outgrow a heap collection,
each costs a dedicated collection (data write + directory metadata write).
Chunked VL batches a chunk's elements into one collection: one data write
plus one directory per chunk, cutting POSIX writes by ~2x.  Paper
headlines: up to 1.4x faster writes, ~2x fewer I/O operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ResultTable, fresh_env
from repro.workloads.arldm import ArldmParams, build_arldm

__all__ = ["Fig13cParams", "run_fig13c"]

MIB = 1 << 20


@dataclass(frozen=True)
class Fig13cParams:
    """Experiment scale.

    Attributes:
        total_mib: Output-file scales (paper: 5/10/20 GB → 5/10/20 MiB).
        items: Variable-length elements per dataset (fixed — the dataset's
            story count doesn't change with image resolution).
        chunk_counts: Chunked variants (paper: 5 and 10 chunks).
        heap_capacity: Global-heap collection size; elements beyond it get
            dedicated collections.
    """

    total_mib: tuple = (5, 10, 20)
    items: int = 20
    chunk_counts: tuple = (5, 10)
    heap_capacity: int = 131072


def _variant(p: Fig13cParams, total_mib: int, layout: str, chunks: int) -> float:
    """Wall time of the arldm_saveh5 stage for one variant."""
    avg_bytes = total_mib * MIB // (p.items * 6)  # 5 image datasets + text
    params = ArldmParams(
        data_dir="/beegfs/arldm13c",
        items=p.items,
        avg_image_bytes=avg_bytes,
        avg_text_bytes=max(avg_bytes // 16, 16),
        layout=layout,
        chunks=chunks,
        heap_data_capacity=p.heap_capacity,
        compute_seconds=0.0,
    )
    env = fresh_env(n_nodes=1)
    result = env.runner.run(build_arldm(params))
    save_profile = env.mapper.profiles["arldm_saveh5"]
    write_ops = sum(s.writes for s in save_profile.dataset_stats)
    return result.stage("arldm_prepare").wall_time, write_ops


def run_fig13c(params: Fig13cParams = Fig13cParams()) -> ResultTable:
    """Sweep total size for contiguous vs. 5-chunk vs. 10-chunk layouts."""
    table = ResultTable(
        title="Figure 13c — ARLDM arldm_saveh5: contiguous vs. chunked VL",
        columns=["total_mib", "variant", "write_seconds", "write_ops",
                 "speedup_vs_contig"],
        notes=["Scales reduced 1024x from the paper's 5/10/20 GB; element "
               "sizes grow with total size (fixed story count)."],
    )
    for total in params.total_mib:
        contig_time, contig_ops = _variant(params, total, "contiguous", 0)
        table.add(total_mib=total, variant="contiguous (baseline)",
                  write_seconds=contig_time, write_ops=contig_ops,
                  speedup_vs_contig=1.0)
        for n_chunks in params.chunk_counts:
            t, ops = _variant(params, total, "chunked", n_chunks)
            table.add(total_mib=total, variant=f"{n_chunks} chunks",
                      write_seconds=t, write_ops=ops,
                      speedup_vs_contig=contig_time / t if t > 0 else float("inf"))
    return table
