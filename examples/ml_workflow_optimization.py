#!/usr/bin/env python
"""Molecular simulation with deep learning: optimize DDMD with DaYu.

Reproduces the paper's Section VI-B loop:

1. run the 4-stage DeepDriveMD pipeline (12 simulations → aggregate →
   training → inference) under DaYu profiling;
2. surface the key insight — the training task opens the aggregated
   ``contact_map`` but never reads its *data* (metadata-only access, the
   paper's Figure 7 pop-up) — plus the training/inference independence;
3. apply the optimizations (skip the unused dataset, stage simulation
   outputs to node-local SSD, co-locate, pipeline training+inference) and
   measure the per-iteration speedup (the paper's Figure 12).

Run:  python examples/ml_workflow_optimization.py
"""

from repro.experiments.common import fresh_env
from repro.experiments.fig12_ddmd import Fig12Params, run_fig12
from repro.lint import ADVISORY, lint_profiles
from repro.workloads.ddmd import DdmdParams, build_ddmd


def main() -> None:
    # ---------------- phase 1: profile the baseline -------------------
    env = fresh_env(n_nodes=2)
    params = DdmdParams(data_dir="/beegfs/ddmd", n_sim_tasks=12,
                        frames=1024, epochs=10, chunk_elems=1024)
    print("Running one DDMD iteration (12 simulations) under DaYu...")
    env.runner.run(build_ddmd(params))
    profiles = list(env.mapper.profiles.values())

    # The Figure 7 pop-up, straight from the joined statistics:
    training = env.mapper.profiles["training_0000"]
    for s in training.stats_for("/contact_map"):
        where = "aggregated file" if "aggregated" in s.file else "simulation file"
        print(f"  training → contact_map ({where}): "
              f"{s.access_count} accesses, {s.data_ops} data ops, "
              f"{s.metadata_ops} metadata ops "
              f"({'METADATA-ONLY' if s.metadata_only else 'reads data'})")

    report = lint_profiles(profiles, ADVISORY)
    print("\nKey insights DaYu finds:")
    # partial access, sequential scans, task independence, metadata
    # overhead, read-after-write
    for code in ("DY707", "DY709", "DY710", "DY708", "DY703"):
        for finding in [f for f in report.findings if f.code == code][:2]:
            print(f"  - {finding}")

    # ------------- phase 2: apply the guidelines and measure ----------
    print("\nApplying the optimizations over 3 iterations "
          "(skip unused data + stage-in + co-locate + pipeline)...")
    table = run_fig12(Fig12Params(iterations=3))
    print(table.to_markdown())


if __name__ == "__main__":
    main()
