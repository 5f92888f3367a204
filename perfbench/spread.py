"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
computes it: for each workload, one run per seed, then each metric's
interquartile range over its median.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads pipeline schedule-dag --seeds 1 2 3 4 5

Prints one row per (workload, metric) with the median, the spread and
the metric's bound from ``BENCHMARK.json``, and writes every run's
result line to ``.perfbench_out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import iqr_share

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(prog="perfbench/spread.py")
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    args = p.parse_args()

    runs = {}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=900)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "spread.json").write_text(json.dumps(runs, indent=1) + "\n")

    print("\n| workload | metric | median | IQR/median | bound |")
    print("|---|---|---|---|---|")
    for workload, results in runs.items():
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            print(f"| {workload} | {m['name']} | "
                  f"{statistics.median(values):.6g} | "
                  f"{iqr_share(values):.4f} | {m['bound']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
