"""End-to-end, layer-by-layer benchmark of the DaYu reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

``--trace 0`` measures untraced passes and prints the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates traced and untraced
passes and prints the per-layer metrics: each layer's self time per
pass, the residual no layer covers, and the tracing overhead.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it stamps
the environment.  The full record (environment, pass times, spans,
percentile sample counts, failed checks) goes to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from harness import check_metrics, self_times  # noqa: E402


def _parse(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of ``src/`` — identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment(args, sizes: Dict[str, object]) -> Dict[str, object]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _per_layer(m, spec: List[dict]) -> Dict[str, float]:
    """Per-layer values: self times and residual as means per traced
    pass (so they add up to the mean traced wall), counters as measured,
    and 0 for a layer this workload never calls."""
    values = {s["name"]: 0.0 for s in spec}
    n = len(m.traced)
    totals: Dict[str, float] = {}
    residual = wall = 0.0
    for tree in m.traced:
        charged, rest = self_times(tree)
        for name, secs in charged.items():
            totals[name] = totals.get(name, 0.0) + secs
        residual += rest
        wall += tree[0].end - tree[0].start
    for name, secs in totals.items():
        values[f"{name}_s"] = secs / n
    values["bench.residual_s"] = residual / n
    values["bench.traced_wall_s"] = wall / n
    traced_med = statistics.median(t[0].end - t[0].start for t in m.traced)
    untraced_med = statistics.median(m.walls)
    values["bench.tracing_overhead_pct"] = (
        100.0 * (traced_med - untraced_med) / untraced_med)
    if "workflow.simulate" in totals:
        values["workflow.decision_us"] = (
            1e6 * values["workflow.simulate_s"]
            / m.counters["workflow.decisions"])
    for name in values:
        if name in m.counters:
            values[name] = float(m.counters[name])
    unknown = sorted(f"{name}_s" for name in totals
                     if f"{name}_s" not in values)
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {unknown}")
    return values


def main(argv: List[str] | None = None) -> int:
    args = _parse(argv if argv is not None else sys.argv[1:])
    started = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        setup_s = import_s + wl.setup()
        m = wl.measure(args.seconds, traced=bool(args.trace))
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    checks = wl.checks
    attempted = checks.attempted
    if args.trace:
        entries = spec["per_layer"]
        values = _per_layer(m, entries)
    else:
        entries = spec["end_to_end"]
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(m.walls),
            "peak_rss_mb": _peak_rss_mb(),
            "ops_ok_frac": 1.0 - checks.failed / attempted,
        }
    units = {e["name"]: e["unit"] for e in entries}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    problems = check_metrics(metrics, entries)
    if problems:
        raise RuntimeError("; ".join(problems))

    env = _environment(args, wl.sizes())
    record = {
        "environment": env,
        "setup_s": setup_s,
        "walls": m.walls,
        "traced_walls": [t[0].end - t[0].start for t in m.traced],
        "counters": m.counters,
        "detail": m.detail,
        "observed": getattr(wl, "observed", None),
        "failed_checks": checks.notes,
        "metrics": metrics,
        "spans": [[list(s) for s in tree] for tree in m.traced],
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for note in checks.notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print("# environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
