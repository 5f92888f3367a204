"""The ``dayu-compact`` command-line entry point.

Merges many per-task trace files — any mix of ``*.json`` and
``*.dayuc`` — into one sorted, footer-indexed columnar run file, so
opening an entire run for analysis is a single ``open``/``mmap`` instead
of one parse per task.  Groups are ordered by task start time, the same
execution order every loader produces, which keeps graphs and lint
reports built from the compacted run byte-identical to the per-file row
path.

Examples::

    dayu-compact traces/ --out run.dayuc
    dayu-compact traces/ --out run.dayuc --no-records   # stats-only run
"""

from __future__ import annotations

import argparse
import sys
from typing import List

__all__ = ["compact_main"]


def compact_main(argv: List[str] | None = None) -> int:
    """Entry point of ``dayu-compact``."""
    parser = argparse.ArgumentParser(
        prog="dayu-compact",
        description="Merge per-task DaYu traces into one sorted, "
                    "footer-indexed columnar run file (*.dayuc).",
    )
    parser.add_argument("traces",
                        help="directory of saved task profiles "
                             "(*.json and/or *.dayuc)")
    parser.add_argument("--out", required=True, metavar="RUN.dayuc",
                        help="output run file path")
    parser.add_argument("--no-records", action="store_true",
                        help="drop per-operation I/O records (graphs and "
                             "diagnostics never read them; lint loses "
                             "byte-exact extents)")
    args = parser.parse_args(argv)

    import os

    from repro.cli_common import diagnose_traces_dir
    from repro.mapper.columnar import compact_profiles
    from repro.mapper.persist import (
        TRACE_READ_ERRORS,
        load_profiles_path,
        trace_paths,
    )

    paths = trace_paths(args.traces)
    try:
        profiles = [p for path in paths
                    for p in load_profiles_path(
                        path, with_io_records=not args.no_records)]
    except TRACE_READ_ERRORS as exc:
        print(f"dayu-compact: {exc}", file=sys.stderr)
        return 2
    if not profiles:
        print(f"dayu-compact: {diagnose_traces_dir(args.traces)}",
              file=sys.stderr)
        return 2
    bytes_in = sum(os.path.getsize(p) for p in paths)
    bytes_out = compact_profiles(profiles, args.out)
    ratio = bytes_in / bytes_out if bytes_out else 0.0
    print(f"compacted {len(profiles)} profile(s) from {len(paths)} "
          f"file(s) into {args.out}")
    print(f"  {bytes_in} B -> {bytes_out} B ({ratio:.2f}x)")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(compact_main())
