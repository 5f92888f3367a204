"""Columnar trace analytics: run-file scan vs. the JSON row path.

Gates the claim and records it in ``BENCH_columnar.json`` at the repo
root: opening one compacted ``.dayuc`` run and building the FTG + SDG
from its stats columns is at least **10x** faster than the seed
pipeline (serial JSON parse with per-op records, serial build) — with
byte-identical serialized graphs from JSON and columnar inputs, and a
columnar store at least 5x smaller than the JSON one.

``DAYU_SMOKE=1`` switches to the reduced CI shape, where the gate drops
to 5x (fixed per-call overhead looms larger on tiny inputs).
"""

import os
from pathlib import Path

from repro.experiments.analyzer_scale import SyntheticScale
from repro.experiments.columnar_analytics import (
    SMOKE_SCALE,
    run_columnar_scaleout,
)

BENCH_OUT = Path(__file__).resolve().parent.parent / "BENCH_columnar.json"

_SMOKE = os.environ.get("DAYU_SMOKE") == "1"


def test_columnar_scaleout(run_once, write_bench_json):
    scale = SMOKE_SCALE if _SMOKE else SyntheticScale()
    min_speedup = 5.0 if _SMOKE else 10.0
    result = run_once(run_columnar_scaleout, scale)
    result["smoke"] = _SMOKE
    result["min_speedup"] = min_speedup
    write_bench_json(BENCH_OUT, result)
    # A pure optimization or nothing: same graphs, byte for byte, from
    # one mmap'd run file instead of a directory of row traces.
    assert result["identical_graphs"]
    if not _SMOKE:
        assert result["ftg_nodes"] >= 1000
    assert result["size_ratio"] >= 5.0
    assert result["speedup"] >= min_speedup
