"""The DY7xx advisory family across delivery modes, on every bundled
workload: serial, sharded and compacted-columnar lint runs must report
identical advisory findings (fingerprints included), and the per-code
counts are pinned to what the case-study detectors reported before they
became lint rules."""

from collections import Counter

import pytest

from repro.analyzer import ParallelAnalyzer
from repro.experiments.common import fresh_env
from repro.lint import ADVISORY, lint_profiles
from repro.mapper.columnar import compact_profiles
from repro.workloads.registry import WORKLOADS, build_workload

SCALE = 0.05

#: Findings per advisory code at ``SCALE``, as the former detectors
#: counted them.  DY105 pins the number of distinct vlen datasets: the
#: old detector reported each dataset once, DY105 reports it per task.
PINNED = {
    "pyflextrkr": {"DY701": 2, "DY702": 1, "DY703": 74, "DY704": 2,
                   "DY705": 10, "DY706": 2, "DY709": 7},
    "ddmd": {"DY701": 2, "DY703": 6, "DY705": 11, "DY707": 1, "DY708": 22,
             "DY709": 3, "DY710": 1},
    "arldm": {"DY105": 7, "DY701": 1, "DY703": 2},
    "h5bench": {},
    "h5bench-shared": {"DY703": 9},
    "climate": {"DY703": 3, "DY705": 2, "DY710": 1},
    "corner": {"DY703": 200},
    "corner-hazards": {"DY703": 202, "DY705": 1, "DY707": 2, "DY710": 1},
    "chaos": {"DY701": 1, "DY703": 1, "DY704": 2, "DY705": 2, "DY709": 1,
              "DY710": 1},
    "racy-pipeline": {"DY701": 3, "DY702": 3, "DY703": 4, "DY705": 3,
                      "DY708": 1, "DY710": 10},
    "perf-hazards": {"DY701": 5, "DY703": 6, "DY709": 2},
}


def _advisory(report):
    return [f.to_json_dict() for f in report.findings
            if f.code.startswith("DY7") or f.code == "DY105"]


def test_pinned_table_covers_every_workload():
    assert set(PINNED) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_delivery_modes_agree_and_counts_pinned(workload, tmp_path):
    env = fresh_env(n_nodes=2)
    workflow, prepare = build_workload(workload, SCALE)
    if prepare is not None:
        prepare(env.cluster)
    env.runner.run(workflow)
    profiles = list(env.mapper.profiles.values())

    serial = _advisory(lint_profiles(profiles, ADVISORY))
    sharded = _advisory(ParallelAnalyzer(max_workers=2).lint(profiles,
                                                             ADVISORY))
    run = tmp_path / "run.dayuc"
    compact_profiles(profiles, str(run))
    columnar = _advisory(ParallelAnalyzer().lint_run(str(run), ADVISORY))
    assert sharded == serial
    assert columnar == serial

    counts = Counter(f["code"] for f in serial if f["code"] != "DY105")
    vlen = {f["subject"] for f in serial if f["code"] == "DY105"}
    if vlen:
        counts["DY105"] = len(vlen)
    assert dict(counts) == PINNED[workload]
