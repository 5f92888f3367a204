"""Tests for the pre-run (DY40x) and drift (DY45x) lint front ends.

The two headline guarantees:

- ``dayu-lint --static corner-hazards`` convicts the seeded hazards from
  the workflow *definition* alone — no traces anywhere; and
- ``dayu-lint --diff`` reports zero drift for every bundled workload,
  with the sharded :meth:`ParallelAnalyzer.diff` byte-identical to the
  serial join.
"""

import json

import pytest

from repro.analyzer import ParallelAnalyzer
from repro.experiments.common import fresh_env
from repro.lint import (
    LintConfig,
    Severity,
    build_predicted_sdg,
    diff_profiles,
    extract_workflow_contracts,
    lint_workflow,
)
from repro.lint.cli import lint_main
from repro.lint.prerun import OPEN_LOOP_MIN_OPENS
from repro.mapper.stats import FILE_METADATA_OBJECT
from repro.workflow import Stage, Task, Workflow
from repro.workflow.contracts import TaskContract, creates, reads, writes
from repro.workloads.registry import WORKLOADS, build_workload


def _noop(rt):
    return None


def _declared_workflow(*stage_specs):
    """Workflow from (stage_name, parallel, [(task, contract), ...])."""
    stages = [
        Stage(name, [Task(t, _noop, contract=c) for t, c in tasks],
              parallel=parallel)
        for name, parallel, tasks in stage_specs
    ]
    return Workflow("synthetic", stages)


def _codes(report):
    return sorted(f.code for f in report.findings)


# ----------------------------------------------------------------------
# DY40x: the seeded fixture convicts pre-run, clean workloads stay clean
# ----------------------------------------------------------------------
class TestStaticHazardFixture:
    @pytest.fixture(scope="class")
    def report(self):
        workflow, _ = build_workload("corner-hazards", 0.5)
        return lint_workflow(workflow)

    def test_unordered_double_write_from_definition(self, report):
        waw = [f for f in report.findings if f.code == "DY401"]
        assert len(waw) == 1
        f = waw[0]
        assert f.severity is Severity.ERROR
        assert f.subject.endswith("hazard.h5:/dup")
        assert f.tasks == ("hazard_writer_a", "hazard_writer_b")

    def test_phantom_read_from_definition(self, report):
        ghost = [f for f in report.findings if f.code == "DY403"]
        assert len(ghost) == 1
        f = ghost[0]
        assert f.subject.endswith("hazard.h5:/ghost")
        assert f.tasks == ("hazard_phantom_reader",)
        assert "hazard_writer_b" in f.message  # dataless creator named

    def test_nothing_else_fires(self, report):
        assert _codes(report) == ["DY401", "DY403"]

    def test_declared_matches_inferred(self, report):
        # The fixture's declared contracts are accurate, so the DY409
        # reconciliation stays silent.
        assert not [f for f in report.findings if f.code == "DY409"]


class TestStaticCleanWorkloads:
    # corner-hazards and racy-pipeline are the seeded-hazard fixtures:
    # their contract races fire DY401 pre-run by design.
    @pytest.mark.parametrize("name", sorted(set(WORKLOADS)
                                            - {"corner-hazards",
                                               "racy-pipeline"}))
    def test_no_errors(self, name):
        workflow, _ = build_workload(name, 0.5)
        report = lint_workflow(workflow)
        assert not report.errors, [str(f) for f in report.errors]

    def test_shared_file_writes_downgraded_to_warning(self):
        workflow, _ = build_workload("h5bench-shared", 0.5)
        report = lint_workflow(workflow)
        waw = [f for f in report.findings if f.code == "DY401"]
        assert waw
        assert all(f.severity is Severity.WARNING for f in waw)
        assert all(f.evidence["disjoint_selections"] for f in waw)


# ----------------------------------------------------------------------
# DY40x: rule-by-rule ground truth on synthetic workflows
# ----------------------------------------------------------------------
class TestPrerunRules:
    FILE = "/beegfs/syn.h5"

    def test_dy402_consumer_scheduled_before_producer(self):
        wf = _declared_workflow(
            ("readers", False, [
                ("early_reader", TaskContract.declare(
                    reads(self.FILE, "x", elements=4)))]),
            ("writers", False, [
                ("late_writer", TaskContract.declare(
                    creates(self.FILE, "x", shape=(4,), dtype="f4",
                            elements=4)))]),
        )
        report = lint_workflow(wf)
        dy402 = [f for f in report.findings if f.code == "DY402"]
        assert len(dy402) == 1
        assert dy402[0].tasks == ("early_reader",)
        assert "late_writer" in dy402[0].message

    def test_dy405_extent_overflow_across_tasks(self):
        wf = _declared_workflow(
            ("create", False, [
                ("creator", TaskContract.declare(
                    creates(self.FILE, "x", shape=(4,), dtype="f4",
                            elements=0)))]),
            ("write", False, [
                ("overflower", TaskContract.declare(
                    writes(self.FILE, "x", elements=9)))]),
        )
        report = lint_workflow(wf)
        dy405 = [f for f in report.findings if f.code == "DY405"]
        assert len(dy405) == 1
        assert dy405[0].tasks == ("overflower",)
        assert dy405[0].evidence == {"elements": 9, "capacity": 4,
                                     "op": "write"}

    def test_dy406_vlen_contiguous_is_opt_in(self):
        wf = _declared_workflow(
            ("s", False, [
                ("t0", TaskContract.declare(
                    creates(self.FILE, "x", shape=(4,), dtype="vlen-bytes",
                            elements=0)))]),
        )
        assert not [f for f in lint_workflow(wf).findings
                    if f.code == "DY406"]
        report = lint_workflow(wf, LintConfig(enable=("DY406",)))
        assert [f.code for f in report.findings if f.code == "DY406"] \
            == ["DY406"]

    def test_dy404_dead_output_is_opt_in(self):
        wf = _declared_workflow(
            ("s", False, [
                ("t0", TaskContract.declare(
                    creates(self.FILE, "x", shape=(4,), dtype="f4",
                            elements=4)))]),
        )
        assert not [f for f in lint_workflow(wf).findings
                    if f.code == "DY404"]
        report = lint_workflow(wf, LintConfig(enable=("DY404",)))
        dy404 = [f for f in report.findings if f.code == "DY404"]
        assert len(dy404) == 1 and dy404[0].tasks == ("t0",)

    def test_dy407_open_in_loop_inferred(self):
        def loopy(rt):
            for _ in range(12):
                f = rt.open("/beegfs/external.h5", "r")
                f["/x"].read()
                f.close()

        wf = Workflow("w", [Stage("s", [Task("loopy", loopy)])])
        report = lint_workflow(wf)
        dy407 = [f for f in report.findings if f.code == "DY407"]
        assert len(dy407) == 1
        assert dy407[0].evidence["opens"] == 12
        # The file is produced outside the workflow: no DY403 noise.
        assert not [f for f in report.findings if f.code == "DY403"]

    def test_dy407_open_in_loop_threshold(self):
        def opens_7(rt):
            for _ in range(7):
                f = rt.open("/beegfs/external.h5", "r")
                f["/x"].read()
                f.close()

        def opens_8(rt):
            for _ in range(8):
                f = rt.open("/beegfs/external.h5", "r")
                f["/x"].read()
                f.close()

        def dy407(fn):
            wf = Workflow("w", [Stage("s", [Task("loopy", fn)])])
            return [f for f in lint_workflow(wf).findings
                    if f.code == "DY407"]

        assert dy407(opens_7) == []
        [finding] = dy407(opens_8)
        assert finding.evidence == {"opens": 8,
                                    "threshold": OPEN_LOOP_MIN_OPENS}

    def test_dy408_small_write_amplification(self):
        wf = _declared_workflow(
            ("s", False, [
                ("chatty", TaskContract.declare(
                    creates(self.FILE, "x", shape=(1024,), dtype="f4",
                            elements=0),
                    writes(self.FILE, "x", elements=1, count=200,
                           dtype="f4")))]),
        )
        report = lint_workflow(wf)
        dy408 = [f for f in report.findings if f.code == "DY408"]
        assert len(dy408) == 1
        assert dy408[0].evidence == {"count": 200, "bytes_per_op": 4}

    def test_dy409_declared_vs_code_mismatch(self):
        # _noop's inferred contract is exact and empty, so an inaccurate
        # declaration is caught.
        wf = _declared_workflow(
            ("s", False, [
                ("liar", TaskContract.declare(
                    reads("/beegfs/external.h5", "x", elements=4)))]),
        )
        report = lint_workflow(wf)
        dy409 = [f for f in report.findings if f.code == "DY409"]
        assert len(dy409) == 1
        assert "never performs" in dy409[0].message


# ----------------------------------------------------------------------
# Predicted SDG
# ----------------------------------------------------------------------
class TestPredictedSdg:
    def test_predicted_nodes_subset_of_traced(self):
        env = fresh_env(n_nodes=2)
        workflow, _ = build_workload("corner-hazards", 0.5)
        env.runner.run(workflow)
        predicted = build_predicted_sdg(workflow)
        assert predicted.graph.get("predicted") is True
        traced = ParallelAnalyzer(max_workers=1).build_sdg(
            list(env.mapper.profiles.values()))
        missing = set(predicted.nodes) - set(traced.nodes)
        assert not missing
        # Traced-only extras are exclusively the runtime's per-file
        # metadata pseudo-objects, which no contract predicts.
        extras = set(traced.nodes) - set(predicted.nodes)
        assert all(n.endswith(f":{FILE_METADATA_OBJECT}") for n in extras)


# ----------------------------------------------------------------------
# DY45x: drift against real traces
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hazard_run():
    env = fresh_env(n_nodes=2)
    workflow, _ = build_workload("corner-hazards", 0.5)
    env.runner.run(workflow)
    profiles = list(env.mapper.profiles.values())
    contracts = extract_workflow_contracts(workflow).effective()
    return profiles, contracts


class TestDrift:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_zero_drift_on_bundled_workloads(self, name):
        env = fresh_env(n_nodes=2)
        workflow, prepare = build_workload(name, 0.5)
        if prepare is not None:
            prepare(env.cluster)
        env.runner.run(workflow)
        contracts = extract_workflow_contracts(workflow).effective()
        report = diff_profiles(list(env.mapper.profiles.values()),
                               contracts)
        assert report.clean, [str(f) for f in report.findings]

    def test_dy451_undeclared_access(self, hazard_run):
        profiles, contracts = hazard_run
        doctored = dict(contracts)
        doctored["hazard_writer_a"] = TaskContract.declare(
            task="hazard_writer_a")  # empty: the /dup write is undeclared
        report = diff_profiles(profiles, doctored)
        dy451 = [f for f in report.findings if f.code == "DY451"]
        assert len(dy451) == 1
        f = dy451[0]
        assert f.severity is Severity.ERROR
        assert f.tasks == ("hazard_writer_a",)
        assert f.evidence["undeclared"] == ["write"]

    def test_dy452_unperformed_contract(self, hazard_run):
        profiles, contracts = hazard_run
        base = contracts["hazard_phantom_reader"]
        doctored = dict(contracts)
        doctored["hazard_phantom_reader"] = TaskContract(
            task="hazard_phantom_reader",
            accesses=[*base.accesses,
                      reads("/beegfs/corner/hazard.h5", "nope",
                            elements=4)],
            source="declared")
        report = diff_profiles(profiles, doctored)
        dy452 = [f for f in report.findings if f.code == "DY452"]
        assert len(dy452) == 1
        assert dy452[0].subject.endswith(":/nope")

    def test_dy453_uncontracted_task(self, hazard_run):
        profiles, contracts = hazard_run
        doctored = {k: v for k, v in contracts.items()
                    if k != "hazard_writer_a"}
        report = diff_profiles(profiles, doctored)
        dy453 = [f for f in report.findings if f.code == "DY453"]
        assert len(dy453) == 1
        assert dy453[0].severity is Severity.NOTE
        assert dy453[0].tasks == ("hazard_writer_a",)

    def test_parallel_diff_identical_to_serial(self, hazard_run):
        profiles, contracts = hazard_run
        doctored = dict(contracts)
        doctored["hazard_writer_a"] = TaskContract.declare(
            task="hazard_writer_a")
        del doctored["hazard_writer_b"]
        serial = diff_profiles(profiles, doctored)
        assert serial.findings  # the comparison must exercise something
        sharded = ParallelAnalyzer(max_workers=2).diff(
            profiles, doctored)
        assert sharded.to_json() == serial.to_json()

    def test_parallel_diff_clean_identical_too(self, hazard_run):
        profiles, contracts = hazard_run
        serial = diff_profiles(profiles, contracts)
        sharded = ParallelAnalyzer(max_workers=2).diff(
            profiles, contracts)
        assert serial.clean and sharded.to_json() == serial.to_json()


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestCli:
    def test_static_hazards_exit_1(self, capsys):
        assert lint_main(["--static", "corner-hazards"]) == 1
        out = capsys.readouterr().out
        assert "DY401" in out and "DY403" in out

    def test_static_clean_exit_0(self):
        assert lint_main(["--static", "ddmd"]) == 0

    def test_static_sarif_output(self, tmp_path):
        out = tmp_path / "static.sarif"
        rc = lint_main(["--static", "corner-hazards", "--format", "sarif",
                        "--out", str(out)])
        assert rc == 1
        sarif = json.loads(out.read_text())
        assert sarif["version"] == "2.1.0"
        codes = {r["ruleId"]
                 for r in sarif["runs"][0]["results"]}
        assert codes == {"DY401", "DY403"}

    def test_static_baseline_suppresses(self, tmp_path):
        baseline = tmp_path / "baseline.txt"
        rc = lint_main(["--static", "corner-hazards",
                        "--write-baseline", str(baseline)])
        assert rc == 0
        rc = lint_main(["--static", "corner-hazards",
                        "--baseline", str(baseline)])
        assert rc == 0

    def test_static_rule_selection(self):
        assert lint_main(["--static", "corner-hazards",
                          "--disable", "DY4"]) == 0

    def test_diff_cli_round_trip(self, tmp_path):
        from repro.cli import run_main

        traces = tmp_path / "traces"
        assert run_main(["corner-hazards", "--out", str(traces),
                         "--scale", "0.5"]) == 0
        assert lint_main([str(traces), "--diff", "corner-hazards",
                          "--scale", "0.5"]) == 0
        assert lint_main([str(traces), "--diff", "corner-hazards",
                          "--scale", "0.5", "--jobs", "2"]) == 0

    def test_list_rules_covers_new_families(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DY401", "DY402", "DY403", "DY405", "DY407",
                     "DY408", "DY409", "DY451", "DY452", "DY453"):
            assert code in out
        assert "contract" in out and "drift" in out

    def test_usage_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            lint_main(["--static", "ddmd", "--diff", "ddmd"])
        with pytest.raises(SystemExit):
            lint_main(["--static", "ddmd", str(tmp_path)])
        with pytest.raises(SystemExit):
            lint_main(["--diff", "ddmd"])
        with pytest.raises(SystemExit):
            lint_main([])

    def test_unknown_workload_rejected(self):
        # Usage errors are exit code 2, not an uncaught SystemExit.
        assert lint_main(["--static", "no-such-workload"]) == 2
