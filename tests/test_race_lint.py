"""Tests for the DY5xx happens-before race family (``repro.lint.race``).

Acceptance gates exercised here:

- DY501–DY505 convict every seeded race in the ``racy-pipeline``
  ground-truth workload, each with a validating reorder witness —
  replaying the witness order actually flips the observed outcome;
- the disjoint-selection trap downgrades to a warning (byte-precise
  extents), and every other bundled workload is DY5xx-clean;
- static (pre-run) and post-hoc modes agree on the DY501–503
  convictions (code, subject, tasks);
- the sharded :class:`ParallelAnalyzer` path and ``lint_run`` over a
  compacted columnar run produce byte-identical reports to serial;
- the streaming mirrors (DY501/502/503) confirm a fingerprint subset of
  batch and stay silent on clean workloads;
- ``dayu-lint`` exit codes (0 clean / 1 new errors / 2 usage or
  unreadable trace) hold across ``--static``, ``--diff`` and
  ``--races``; ``--select``/``--ignore`` family globs work;
- zero-length / truncated trace files raise the typed
  :class:`UnknownTraceFormat` naming the path.
"""

import json
from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import pytest

from repro.analyzer import ParallelAnalyzer
from repro.experiments.common import fresh_env
from repro.faults import FaultInjector
from repro.lint import (
    LintConfig,
    lint_profiles,
    lint_workflow,
    sensitivity_report_from_findings,
)
from repro.lint.cli import lint_main
from repro.mapper.columnar import encode_columnar, encode_run
from repro.mapper.persist import (
    UnknownTraceFormat,
    load_profiles_path,
    sniff_trace_format_path,
)
from repro.monitor.monitor import MonitorConfig
from repro.workflow.replay import replay_in_order
from repro.workflow.runner import RetryPolicy
from repro.workloads.racy_pipeline import RacyParams, racy_fault_spec
from repro.workloads.registry import build_workload

RACES = LintConfig(enable=("DY5*",))

#: Workloads expected DY5xx-clean (corner-hazards and racy-pipeline are
#: the two deliberately seeded fixtures).
CLEAN_WORKLOADS = ("pyflextrkr", "ddmd", "arldm", "h5bench",
                   "h5bench-shared", "climate", "corner", "chaos")


@dataclass
class RacyRun:
    workflow: object
    env: object
    profiles: List[object]
    attempts: Dict[str, int]
    params: RacyParams


@pytest.fixture(scope="module")
def racy_run():
    """One fault-injected racy-pipeline run: the DY5xx ground truth."""
    workflow, _ = build_workload("racy-pipeline", 1.0)
    env = fresh_env(n_nodes=2)
    runner = env.runner
    runner.retry_policy = RetryPolicy(max_attempts=3, backoff_base=0.25)
    injector = FaultInjector(racy_fault_spec(), env.cluster)
    injector.arm()
    runner.faults = injector
    result = runner.run(workflow)
    assert result.attempts["racy_bump_state"] > 1  # the fault landed
    return RacyRun(workflow=workflow, env=env,
                   profiles=list(env.mapper.profiles.values()),
                   attempts=dict(result.attempts),
                   params=RacyParams())


@pytest.fixture(scope="module")
def racy_report(racy_run):
    return lint_profiles(racy_run.profiles, RACES,
                         attempts=racy_run.attempts)


@pytest.fixture(scope="module")
def racy_traces(racy_run, tmp_path_factory):
    """The same run persisted: per-task traces, a compacted columnar run,
    attempts doc."""
    base = tmp_path_factory.mktemp("racy")
    row = base / "row"
    col = base / "col"
    row.mkdir()
    col.mkdir()
    for p in racy_run.profiles:
        (row / f"{p.task}.dayuc").write_bytes(encode_columnar(p))
    ordered = sorted(racy_run.profiles, key=lambda p: p.span.start)
    (col / "run.dayuc").write_bytes(encode_run(ordered))
    attempts = base / "attempts.json"
    attempts.write_text(json.dumps(racy_run.attempts))
    return {"row": str(row), "col": str(col), "attempts": str(attempts)}


def _by_code(report, code):
    return [f for f in report.findings if f.code == code]


def _dy5(findings):
    return [f for f in findings if f.code.startswith("DY5")]


# ----------------------------------------------------------------------
# Seeded convictions (post-hoc)
# ----------------------------------------------------------------------
class TestSeededConvictions:
    def test_dy501_true_waw_races(self, racy_run, racy_report):
        p = racy_run.params
        errors = {f.subject: f for f in _by_code(racy_report, "DY501")
                  if f.severity.value == "error"}
        assert f"{p.waw_path}:/jets" in errors
        assert f"{p.mask_path}:/mask" in errors
        jets = errors[f"{p.waw_path}:/jets"]
        assert jets.tasks == ("racy_jet_a", "racy_jet_b")
        assert jets.evidence["overlap"] is not None

    def test_dy501_disjoint_trap_downgrades(self, racy_run, racy_report):
        p = racy_run.params
        warn = [f for f in _by_code(racy_report, "DY501")
                if f.subject == f"{p.disjoint_path}:/field"]
        assert len(warn) == 1
        assert warn[0].severity.value == "warning"
        assert warn[0].evidence["overlap"] is None
        assert warn[0].evidence["extent_precision"] == "exact"

    def test_dy502_read_write_race(self, racy_run, racy_report):
        p = racy_run.params
        found = _by_code(racy_report, "DY502")
        assert [f.subject for f in found] == [f"{p.rw_path}:/series"]
        assert found[0].tasks == ("racy_amend", "racy_probe")

    def test_dy503_metadata_race(self, racy_run, racy_report):
        p = racy_run.params
        found = _by_code(racy_report, "DY503")
        assert [f.subject for f in found] == [f"{p.meta_path}:/log"]
        assert found[0].tasks == ("racy_grow_log", "racy_shape_probe")
        assert found[0].evidence["mutator"] == "racy_grow_log"

    def test_dy504_sensitivity_note(self, racy_report):
        notes = _by_code(racy_report, "DY504")
        assert len(notes) == 1
        ev = notes[0].evidence
        assert ev["schema"] == "dayu-sensitivity/v1"
        assert ev["total_edges"] == len(ev["edges"]) == 5
        assert not ev["truncated"]
        assert all(e["carrier"] == "observed-timing" for e in ev["edges"])
        pairs = {(e["before"], e["after"]) for e in ev["edges"]}
        assert ("racy_mask_early", "racy_mask_late") in pairs
        assert ("racy_probe", "racy_amend") in pairs
        # The report extractor returns the same document.
        assert sensitivity_report_from_findings(racy_report.findings) == ev

    def test_dy505_retry_exposed(self, racy_run, racy_report):
        p = racy_run.params
        found = _by_code(racy_report, "DY505")
        assert [f.subject for f in found] == [f"{p.retry_path}:/state"]
        assert found[0].tasks == ("racy_audit_state", "racy_bump_state")
        assert found[0].evidence["attempts"] == \
            racy_run.attempts["racy_bump_state"]
        w = found[0].evidence["witness"]
        assert w["schema"] == "dayu-witness/v1"
        assert w["replayed"] == "racy_bump_state"
        assert w["order"].count("racy_bump_state") == 2

    def test_dy505_needs_attempts(self, racy_run):
        report = lint_profiles(racy_run.profiles, RACES)  # no history
        assert not _by_code(report, "DY505")


# ----------------------------------------------------------------------
# Witness validation: replaying the reordering flips the outcome
# ----------------------------------------------------------------------
class TestWitnessValidation:
    def test_every_conviction_ships_a_witness(self, racy_report):
        for f in _dy5(racy_report.findings):
            if f.code in ("DY501", "DY502", "DY503", "DY505"):
                w = f.evidence["witness"]
                assert w is not None and w["schema"] == "dayu-witness/v1"
                assert set(w["reordered"]) <= set(w["order"])

    def test_waw_witness_replay_flips_survivor(self, racy_run, racy_report):
        p = racy_run.params
        jets = next(f for f in _by_code(racy_report, "DY501")
                    if f.subject == f"{p.waw_path}:/jets")
        witness = jets.evidence["witness"]
        order = witness["order"]
        assert witness["window"] == [0, witness["total_tasks"]]
        # The witness is a full legal schedule; run it.
        flipped = replay_in_order(racy_run.workflow, order)
        # The original orientation: same schedule with the pair swapped
        # back (also legal — the pair is concurrent under dependencies).
        second, first = witness["reordered"]
        swapped = list(order)
        i, j = swapped.index(second), swapped.index(first)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        original = replay_in_order(racy_run.workflow, swapped)
        a = flipped.read(p.waw_path, "/jets")
        b = original.read(p.waw_path, "/jets")
        assert not np.array_equal(a, b)  # the race outcome flipped

    def test_replay_rejects_unknown_tasks(self, racy_run):
        with pytest.raises(ValueError, match="not in"):
            replay_in_order(racy_run.workflow, ["nope"])

    def test_replay_repeats_run_under_aliases(self):
        """A repeated name re-runs the task body under a
        ``<name>@replay<i>`` alias with its own profile; the surviving
        content is the last writer's."""
        from repro.workflow import Stage, Task, Workflow

        def writer(value):
            def fn(rt):
                f = rt.open("/beegfs/shared.h5", "w")
                f.create_dataset("d", shape=(8,), dtype="f4",
                                 data=np.full(8, value, dtype=np.float32))
                f.close()
            return fn

        wf = Workflow("wf", [Stage("s", [Task("a", writer(1.0)),
                                         Task("b", writer(2.0))])])
        out = replay_in_order(wf, ["a", "b", "a"])
        assert list(out.executed) == ["a", "b", "a@replay1"]
        assert list(out.mapper.profiles) == ["a", "b", "a@replay1"]
        starts = [out.mapper.profiles[n].span.start for n in out.executed]
        assert starts == sorted(starts) and len(set(starts)) == 3
        assert np.array_equal(out.read("/beegfs/shared.h5", "/d"),
                              np.full(8, 1.0, dtype=np.float32))
        assert np.array_equal(
            replay_in_order(wf, ["a", "b"]).read("/beegfs/shared.h5", "/d"),
            np.full(8, 2.0, dtype=np.float32))


# ----------------------------------------------------------------------
# Clean workloads stay clean
# ----------------------------------------------------------------------
class TestCleanWorkloads:
    @pytest.mark.parametrize("name", CLEAN_WORKLOADS)
    def test_trace_mode_clean(self, name):
        workflow, prepare = build_workload(name, 0.25)
        env = fresh_env(n_nodes=2)
        if prepare is not None:
            prepare(env.cluster)
        env.runner.run(workflow)
        report = lint_profiles(list(env.mapper.profiles.values()), RACES)
        assert _dy5(report.findings) == []

    @pytest.mark.parametrize("name", CLEAN_WORKLOADS)
    def test_static_mode_no_errors(self, name):
        workflow, _ = build_workload(name, 0.25)
        report = lint_workflow(workflow, RACES)
        errors = [f for f in _dy5(report.findings)
                  if f.severity.value == "error"]
        assert errors == []


# ----------------------------------------------------------------------
# Static vs post-hoc agreement
# ----------------------------------------------------------------------
class TestStaticAgreement:
    def test_static_convicts_the_same_races(self, racy_run, racy_report):
        static = lint_workflow(racy_run.workflow, RACES)
        key = lambda f: (f.code, f.subject, f.tasks)  # noqa: E731
        static_keys = {key(f) for f in _dy5(static.findings)
                       if f.code in ("DY501", "DY502", "DY503")}
        trace_keys = {key(f) for f in _dy5(racy_report.findings)
                      if f.code in ("DY501", "DY502", "DY503")}
        assert static_keys == trace_keys
        # Static units are elements, and the disjoint trap still warns.
        disjoint = next(f for f in _by_code(static, "DY501")
                        if "/field" in f.subject)
        assert disjoint.severity.value == "warning"
        assert disjoint.evidence["units"] == "elements"

    def test_static_sensitivity_carriers(self, racy_run):
        static = lint_workflow(racy_run.workflow, RACES)
        note = _by_code(static, "DY504")[0]
        carriers = {e["carrier"] for e in note.evidence["edges"]}
        assert carriers == {"stage-barrier"}


# ----------------------------------------------------------------------
# Parallel / columnar byte-identity
# ----------------------------------------------------------------------
class TestParallelIdentity:
    def test_sharded_lint_matches_serial(self, racy_run, racy_report):
        analyzer = ParallelAnalyzer(max_workers=4, with_io_records=True)
        sharded = analyzer.lint(racy_run.profiles, RACES,
                                attempts=racy_run.attempts)
        assert sharded.to_json() == racy_report.to_json()

    def test_row_and_columnar_loads_agree(self, racy_run, racy_traces):
        serial = ParallelAnalyzer(max_workers=1, with_io_records=True)
        row = serial.lint(serial.load(racy_traces["row"]), RACES,
                          attempts=racy_run.attempts)
        stats: dict = {}
        col = serial.lint_run(racy_traces["col"], RACES, stats_out=stats,
                              attempts=racy_run.attempts)
        assert col.to_json() == row.to_json()
        assert stats["n_groups"] == len(racy_run.profiles)


# ----------------------------------------------------------------------
# Streaming
# ----------------------------------------------------------------------
class TestStreamingRaces:
    def test_streamed_subset_of_batch(self, racy_run):
        workflow, _ = build_workload("racy-pipeline", 1.0)
        env = fresh_env(n_nodes=2,
                        monitor_config=MonitorConfig(stream_races=True))
        env.runner.run(workflow)
        env.monitor.finish()
        streamed = _dy5(env.monitor.streamlint.finalize())
        batch = lint_profiles(list(env.mapper.profiles.values()), RACES)
        batch_prints = {f.fingerprint for f in _dy5(batch.findings)}
        assert streamed  # the seeded races stream mid-run
        assert {f.fingerprint for f in streamed} <= batch_prints
        # Every streamable conviction (not DY504/505) was streamed.
        streamable = {f.fingerprint for f in _dy5(batch.findings)
                      if f.code in ("DY501", "DY502", "DY503")}
        assert {f.fingerprint for f in streamed} == streamable

    def test_streaming_off_by_default(self):
        workflow, _ = build_workload("racy-pipeline", 1.0)
        env = fresh_env(n_nodes=2, monitor_config=MonitorConfig())
        env.runner.run(workflow)
        env.monitor.finish()
        assert _dy5(env.monitor.streamlint.finalize()) == []


# ----------------------------------------------------------------------
# CLI: exit codes, globs, reports
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_1_on_seeded_races(self, racy_traces):
        assert lint_main([racy_traces["row"], "--races",
                          "--with-io-records",
                          "--attempts", racy_traces["attempts"]]) == 1

    def test_exit_0_on_clean_static(self, capsys):
        assert lint_main(["--static", "ddmd", "--races"]) == 0
        capsys.readouterr()

    def test_exit_0_without_races_optin(self, racy_traces, capsys):
        # DY2xx still errors here, so disable that family: the DY5xx
        # rules must stay off unless opted in.
        out = capsys  # keep stdout drained
        code = lint_main([racy_traces["row"], "--ignore", "DY2",
                          "--format", "json"])
        body = json.loads(out.readouterr().out)
        assert code == 0
        assert not [f for f in body["findings"]
                    if f["code"].startswith("DY5")]

    def test_exit_2_unknown_workload(self, capsys):
        assert lint_main(["--static", "no-such-workload"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_exit_2_unreadable_trace(self, tmp_path, capsys):
        (tmp_path / "empty.dayuc").write_bytes(b"")
        assert lint_main([str(tmp_path), "--races"]) == 2
        assert "empty.dayuc" in capsys.readouterr().err

    def test_exit_2_bad_attempts(self, racy_traces, tmp_path, capsys):
        bad = tmp_path / "attempts.json"
        bad.write_text("[1, 2]")
        assert lint_main([racy_traces["row"], "--races",
                          "--attempts", str(bad)]) == 2
        assert "--attempts" in capsys.readouterr().err

    def test_select_ignore_globs(self, racy_traces, capsys):
        lint_main([racy_traces["row"], "--select", "DY5*",
                   "--ignore", "DY2*", "--with-io-records",
                   "--attempts", racy_traces["attempts"],
                   "--format", "json"])
        body = json.loads(capsys.readouterr().out)
        codes = {f["code"] for f in body["findings"]}
        assert codes == {"DY501", "DY502", "DY503", "DY504", "DY505"}

    def test_ignore_wins_over_select(self, racy_traces, capsys):
        lint_main([racy_traces["row"], "--select", "DY5*",
                   "--ignore", "DY5*", "--ignore", "DY2*",
                   "--format", "json"])
        body = json.loads(capsys.readouterr().out)
        assert not [f for f in body["findings"]
                    if f["code"].startswith("DY5")]

    def test_sarif_carries_witness(self, racy_traces, tmp_path, capsys):
        out = tmp_path / "races.sarif"
        lint_main([racy_traces["row"], "--races", "--with-io-records",
                   "--attempts", racy_traces["attempts"],
                   "--format", "sarif", "--out", str(out)])
        capsys.readouterr()
        sarif = json.loads(out.read_text())
        results = sarif["runs"][0]["results"]
        race_results = [r for r in results
                        if r["ruleId"].startswith("DY5")]
        assert race_results
        witnessed = [r for r in race_results
                     if (r["properties"]["evidence"].get("witness") or {})
                     .get("schema") == "dayu-witness/v1"]
        assert witnessed  # reorder witnesses survive serialization

    def test_sensitivity_out(self, racy_traces, tmp_path, capsys):
        out = tmp_path / "sens.json"
        lint_main([racy_traces["row"], "--races", "--with-io-records",
                   "--sensitivity-out", str(out), "--format", "json"])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["schema"] == "dayu-sensitivity/v1"
        assert doc["total_edges"] == 5

    def test_static_and_posthoc_cli_agree(self, racy_traces, capsys):
        lint_main(["--static", "racy-pipeline", "--races",
                   "--format", "json"])
        static = json.loads(capsys.readouterr().out)
        lint_main([racy_traces["row"], "--races", "--with-io-records",
                   "--format", "json"])
        trace = json.loads(capsys.readouterr().out)

        def keys(body):
            return {(f["code"], f["subject"], tuple(f["tasks"]))
                    for f in body["findings"]
                    if f["code"] in ("DY501", "DY502", "DY503")}

        assert keys(static) == keys(trace)

    def test_jobs_and_compacted_run_lint_to_serial_bytes(
            self, racy_run, racy_traces, tmp_path, capsys):
        """``dayu-lint --jobs 4`` over JSON traces, and the same traces
        compacted by ``repro.mapper.compact`` into one run file, write
        the serial report byte for byte."""
        from repro.mapper.compact import compact_main

        traces = tmp_path / "traces"
        traces.mkdir()
        for p in racy_run.profiles:
            (traces / f"{p.task}.json").write_bytes(p.serialize())
        run = tmp_path / "columnar" / "run.dayuc"
        run.parent.mkdir()
        assert compact_main([str(traces), "--out", str(run)]) == 0
        common = ["--races", "--with-io-records",
                  "--attempts", racy_traces["attempts"], "--format", "json"]
        reports = {}
        for name, source, extra in (("serial", traces, []),
                                    ("parallel", traces, ["--jobs", "4"]),
                                    ("columnar", run, [])):
            out = tmp_path / f"race-{name}.json"
            assert lint_main([str(source), *common, *extra,
                              "--out", str(out)]) == 1
            reports[name] = out.read_bytes()
        capsys.readouterr()
        assert reports["parallel"] == reports["serial"]
        assert reports["columnar"] == reports["serial"]


# ----------------------------------------------------------------------
# Typed sniff errors on truncated traces
# ----------------------------------------------------------------------
class TestUnknownTraceFormat:
    @pytest.mark.parametrize("payload", [b"", b"DY"])
    def test_sniff_names_the_path(self, tmp_path, payload):
        path = tmp_path / "stub.dayuc"
        path.write_bytes(payload)
        with pytest.raises(UnknownTraceFormat) as exc:
            sniff_trace_format_path(path)
        assert str(path) in str(exc.value)
        assert exc.value.size == len(payload)

    def test_loaders_raise_it_too(self, tmp_path):
        path = tmp_path / "stub.dayuc"
        path.write_bytes(b"\x00")
        with pytest.raises(UnknownTraceFormat):
            load_profiles_path(path)

    def test_it_is_a_value_error(self):
        assert issubclass(UnknownTraceFormat, ValueError)
