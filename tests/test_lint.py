"""Tests for ``repro.lint`` — dayu-lint hazard detection and sanitizing.

Coverage demanded by the acceptance gates:

- DY2xx hazards fire on the seeded corner-case fixture and stay silent
  on the clean bundled workloads (PyFLEXTRKR / DDMD / ARLDM / h5bench);
- VOL-vs-VFD reconciliation (DY3xx) passes on both JSON and columnar
  persisted traces, and each sanitizer rule catches its corruption;
- SARIF 2.1.0 output validates against the SARIF schema;
- baselines suppress accepted findings; the parallel path matches the
  serial one; the registry/config machinery behaves.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.analyzer import (
    CyclicDependencyError,
    ParallelAnalyzer,
    infer_task_order,
)
from repro.cli import _build_workload
from repro.experiments.common import fresh_env
from repro.lint import (
    Finding,
    LintConfig,
    LintReport,
    Severity,
    all_rules,
    get_rule,
    lint_profiles,
    load_baseline,
    save_baseline,
    to_sarif_dict,
)
from repro.mapper.mapper import TaskProfile
from repro.mapper.stats import DatasetIoStats
from repro.simclock import TimeSpan
from repro.vol.tracer import DataObjectProfile
from repro.workloads.corner_case import CornerCaseParams, build_corner_case


# ----------------------------------------------------------------------
# Shared fixtures: run the workloads once per module
# ----------------------------------------------------------------------
def _run_workload(name, scale=0.5):
    env = fresh_env(n_nodes=2)
    workflow, prepare = _build_workload(name, scale)
    if prepare is not None:
        prepare(env.cluster)
    env.runner.run(workflow)
    return env


@pytest.fixture(scope="module")
def hazard_env():
    env = fresh_env(n_nodes=2)
    params = CornerCaseParams(data_dir="/beegfs/corner", n_datasets=8,
                              file_bytes=1 << 14, read_repeats=2,
                              seed_hazards=True)
    env.runner.run(build_corner_case(params))
    return env


@pytest.fixture(scope="module")
def hazard_profiles(hazard_env):
    return list(hazard_env.mapper.profiles.values())


@pytest.fixture(scope="module")
def hazard_report(hazard_profiles):
    return lint_profiles(hazard_profiles)


# ----------------------------------------------------------------------
# DY2xx on the seeded fixture
# ----------------------------------------------------------------------
class TestSeededHazards:
    def test_double_write_detected(self, hazard_report):
        waw = [f for f in hazard_report.findings if f.code == "DY203"]
        assert len(waw) == 1
        f = waw[0]
        assert f.severity is Severity.ERROR  # overlapping extents
        assert f.subject.endswith("hazard.h5:/dup")
        assert f.tasks == ("hazard_writer_a", "hazard_writer_b")

    def test_phantom_read_detected(self, hazard_report):
        phantom = [f for f in hazard_report.findings if f.code == "DY102"]
        assert len(phantom) == 1
        f = phantom[0]
        assert f.subject.endswith("hazard.h5:/ghost")
        assert f.tasks == ("hazard_phantom_reader",)

    def test_all_seeded_hazards_and_nothing_else(self, hazard_report):
        # 100% of the seeded hazards, zero noise from the clean task.
        assert sorted(f.code for f in hazard_report.findings) == \
            ["DY102", "DY203"]
        for f in hazard_report.findings:
            assert "corner_case" not in f.tasks

    def test_report_plumbing(self, hazard_report):
        assert not hazard_report.clean
        assert hazard_report.counts["error"] == 2
        assert len(hazard_report.errors) == 2
        payload = hazard_report.to_json_dict()
        assert payload["tool"] == "dayu-lint"
        assert [f["code"] for f in payload["findings"]] == ["DY102", "DY203"]

    def test_war_race_detected(self):
        """A late truncating writer races an earlier reader (DY202)."""
        from repro.mapper.config import DaYuConfig
        from repro.mapper.mapper import DataSemanticMapper
        from repro.posix import SimFS
        from repro.simclock import SimClock
        from repro.storage import Mount, make_device

        clock = SimClock()
        fs = SimFS(clock, mounts=[Mount("/", make_device("ram"))])
        mapper = DataSemanticMapper(clock, DaYuConfig())
        data = np.arange(64, dtype=np.float32)
        with mapper.task("creator") as ctx:
            f = ctx.open(fs, "/war.h5", "w")
            f.create_dataset("d", shape=(64,), dtype="f4", data=data)
            f.close()
        with mapper.task("reader") as ctx:
            f = ctx.open(fs, "/war.h5", "r")
            f["d"].read()
            f.close()
        with mapper.task("late_writer") as ctx:
            # Truncate: no reads, so nothing orders this task after the
            # reader — rewriting "d" is a WAR race (and a WAW with the
            # creator).
            f = ctx.open(fs, "/war.h5", "w")
            f.create_dataset("d", shape=(64,), dtype="f4", data=data)
            f.close()
        report = lint_profiles(list(mapper.profiles.values()))
        codes = {f.code: f for f in report.findings}
        assert "DY202" in codes
        assert codes["DY202"].tasks == ("late_writer", "reader")
        assert "DY203" in codes
        assert codes["DY203"].tasks == ("creator", "late_writer")


# ----------------------------------------------------------------------
# Clean workloads stay clean
# ----------------------------------------------------------------------
class TestCleanWorkloads:
    @pytest.mark.parametrize("name", ["pyflextrkr", "ddmd", "arldm",
                                      "h5bench", "corner"])
    def test_bundled_workload_is_lint_clean(self, name):
        env = _run_workload(name)
        report = lint_profiles(list(env.mapper.profiles.values()))
        assert report.clean, [str(f) for f in report.findings]

    def test_opt_in_rule_fires_when_enabled(self):
        env = _run_workload("arldm")
        profiles = list(env.mapper.profiles.values())
        assert lint_profiles(profiles).clean
        report = lint_profiles(profiles, LintConfig(enable=("DY105",)))
        assert {f.code for f in report.findings} == {"DY105"}
        assert all(f.severity is Severity.NOTE for f in report.findings)


# ----------------------------------------------------------------------
# Persisted traces: JSON and columnar, serial and parallel
# ----------------------------------------------------------------------
class TestPersistedTraces:
    @pytest.fixture(scope="class", params=["json", "columnar"])
    def saved_traces(self, request, hazard_env, tmp_path_factory):
        d = tmp_path_factory.mktemp(f"traces_{request.param}")
        hazard_env.mapper.save_to_host_dir(str(d),
                                           trace_format=request.param)
        return str(d)

    @pytest.mark.parametrize("with_records", [False, True])
    def test_reconciliation_passes(self, saved_traces, with_records):
        """The DY3xx sanitizer finds nothing wrong with healthy traces,
        whichever codec stored them and whether records are loaded."""
        analyzer = ParallelAnalyzer(max_workers=1,
                                    with_io_records=with_records)
        profiles = analyzer.load(saved_traces)
        report = lint_profiles(profiles,
                               LintConfig(disable=("DY1", "DY2")))
        assert report.clean, [str(f) for f in report.findings]

    def test_hazards_survive_roundtrip(self, saved_traces):
        profiles = ParallelAnalyzer(max_workers=1).load(saved_traces)
        codes = sorted(f.code for f in lint_profiles(profiles).findings)
        assert codes == ["DY102", "DY203"]

    def test_parallel_lint_matches_serial(self, saved_traces):
        for with_records in (False, True):
            analyzer = ParallelAnalyzer(max_workers=4,
                                        with_io_records=with_records)
            profiles = analyzer.load(saved_traces)
            parallel = analyzer.lint(profiles)
            serial = lint_profiles(profiles)
            assert [f.to_json_dict() for f in parallel.findings] == \
                [f.to_json_dict() for f in serial.findings]
            assert parallel.tasks == serial.tasks


# ----------------------------------------------------------------------
# Synthetic profiles: the rules the simulator can't misbehave into
# ----------------------------------------------------------------------
def _profile(task, start, end, stats=(), objects=(), records=(),
             sessions=()):
    return TaskProfile(task=task, span=TimeSpan(start, end),
                       files=sorted({s.file for s in stats}),
                       object_profiles=list(objects),
                       file_sessions=list(sessions),
                       io_records=list(records),
                       dataset_stats=list(stats))


def _stats(task, file, obj, *, reads=0, writes=0, first=0.0, last=1.0,
           data_ops=0, data_bytes=0, pages=((0, 0, 1),)):
    s = DatasetIoStats(task=task, file=file, data_object=obj)
    s.reads = reads
    s.writes = writes
    s.bytes_read = data_bytes if reads else 0
    s.bytes_written = data_bytes if writes else 0
    s.data_ops = data_ops
    s.data_bytes = data_bytes
    s.first_start = first
    s.last_end = last
    s.first_raw_op = "write" if writes else ("read" if reads else None)
    s.set_region_runs(list(pages))
    return s


class TestSyntheticHazards:
    def test_raw_race_on_interleaved_tasks(self):
        """The reader's file-level first read precedes the writer's first
        write (so the DAG records no producer→consumer edge), yet its
        read of the raced object lands after the write — a RAW race
        (DY201)."""
        writer = _profile("writer", 1.0, 3.0, stats=[
            _stats("writer", "/f.h5", "/d", writes=2, first=1.5, last=2.0,
                   data_ops=1, data_bytes=4096),
        ])
        reader = _profile("reader", 0.0, 4.0, stats=[
            _stats("reader", "/f.h5", "/e", reads=1, first=0.5, last=0.6,
                   data_ops=1, data_bytes=64),
            _stats("reader", "/f.h5", "/d", reads=2, first=2.5, last=3.5,
                   data_ops=1, data_bytes=4096),
        ])
        report = lint_profiles([writer, reader],
                               LintConfig(disable=("DY1", "DY3")))
        codes = {f.code: f for f in report.findings}
        assert "DY201" in codes
        assert codes["DY201"].tasks == ("reader", "writer")
        assert codes["DY201"].subject == "/f.h5:/d"
        assert "DY202" not in codes

    def test_double_write_disjoint_extents_downgrades(self):
        """Unordered writers on provably disjoint byte ranges are the
        collective-write pattern: warning, not error."""
        from repro.vfd.base import IoClass
        from repro.vfd.tracing import VfdIoRecord

        def rec(task, offset, start):
            return VfdIoRecord(task=task, file="/f.h5", op="write",
                               offset=offset, nbytes=512, start=start,
                               duration=0.01, access_type=IoClass.RAW,
                               data_object="/d")

        a = _profile("a", 0.0, 1.0, records=[rec("a", 0, 0.5)])
        b = _profile("b", 0.0, 1.0, records=[rec("b", 512, 0.6)])
        report = lint_profiles([a, b],
                               LintConfig(disable=("DY1", "DY3")))
        waw = [f for f in report.findings if f.code == "DY203"]
        assert len(waw) == 1
        assert waw[0].severity is Severity.WARNING
        assert waw[0].evidence["extent_precision"] == "byte"

    def test_cross_object_overlap(self):
        """Unordered writers whose byte ranges alias across different
        objects of one file (DY204)."""
        from repro.vfd.base import IoClass
        from repro.vfd.tracing import VfdIoRecord

        def rec(task, obj, offset, start):
            return VfdIoRecord(task=task, file="/f.h5", op="write",
                               offset=offset, nbytes=1024, start=start,
                               duration=0.01, access_type=IoClass.RAW,
                               data_object=obj)

        a = _profile("a", 0.0, 1.0, records=[rec("a", "/x", 0, 0.5)])
        b = _profile("b", 0.0, 1.0, records=[rec("b", "/y", 512, 0.6)])
        report = lint_profiles([a, b],
                               LintConfig(disable=("DY1", "DY3")))
        codes = {f.code: f for f in report.findings}
        assert "DY204" in codes
        assert codes["DY204"].evidence["overlap"] == [512, 1024]
        assert "DY203" not in codes  # different objects

    def test_layout_mismatch(self):
        def obj(task, layout):
            return DataObjectProfile(task=task, file="/f.h5",
                                     object_name="/d", acquired=0.0,
                                     layout=layout, reads=1,
                                     elements_read=10)

        a = _profile("a", 0.0, 1.0, objects=[obj("a", "chunked")], stats=[
            _stats("a", "/f.h5", "/d", reads=1, data_ops=1,
                   data_bytes=64)])
        b = _profile("b", 2.0, 3.0, objects=[obj("b", "contiguous")],
                     stats=[_stats("b", "/f.h5", "/d", reads=1, first=2.0,
                                   last=2.5, data_ops=1, data_bytes=64)])
        report = lint_profiles([a, b], LintConfig(disable=("DY3",)))
        mismatches = [f for f in report.findings if f.code == "DY104"]
        assert len(mismatches) == 1
        assert mismatches[0].evidence["layouts"] == {
            "chunked": ["a"], "contiguous": ["b"]}

    def test_dependency_cycle_flagged_and_named(self):
        # a writes f1 then reads f2; b writes f2 (earlier) then reads f1
        # (later): each task consumes the other's output.
        a = _profile("a", 0.0, 4.0, stats=[
            _stats("a", "/f1", "/d", writes=1, first=1.0, last=1.1,
                   data_ops=1, data_bytes=64),
            _stats("a", "/f2", "/d", reads=1, first=2.0, last=2.1,
                   data_ops=1, data_bytes=64),
        ])
        b = _profile("b", 0.0, 4.0, stats=[
            _stats("b", "/f2", "/d", writes=1, first=0.5, last=0.6,
                   data_ops=1, data_bytes=64),
            _stats("b", "/f1", "/d", reads=1, first=3.0, last=3.1,
                   data_ops=1, data_bytes=64),
        ])
        report = lint_profiles([a, b], LintConfig(disable=("DY3",)))
        cycles = [f for f in report.findings if f.code == "DY205"]
        assert len(cycles) == 1
        assert sorted(cycles[0].evidence["cycle"]) == ["a", "b"]

        with pytest.raises(CyclicDependencyError) as excinfo:
            infer_task_order([a, b])
        assert sorted(excinfo.value.cycle) == ["a", "b"]
        # Satellite requirement: the message names the offending tasks.
        assert "a" in str(excinfo.value) and "->" in str(excinfo.value)


# ----------------------------------------------------------------------
# DY3xx: each sanitizer rule catches its corruption
# ----------------------------------------------------------------------
@pytest.fixture()
def healthy_profile(hazard_profiles):
    p = copy.deepcopy(
        next(p for p in hazard_profiles if p.task == "corner_case"))
    assert p.io_records, "fixture must carry per-operation records"
    assert lint_profiles([p]).clean
    return p


def _codes(profile, config=None):
    return {f.code for f in
            lint_profiles([profile], config or LintConfig()).findings}


class TestSanitizer:
    def test_vol_without_vfd(self, healthy_profile):
        healthy_profile.object_profiles.append(DataObjectProfile(
            task=healthy_profile.task, file="/nowhere.h5",
            object_name="/lost", acquired=0.0, writes=1,
            elements_written=100))
        assert "DY301" in _codes(healthy_profile)

    def test_vfd_without_vol(self, healthy_profile):
        healthy_profile.dataset_stats.append(_stats(
            healthy_profile.task, "/nowhere.h5", "/untracked", writes=1,
            first=healthy_profile.span.start,
            last=healthy_profile.span.start + 0.001,
            data_ops=1, data_bytes=4096))
        assert "DY301" in _codes(healthy_profile)

    def test_underreported_write_bytes(self, healthy_profile):
        # Shrink every raw write record for one contiguous dataset: the
        # VOL still claims a full write, the VFD no longer moved it.
        target = next(op for op in healthy_profile.object_profiles
                      if op.elements_written > 0
                      and op.layout == "contiguous")
        healthy_profile.io_records = [
            dataclasses.replace(r, nbytes=1)
            if (r.data_object == target.object_name and r.op == "write")
            else r
            for r in healthy_profile.io_records
        ]
        assert "DY301" in _codes(healthy_profile,
                                 LintConfig(disable=("DY302", "DY303",
                                                     "DY304", "DY305")))

    def test_negative_record_extent(self, healthy_profile):
        healthy_profile.io_records[0] = dataclasses.replace(
            healthy_profile.io_records[0], nbytes=-5)
        assert "DY302" in _codes(healthy_profile)

    def test_malformed_region_run(self, healthy_profile):
        healthy_profile.dataset_stats[0].set_region_runs([(5, 2, 1)])
        assert "DY302" in _codes(healthy_profile)

    def test_orphan_stats_without_regions(self, healthy_profile):
        s = next(s for s in healthy_profile.dataset_stats
                 if s.access_count > 0)
        s.set_region_runs([])
        assert "DY303" in _codes(healthy_profile)

    def test_regions_disagree_with_records(self, healthy_profile):
        s = next(s for s in healthy_profile.dataset_stats
                 if s.data_ops > 0)
        runs = s.region_runs()
        s.set_region_runs(runs + [(runs[-1][1] + 10, runs[-1][1] + 11, 1)])
        assert "DY303" in _codes(healthy_profile)

    def test_record_outside_task_window(self, healthy_profile):
        healthy_profile.io_records[0] = dataclasses.replace(
            healthy_profile.io_records[0],
            start=healthy_profile.span.end + 5.0)
        assert "DY304" in _codes(
            healthy_profile, LintConfig(disable=("DY303",)))

    def test_records_without_session(self, healthy_profile):
        healthy_profile.file_sessions = []
        assert "DY305" in _codes(healthy_profile)

    def test_records_exceed_session_accounting(self, healthy_profile):
        for sess in healthy_profile.file_sessions:
            sess.read_ops = 0
            sess.write_ops = 0
        assert "DY305" in _codes(healthy_profile)


# ----------------------------------------------------------------------
# Registry, config, fingerprints, baseline
# ----------------------------------------------------------------------
class TestRegistryAndBaseline:
    def test_registry_families_complete(self):
        codes = [r.code for r in all_rules()]
        assert codes == sorted(codes)
        assert {c[:3] for c in codes} == {"DY1", "DY2", "DY3", "DY4",
                                          "DY5", "DY6", "DY7"}
        assert len(codes) == len(set(codes))
        assert get_rule("DY203").scope == "workflow"
        assert get_rule("DY301").scope == "profile"
        assert get_rule("DY401").scope == "contract"
        assert get_rule("DY451").scope == "drift"
        assert get_rule("DY501").scope == "race"
        assert get_rule("DY601").scope == "perf"
        assert get_rule("DY651").scope == "costdrift"
        assert get_rule("DY701").scope == "workflow"

    def test_config_precedence(self):
        dy105 = get_rule("DY105")
        assert not LintConfig().is_enabled(dy105)  # off by default
        assert LintConfig(enable=("DY105",)).is_enabled(dy105)
        assert LintConfig(enable=("DY1",)).is_enabled(dy105)
        assert not LintConfig(enable=("DY105",),
                              disable=("DY1",)).is_enabled(dy105)
        with pytest.raises(ValueError):
            LintConfig(enable=("bogus",))

    def test_enabled_rules_memo_sees_new_rules(self, monkeypatch):
        from repro.lint import rules

        monkeypatch.setattr(rules, "_REGISTRY", dict(rules._REGISTRY))
        monkeypatch.setattr(rules, "_ENABLED", {})
        config = LintConfig(disable=("DY302",))
        before = config.enabled_rules(scope="profile")
        assert config.enabled_rules(scope="profile") is before
        assert "DY302" not in {r.code for r in before}
        # An equal config shares the memo entry.
        assert LintConfig(disable=("DY302",)).enabled_rules(
            scope="profile") is before

        rules.rule("DY399", "test-only", Severity.NOTE, "profile",
                   "registered by this test")(lambda profile, cfg: [])
        after = config.enabled_rules(scope="profile")
        assert [r.code for r in after] == sorted(
            [r.code for r in before] + ["DY399"])
        assert config.enabled_rules() == tuple(
            r for r in all_rules() if config.is_enabled(r))

    def test_fingerprint_stability(self):
        def make(message):
            return Finding(code="DY203", rule="unordered-double-write",
                           severity=Severity.ERROR, message=message,
                           subject="/f.h5:/d", tasks=("b", "a"))

        assert make("one").fingerprint == make("two").fingerprint
        other = dataclasses.replace(make("one"), subject="/g.h5:/d")
        assert other.fingerprint != make("one").fingerprint

    def test_baseline_roundtrip(self, hazard_report, tmp_path):
        path = tmp_path / "baseline.txt"
        save_baseline(str(path), hazard_report.findings)
        fingerprints = load_baseline(str(path))
        assert len(fingerprints) == 2
        suppressed = hazard_report.apply_baseline(fingerprints)
        assert suppressed.clean
        assert len(suppressed.suppressed) == 2
        # A finding not in the baseline still surfaces.
        partial = hazard_report.apply_baseline(
            {hazard_report.findings[0].fingerprint})
        assert len(partial.findings) == 1
        assert len(partial.errors) == 1


# ----------------------------------------------------------------------
# SARIF 2.1.0
# ----------------------------------------------------------------------
# Structural subset of the OASIS SARIF 2.1.0 schema: the required
# top-level shape, run/tool/driver wiring, reportingDescriptors, and
# result objects with the constrained ``level`` enum.  Validating against
# the subset catches every structural mistake an emitter can make while
# keeping the fixture reviewable.
SARIF_SCHEMA_SUBSET = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "version": {"type": "string"},
                                    "informationUri": {
                                        "type": "string",
                                        "format": "uri"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "name": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                    "properties": {
                                                        "text": {
                                                            "type": "string"},
                                                    },
                                                },
                                                "defaultConfiguration": {
                                                    "type": "object",
                                                    "properties": {
                                                        "level": {"enum": [
                                                            "none", "note",
                                                            "warning",
                                                            "error"]},
                                                        "enabled": {
                                                            "type":
                                                            "boolean"},
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer",
                                              "minimum": 0},
                                "level": {"enum": ["none", "note",
                                                   "warning", "error"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"},
                                    },
                                },
                                "partialFingerprints": {
                                    "type": "object",
                                    "additionalProperties": {
                                        "type": "string"},
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {
                                                                "type":
                                                                "string"},
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarif:
    def test_sarif_validates_against_schema(self, hazard_report):
        jsonschema = pytest.importorskip("jsonschema")
        log = to_sarif_dict(hazard_report)
        jsonschema.validate(log, SARIF_SCHEMA_SUBSET)

    def test_sarif_structure(self, hazard_report):
        log = to_sarif_dict(hazard_report)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        # Every registered rule is described, not just the ones that fired.
        assert [r["id"] for r in rules] == [r.code for r in all_rules()]
        assert len(run["results"]) == len(hazard_report.findings)
        for result, finding in zip(run["results"], hazard_report.findings):
            assert result["ruleId"] == finding.code
            assert rules[result["ruleIndex"]]["id"] == finding.code
            assert result["level"] == finding.severity.value
            assert result["partialFingerprints"][
                "dayuLintFingerprint/v1"] == finding.fingerprint

    def test_sarif_empty_report_is_valid(self):
        jsonschema = pytest.importorskip("jsonschema")
        log = to_sarif_dict(LintReport())
        jsonschema.validate(log, SARIF_SCHEMA_SUBSET)
        assert log["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture(scope="class")
    def trace_dir(self, hazard_env, tmp_path_factory):
        d = tmp_path_factory.mktemp("cli_traces")
        hazard_env.mapper.save_to_host_dir(str(d), trace_format="columnar")
        return str(d)

    def test_exit_one_on_errors(self, trace_dir, capsys):
        from repro.lint.cli import lint_main

        assert lint_main([trace_dir]) == 1
        out = capsys.readouterr().out
        assert "DY203" in out and "DY102" in out

    def test_baseline_flow_exits_zero(self, trace_dir, tmp_path, capsys):
        from repro.lint.cli import lint_main

        baseline = str(tmp_path / "base.txt")
        assert lint_main([trace_dir, "--write-baseline", baseline]) == 0
        assert lint_main([trace_dir, "--baseline", baseline]) == 0
        capsys.readouterr()

    def test_sarif_output_file(self, trace_dir, tmp_path, capsys):
        import json

        from repro.lint.cli import lint_main

        out = tmp_path / "lint.sarif"
        assert lint_main([trace_dir, "--format", "sarif",
                          "--out", str(out)]) == 1
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        capsys.readouterr()

    def test_disable_family(self, trace_dir, capsys):
        from repro.lint.cli import lint_main

        assert lint_main([trace_dir, "--disable", "DY2",
                          "--disable", "DY102"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        from repro.lint.cli import lint_main

        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for r in all_rules():
            assert r.code in out
