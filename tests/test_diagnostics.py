"""Unit tests for the DY7xx advisory lint rules (the paper's case-study
observations) and the advisory report."""

import json
from dataclasses import replace

import numpy as np
import pytest

import repro.lint.advisory as advisory_rules
from repro.analyzer import ParallelAnalyzer
from repro.guidelines import Action, recommend
from repro.lint import ADVISORY, LintConfig, lint_profiles
from repro.mapper import DaYuConfig, DataSemanticMapper
from repro.posix import SimFS
from repro.simclock import SimClock
from repro.storage import Mount, make_device


def make_env():
    clock = SimClock()
    fs = SimFS(clock, mounts=[Mount("/", make_device("nvme"))])
    return clock, fs, DataSemanticMapper(clock, DaYuConfig())


def advisory(profiles, code, config=ADVISORY):
    """The findings of one advisory rule over ``profiles``."""
    return [f for f in lint_profiles(list(profiles), config).findings
            if f.code == code]


def action_of(finding):
    [rec] = recommend([finding])
    return rec.action


class TestDataReuse:
    def test_multi_consumer_file_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("producer") as ctx:
            f = ctx.open(fs, "/d.h5", "w")
            f.create_dataset("x", shape=(10,), data=np.zeros(10))
            f.close()
        for name in ("c1", "c2", "c3"):
            with mapper.task(name) as ctx:
                f = ctx.open(fs, "/d.h5", "r")
                f["x"].read()
                f.close()
        reuse = advisory(mapper.profiles.values(), "DY701")
        assert len(reuse) == 1
        assert reuse[0].subject == "/d.h5"
        assert reuse[0].evidence["consumers"] == 3
        assert action_of(reuse[0]) is Action.CACHE_IN_FAST_TIER

    def test_write_after_read_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("seed") as ctx:
            f = ctx.open(fs, "/d.h5", "w")
            f.create_dataset("x", shape=(10,), data=np.zeros(10))
            f.close()
        with mapper.task("war") as ctx:
            f = ctx.open(fs, "/d.h5", "r+")
            v = f["x"].read()
            f["x"].write(v + 1)
            f.close()
        war = advisory(mapper.profiles.values(), "DY702")
        assert any(f.tasks == ("war",) for f in war)

    def test_read_after_write_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("writer") as ctx:
            f = ctx.open(fs, "/e.h5", "w")
            f.create_dataset("x", shape=(4,), data=np.zeros(4))
            f.close()
        with mapper.task("reader") as ctx:
            f = ctx.open(fs, "/e.h5", "r")
            f["x"].read()
            f.close()
        raw = advisory(mapper.profiles.values(), "DY703")
        assert raw and raw[0].evidence["producer"] == "writer"

    def test_single_consumer_not_reuse(self):
        clock, fs, mapper = make_env()
        with mapper.task("p") as ctx:
            f = ctx.open(fs, "/d.h5", "w")
            f.create_dataset("x", shape=(4,), data=np.zeros(4))
            f.close()
        with mapper.task("c") as ctx:
            f = ctx.open(fs, "/d.h5", "r")
            f["x"].read()
            f.close()
        assert advisory(mapper.profiles.values(), "DY701") == []


class TestTimeDependentInputs:
    def test_late_input_flagged(self):
        clock, fs, mapper = make_env()
        # External input files created outside any task.
        for path in ("/early.h5", "/late.h5"):
            from repro.hdf5 import H5File
            with H5File(fs, path, "w") as f:
                f.create_dataset("x", shape=(1000,), data=np.zeros(1000))
        with mapper.task("t1") as ctx:
            f = ctx.open(fs, "/early.h5", "r")
            f["x"].read()
            f.close()
            clock.advance(100.0)  # long compute phase
        with mapper.task("t2") as ctx:
            f = ctx.open(fs, "/late.h5", "r")
            f["x"].read()
            f.close()
        subjects = {f.subject
                    for f in advisory(mapper.profiles.values(), "DY704")}
        assert "/late.h5" in subjects
        assert "/early.h5" not in subjects

    def test_produced_files_not_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("t1") as ctx:
            f = ctx.open(fs, "/made.h5", "w")
            f.create_dataset("x", shape=(4,), data=np.zeros(4))
            f.close()
            clock.advance(100.0)
        with mapper.task("t2") as ctx:
            f = ctx.open(fs, "/made.h5", "r")
            f["x"].read()
            f.close()
        assert advisory(mapper.profiles.values(), "DY704") == []

    def test_empty_profiles(self):
        assert lint_profiles([], ADVISORY).findings == []


class TestDisposableData:
    def test_single_use_output_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("t1") as ctx:
            f = ctx.open(fs, "/tmp.h5", "w")
            f.create_dataset("x", shape=(4,), data=np.zeros(4))
            f.close()
        with mapper.task("t2") as ctx:
            f = ctx.open(fs, "/tmp.h5", "r")
            f["x"].read()
            f.close()
            g = ctx.open(fs, "/final.h5", "w")
            g.create_dataset("y", shape=(4,), data=np.zeros(4))
            g.close()
        with mapper.task("t3") as ctx:
            f = ctx.open(fs, "/final.h5", "r")
            f["y"].read()
            f.close()
        subjects = {f.subject
                    for f in advisory(mapper.profiles.values(), "DY705")}
        assert "/tmp.h5" in subjects  # idle while t3 runs
        assert "/final.h5" not in subjects  # used by the last task


class TestDataScattering:
    def test_many_small_datasets_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("writer") as ctx:
            f = ctx.open(fs, "/scatter.h5", "w")
            for i in range(32):
                f.create_dataset(f"s{i}", shape=(10,), dtype="i4",
                                 data=np.zeros(10, "i4"))  # 40 B each
            f.close()
        findings = advisory(mapper.profiles.values(), "DY706")
        assert len(findings) == 1
        assert findings[0].evidence["datasets"] == 32
        assert action_of(findings[0]) is Action.CONSOLIDATE_DATASETS

    def test_vlen_datasets_exempt(self):
        """VL objects' inline footprint is just heap references; they must
        not read as 'tiny scattered datasets'."""
        clock, fs, mapper = make_env()
        with mapper.task("writer") as ctx:
            f = ctx.open(fs, "/vl.h5", "w")
            for i in range(16):
                f.create_dataset(f"v{i}", shape=(4,), dtype="vlen-bytes",
                                 data=[b"big" * 1000] * 4)
            f.close()
        assert advisory(mapper.profiles.values(), "DY706") == []

    def test_large_datasets_not_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("writer") as ctx:
            f = ctx.open(fs, "/big.h5", "w")
            for i in range(10):
                f.create_dataset(f"b{i}", shape=(10_000,), dtype="f8",
                                 data=np.zeros(10_000))
            f.close()
        assert advisory(mapper.profiles.values(), "DY706") == []


class TestPartialFileAccess:
    def test_metadata_only_sibling_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("prep") as ctx:
            f = ctx.open(fs, "/agg.h5", "w")
            f.create_dataset("contact_map", shape=(5000,), dtype="f8",
                             data=np.zeros(5000))
            f.create_dataset("rmsd", shape=(100,), dtype="f8",
                             data=np.zeros(100))
            f.close()
        with mapper.task("training") as ctx:
            f = ctx.open(fs, "/agg.h5", "r")
            # Opening the dataset reads only its header (metadata), not data.
            _ = f["contact_map"].shape
            f["rmsd"].read()
            f.close()
        profiles = [mapper.profiles["training"]]
        findings = advisory(profiles, "DY707")
        assert any("contact_map" in f.subject for f in findings)
        assert all(action_of(f) is Action.SKIP_UNUSED_DATA for f in findings)


class TestMetadataOverhead:
    def test_small_chunked_dataset_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("w") as ctx:
            f = ctx.open(fs, "/small.h5", "w")
            f.create_dataset("c", shape=(64,), dtype="f8",
                             layout="chunked", chunks=(8,),
                             data=np.zeros(64))
            f.close()
        findings = advisory(mapper.profiles.values(), "DY708")
        assert any("/c" in f.subject for f in findings)

    def test_contiguous_not_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("w") as ctx:
            f = ctx.open(fs, "/c.h5", "w")
            f.create_dataset("d", shape=(64,), dtype="f8", data=np.zeros(64))
            f.close()
        assert advisory(mapper.profiles.values(), "DY708") == []


class TestReadonlySequential:
    def test_scanning_task_flagged(self):
        clock, fs, mapper = make_env()
        from repro.hdf5 import H5File
        for i in range(4):
            with H5File(fs, f"/sim{i}.h5", "w") as f:
                f.create_dataset("x", shape=(1000,), data=np.zeros(1000))
        with mapper.task("aggregate") as ctx:
            for i in range(4):
                f = ctx.open(fs, f"/sim{i}.h5", "r")
                f["x"].read()
                f.close()
        findings = advisory(mapper.profiles.values(), "DY709")
        assert len(findings) == 1
        assert findings[0].subject == "aggregate"
        assert findings[0].evidence["files"] == 4


class TestTaskIndependence:
    def test_independent_pair_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("training") as ctx:
            f = ctx.open(fs, "/model.h5", "w")
            f.create_dataset("w", shape=(10,), data=np.zeros(10))
            f.close()
        with mapper.task("inference") as ctx:
            f = ctx.open(fs, "/results.h5", "w")
            f.create_dataset("out", shape=(10,), data=np.zeros(10))
            f.close()
        findings = advisory(mapper.profiles.values(), "DY710")
        assert len(findings) == 1
        assert findings[0].tasks == ("training", "inference")
        assert action_of(findings[0]) is Action.PARALLELIZE

    def test_task_order_overrides_start_order(self):
        # A recovered execution order (dayu-analyze --infer-order) decides
        # which tasks are consecutive, in serial and sharded runs alike.
        clock, fs, mapper = make_env()
        for name in ("a", "b", "c"):
            with mapper.task(name) as ctx:
                f = ctx.open(fs, f"/{name}.h5", "w")
                f.create_dataset("x", shape=(4,), data=np.zeros(4))
                f.close()
        profiles = list(mapper.profiles.values())

        def pairs(report):
            return [f.tasks for f in report.findings if f.code == "DY710"]

        assert pairs(lint_profiles(profiles, ADVISORY)) == [("a", "b"),
                                                            ("b", "c")]
        order = ("c", "a", "b")
        assert pairs(lint_profiles(profiles, ADVISORY, task_order=order)) \
            == [("a", "b"), ("c", "a")]
        sharded = ParallelAnalyzer(max_workers=1).lint(
            profiles, ADVISORY, task_order=order)
        assert pairs(sharded) == [("a", "b"), ("c", "a")]

    def test_dependent_pair_not_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("a") as ctx:
            f = ctx.open(fs, "/shared.h5", "w")
            f.create_dataset("x", shape=(4,), data=np.zeros(4))
            f.close()
        with mapper.task("b") as ctx:
            f = ctx.open(fs, "/shared.h5", "r")
            f["x"].read()
            f.close()
        assert advisory(mapper.profiles.values(), "DY710") == []


class TestVlenLayout:
    def test_contiguous_vlen_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("save") as ctx:
            f = ctx.open(fs, "/arldm.h5", "w")
            f.create_dataset("image0", shape=(10,), dtype="vlen-bytes",
                             data=[b"img" * (i + 1) for i in range(10)])
            f.close()
        findings = advisory(mapper.profiles.values(), "DY105")
        assert len(findings) == 1
        assert "image0" in findings[0].subject
        assert action_of(findings[0]) is Action.CONVERT_TO_CHUNKED

    def test_chunked_vlen_not_flagged(self):
        clock, fs, mapper = make_env()
        with mapper.task("save") as ctx:
            f = ctx.open(fs, "/arldm.h5", "w")
            f.create_dataset("image0", shape=(10,), dtype="vlen-bytes",
                             layout="chunked", chunks=(5,),
                             data=[b"img"] * 10)
            f.close()
        assert advisory(mapper.profiles.values(), "DY105") == []


class TestDiagnoseReport:
    def _workflow(self):
        clock, fs, mapper = make_env()
        with mapper.task("producer") as ctx:
            f = ctx.open(fs, "/scatter.h5", "w")
            for i in range(16):
                f.create_dataset(f"s{i}", shape=(8,), dtype="i4",
                                 data=np.zeros(8, "i4"))
            f.close()
        for name in ("c1", "c2"):
            with mapper.task(name) as ctx:
                f = ctx.open(fs, "/scatter.h5", "r")
                f["s0"].read()
                f.close()
        return list(mapper.profiles.values())

    def test_diagnose_runs_all_detectors(self):
        report = lint_profiles(self._workflow(), ADVISORY)
        codes = {f.code for f in report.findings}
        assert "DY701" in codes
        assert "DY706" in codes

    def test_threshold_routing(self, monkeypatch):
        # Tighten the scattering threshold until it stops firing.
        monkeypatch.setattr(advisory_rules, "MIN_DATASETS", 100)
        assert advisory(self._workflow(), "DY706") == []

    def test_unknown_threshold_rejected(self):
        # Detector thresholds are module constants, not config fields.
        with pytest.raises(TypeError):
            replace(ADVISORY, bogus_threshold=1)
        for name in ("min_datasets", "late_fraction"):
            with pytest.raises(TypeError):
                LintConfig(**{name: 1})
        with pytest.raises(ValueError, match="bad rule selector"):
            LintConfig(enable=("data_scattering",))

    def test_summary_and_json(self):
        report = lint_profiles(self._workflow(), ADVISORY)
        assert "note(s)" in report.summary()
        parsed = json.loads(report.to_json())
        assert len(parsed["findings"]) == len(report.findings)

    def test_empty_summary(self):
        assert "0 error(s), 0 warning(s), 0 note(s)" in \
            lint_profiles([], ADVISORY).summary()

    def test_by_guideline_groups(self):
        recs = recommend(lint_profiles(self._workflow(), ADVISORY).findings)
        actions = {r.action for r in recs}
        assert {Action.CACHE_IN_FAST_TIER,
                Action.CONSOLIDATE_DATASETS} <= actions
        assert all(r.code.startswith("DY7") or r.code == "DY105"
                   for r in recs)
