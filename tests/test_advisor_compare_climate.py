"""Tests for advisory severity triage, run comparison, and the netCDF
climate workload."""

import numpy as np
import pytest

from repro.analyzer import compare_runs
from repro.experiments.common import fresh_env
from repro.guidelines import recommend
from repro.lint import ADVISORY, Severity, all_rules, lint_profiles
from repro.mapper import DaYuConfig, DataSemanticMapper
from repro.posix import SimFS
from repro.simclock import SimClock
from repro.storage import Mount, make_device
from repro.workloads import ClimateParams, build_climate


def make_env():
    clock = SimClock()
    fs = SimFS(clock, mounts=[Mount("/", make_device("nvme"))])
    return fs, DataSemanticMapper(clock, DaYuConfig())


def scattered(mapper, fs, n, path="/pfs/s.h5"):
    """One task writing ``n`` 40-byte datasets into ``path``."""
    with mapper.task("writer") as ctx:
        f = ctx.open(fs, path, "w")
        for i in range(n):
            f.create_dataset(f"s{i}", shape=(10,), dtype="i4",
                             data=np.zeros(10, "i4"))
        f.close()


def reused(mapper, fs, consumers, path="/pfs/hot.h5"):
    """A produced file read by ``consumers`` tasks."""
    with mapper.task("producer") as ctx:
        f = ctx.open(fs, path, "w")
        f.create_dataset("x", shape=(1000,), data=np.zeros(1000))
        f.close()
    for i in range(consumers):
        with mapper.task(f"consumer{i}") as ctx:
            f = ctx.open(fs, path, "r")
            f["x"].read()
            f.close()


def advice(mapper, code=None):
    findings = lint_profiles(list(mapper.profiles.values()),
                             ADVISORY).findings
    return [f for f in findings if code is None or f.code == code]


class TestAdvisorTriage:
    def test_massive_scattering_is_critical(self):
        fs, mapper = make_env()
        scattered(mapper, fs, 64)
        [f] = advice(mapper, "DY706")
        assert f.severity is Severity.ERROR

    def test_mild_scattering_is_warning(self):
        fs, mapper = make_env()
        scattered(mapper, fs, 10)
        [f] = advice(mapper, "DY706")
        assert f.severity is Severity.WARNING

    def test_heavy_metadata_is_critical(self):
        fs, mapper = make_env()
        with mapper.task("w") as ctx:
            f = ctx.open(fs, "/small.h5", "w")
            f.create_dataset("c", shape=(64,), dtype="f8",
                             layout="chunked", chunks=(8,),
                             data=np.zeros(64))
            f.close()
        [f] = advice(mapper, "DY708")
        assert f.evidence["metadata_fraction"] >= 0.5
        assert f.severity is Severity.ERROR

    def test_light_reuse_is_info(self):
        fs, mapper = make_env()
        reused(mapper, fs, 2)
        [f] = advice(mapper, "DY701")
        assert f.severity is Severity.NOTE

    def test_wide_reuse_is_warning(self):
        fs, mapper = make_env()
        reused(mapper, fs, 6)
        [f] = advice(mapper, "DY701")
        assert f.severity is Severity.WARNING

    def test_sorted_most_severe_first(self):
        fs, mapper = make_env()
        scattered(mapper, fs, 64)
        reused(mapper, fs, 2)
        ranks = [f.severity.rank for f in advice(mapper)]
        assert ranks == sorted(ranks, reverse=True)
        assert ranks[0] > ranks[-1]

    def test_counts_and_filtering(self):
        fs, mapper = make_env()
        scattered(mapper, fs, 64)
        reused(mapper, fs, 6)
        report = lint_profiles(list(mapper.profiles.values()), ADVISORY)
        counts = {sev.value: 0 for sev in Severity}
        for f in report.findings:
            counts[f.severity.value] += 1
        assert report.counts == counts
        assert [f.code for f in report.errors] == ["DY706"]
        assert "DY701" in {f.code for f in report.findings
                           if f.severity is Severity.WARNING}

    def test_render_contains_sections_and_actions(self):
        fs, mapper = make_env()
        scattered(mapper, fs, 64)
        reused(mapper, fs, 2)
        report = lint_profiles(list(mapper.profiles.values()), ADVISORY)
        assert "1 error(s)" in report.summary()
        text = "\n".join(str(r) for r in recommend(report.findings))
        assert "consolidate_datasets(/pfs/s.h5)" in text
        assert "cache_in_fast_tier(/pfs/hot.h5)" in text

    def test_empty_report_renders(self):
        assert "0 error(s)" in lint_profiles([], ADVISORY).summary()

    def test_every_kind_triages(self):
        family = [r for r in all_rules()
                  if r.code.startswith("DY7") or r.code == "DY105"]
        assert len(family) == 11
        for r in family:
            assert isinstance(r.severity, Severity)
            assert not r.default_enabled
            assert ADVISORY.is_enabled(r)


class TestRunComparison:
    def _run(self, device):
        clock = SimClock()
        fs = SimFS(clock, mounts=[Mount("/", make_device(device))])
        mapper = DataSemanticMapper(clock, DaYuConfig())
        with mapper.task("reader") as ctx:
            from repro.hdf5 import H5File
            with H5File(fs, "/d.h5", "w") as f:
                f.create_dataset("x", shape=(50_000,), dtype="f8",
                                 data=np.zeros(50_000))
            f = ctx.open(fs, "/d.h5", "r")
            f["x"].read()
            f.close()
        return list(mapper.profiles.values())

    def test_faster_device_shows_negative_io_delta(self):
        slow = self._run("nfs")
        fast = self._run("nvme")
        cmp = compare_runs(slow, fast)
        assert cmp.total_io_time_delta < 0
        assert cmp.total_ops_delta == pytest.approx(0.0)  # same op counts
        assert "/d.h5" in cmp.improved_files("io_time")
        assert cmp.regressed_files("io_time") == []

    def test_missing_task_appears_as_new(self):
        base = self._run("nvme")
        cmp = compare_runs([], base)
        [row] = cmp.task_rows
        assert row["ops_before"] == 0
        assert row["ops_delta"] == float("inf")

    def test_markdown_rendering(self):
        base = self._run("nfs")
        opt = self._run("nvme")
        md = compare_runs(base, opt).to_markdown()
        assert "Run comparison" in md
        assert "reader" in md
        assert "%" in md


class TestClimateWorkload:
    @pytest.fixture(scope="class")
    def run(self):
        env = fresh_env(n_nodes=2)
        params = ClimateParams(data_dir="/beegfs/climate", n_models=3,
                               timesteps=5, cells=64)
        result = env.runner.run(build_climate(params))
        return env, params, result

    def test_three_stages_execute(self, run):
        env, params, result = run
        assert [s.name for s in result.stage_results] == [
            "simulate", "regrid", "statistics"]
        assert result.wall_time > 0

    def test_netcdf_files_readable(self, run):
        env, params, result = run
        from repro.netcdf import NcFile
        with NcFile(env.cluster.fs, params.member_file(0), "r") as f:
            assert f.numrecs == params.timesteps
            assert set(f.variables()) == {"temperature", "pressure"}
            assert f.get_att("member") == 0
        with NcFile(env.cluster.fs, params.stats_file, "r") as f:
            summary = f.variable("summary").read()
            assert summary[0] <= summary[1] <= summary[2]  # min<=mean<=max

    def test_profiles_capture_record_io(self, run):
        env, params, result = run
        model0 = env.mapper.profiles["model_000"]
        [temp] = [s for s in model0.dataset_stats
                  if s.data_object == "/temperature"]
        assert temp.writes == params.timesteps  # one op per record
        [obj] = [p for p in model0.object_profiles
                 if p.object_name == "/temperature"]
        assert obj.layout == "record"

    def test_regrid_reads_interleaved_records(self, run):
        env, params, result = run
        regrid = env.mapper.profiles["regrid"]
        temp_rows = [s for s in regrid.dataset_stats
                     if s.data_object == "/temperature"]
        assert len(temp_rows) == params.n_models
        # Reading a whole record variable costs one op per record.
        assert all(s.reads == params.timesteps for s in temp_rows)

    def test_diagnostics_work_on_netcdf_profiles(self, run):
        env, params, result = run
        report = lint_profiles(list(env.mapper.profiles.values()), ADVISORY)
        raw = [f for f in report.findings if f.code == "DY703"]
        assert any("merged.nc" in f.subject for f in raw)

    def test_advisor_end_to_end(self, run):
        env, params, result = run
        report = lint_profiles(list(env.mapper.profiles.values()), ADVISORY)
        assert any(f.code.startswith("DY7") for f in report.findings)
        assert recommend(report.findings)
