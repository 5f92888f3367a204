"""Tests for the automated optimizer: plan building, plan execution, and
the transparent runtime cache — including an end-to-end check that an
auto-generated plan actually speeds up a workflow."""

import numpy as np
import pytest

from repro.cluster import Cluster, Node
from repro.hdf5 import H5File
from repro.lint import ADVISORY, Finding, Severity, lint_profiles
from repro.mapper import DaYuConfig, DataSemanticMapper
from repro.optimizer import TransparentCache, build_plan
from repro.simclock import SimClock
from repro.workflow import DataflowRunner, Stage, Task, Workflow


def make_cluster(n=2):
    clock = SimClock()
    cluster = Cluster(
        clock,
        [Node(f"n{i}", local_tiers={"ssd": "nvme"}) for i in range(n)],
        shared_mounts={"/pfs": "beegfs"},
    )
    return clock, cluster


def finding(code, subject, tasks=("t1",), **evidence):
    return Finding(code=code, rule="r", severity=Severity.NOTE,
                   message="test", subject=subject, tasks=tuple(tasks),
                   evidence=dict(evidence))


class TestPlanBuilding:
    def test_reuse_becomes_stage_in_and_pins(self):
        clock, cluster = make_cluster()
        findings = [
            finding("DY701", "/pfs/hot.h5", tasks=("a", "b")),
        ]
        plan = build_plan(findings, cluster)
        assert [s.action for s in plan.by_action("stage_in")] == ["stage_in"]
        assert plan.pins == {"a": "n0", "b": "n0"}
        assert plan.resolve("/pfs/hot.h5").startswith("/local/n0/ssd/")
        assert plan.resolve("/pfs/cold.h5") == "/pfs/cold.h5"

    def test_scattering_becomes_consolidate(self):
        clock, cluster = make_cluster()
        findings = [
            finding("DY706", "/pfs/scatter.h5"),
        ]
        plan = build_plan(findings, cluster)
        assert plan.by_action("consolidate")[0].target == "/pfs/scatter.h5"

    def test_metadata_overhead_becomes_contiguous_conversion(self):
        clock, cluster = make_cluster()
        findings = [
            finding("DY708", "/pfs/f.h5:/dset"),
        ]
        plan = build_plan(findings, cluster)
        assert plan.by_action("convert_contiguous")[0].target == "/pfs/f.h5"

    def test_vlen_becomes_chunked_conversion(self):
        clock, cluster = make_cluster()
        findings = [
            finding("DY105", "/pfs/v.h5:/image0"),
        ]
        plan = build_plan(findings, cluster)
        assert plan.by_action("convert_chunked")[0].target == "/pfs/v.h5"

    def test_disposable_becomes_stage_out(self):
        clock, cluster = make_cluster()
        findings = [
            finding("DY705", "/pfs/tmp.h5"),
        ]
        plan = build_plan(findings, cluster)
        assert plan.by_action("stage_out")

    def test_one_rewrite_per_file_whatever_the_order(self):
        # Scattering outranks metadata overhead and vlen chunking on the
        # same file, whichever order (or severity) the findings come in.
        clock, cluster = make_cluster()
        findings = [
            finding("DY708", "/pfs/f.h5:/d"),
            finding("DY105", "/pfs/f.h5:/v"),
            finding("DY706", "/pfs/f.h5"),
        ]
        for ordered in (findings, findings[::-1]):
            plan = build_plan(ordered, cluster)
            assert [(s.action, s.target) for s in plan.steps] == [
                ("consolidate", "/pfs/f.h5")]

    def test_duplicate_insights_deduplicated(self):
        clock, cluster = make_cluster()
        findings = [
            finding("DY701", "/pfs/hot.h5", tasks=("a",)),
            finding("DY701", "/pfs/hot.h5", tasks=("b",)),
            finding("DY708", "/pfs/f.h5:/d1"),
            finding("DY708", "/pfs/f.h5:/d2"),
        ]
        plan = build_plan(findings, cluster)
        assert len(plan.by_action("stage_in")) == 1
        assert len(plan.by_action("convert_contiguous")) == 1

    def test_target_node_and_tier_selection(self):
        clock, cluster = make_cluster(3)
        findings = [
            finding("DY701", "/pfs/hot.h5", tasks=("a",)),
        ]
        plan = build_plan(findings, cluster, target_node="n2")
        assert plan.pins["a"] == "n2"
        assert plan.resolve("/pfs/hot.h5").startswith("/local/n2/ssd/")

    def test_node_without_tier_rejected(self):
        clock = SimClock()
        cluster = Cluster(clock, [Node("bare")], {"/pfs": "nfs"})
        with pytest.raises(ValueError, match="no local storage tier"):
            build_plan([], cluster)

    def test_empty_report_empty_plan(self):
        clock, cluster = make_cluster()
        plan = build_plan([], cluster)
        assert plan.steps == []
        assert "Nothing to optimize" in plan.summary()

    def test_summary_lists_steps(self):
        clock, cluster = make_cluster()
        plan = build_plan([
            finding("DY706", "/pfs/s.h5"),
        ], cluster)
        assert "consolidate" in plan.summary()


class TestPlanExecution:
    def test_stage_in_all_creates_replicas(self):
        clock, cluster = make_cluster()
        with H5File(cluster.fs, "/pfs/hot.h5", "w") as f:
            f.create_dataset("d", shape=(100,), data=np.zeros(100))
        plan = build_plan([
            finding("DY701", "/pfs/hot.h5", tasks=("a",)),
        ], cluster)
        staged = plan.stage_in_all(cluster.fs)
        assert cluster.fs.exists(staged["/pfs/hot.h5"])

    def test_apply_format_changes_contiguous(self):
        clock, cluster = make_cluster()
        with H5File(cluster.fs, "/pfs/f.h5", "w") as f:
            f.create_dataset("d", shape=(64,), dtype="f8",
                             layout="chunked", chunks=(8,),
                             data=np.arange(64.0))
        plan = build_plan([
            finding("DY708", "/pfs/f.h5:/d"),
        ], cluster)
        rewritten = plan.apply_format_changes(cluster.fs)
        new = rewritten["/pfs/f.h5"]
        with H5File(cluster.fs, new, "r") as f:
            assert f["d"].layout_name == "contiguous"
            np.testing.assert_array_equal(f["d"].read(), np.arange(64.0))

    def test_apply_format_changes_consolidate(self):
        clock, cluster = make_cluster()
        with H5File(cluster.fs, "/pfs/s.h5", "w") as f:
            for i in range(10):
                f.create_dataset(f"x{i}", shape=(4,), dtype="i4",
                                 data=np.full(4, i, np.int32))
        plan = build_plan([
            finding("DY706", "/pfs/s.h5"),
        ], cluster)
        rewritten = plan.apply_format_changes(cluster.fs)
        with H5File(cluster.fs, rewritten["/pfs/s.h5"], "r") as f:
            assert "consolidated" in f.keys()

    def test_missing_files_skipped(self):
        clock, cluster = make_cluster()
        plan = build_plan([
            finding("DY708", "/pfs/ghost.h5:/d"),
        ], cluster)
        assert plan.apply_format_changes(cluster.fs) == {}

    def test_staged_paths_never_collide(self):
        # Flattening "/" to "_" mapped both files to one replica name.
        clock, cluster = make_cluster()
        sources = ("/pfs/a/b_c.h5", "/pfs/a_b/c.h5")
        for i, path in enumerate(sources):
            with H5File(cluster.fs, path, "w") as f:
                f.create_dataset("d", shape=(4,), data=np.full(4, float(i)))
        plan = build_plan([finding("DY701", path, tasks=("a", "b"))
                           for path in sources], cluster)
        staged = plan.stage_in_all(cluster.fs)
        assert len(set(staged.values())) == len(sources)
        for i, path in enumerate(sources):
            with H5File(cluster.fs, plan.resolve(path), "r") as f:
                np.testing.assert_array_equal(f["d"].read(),
                                              np.full(4, float(i)))

    def test_stage_out_keeps_same_named_files_apart(self):
        clock, cluster = make_cluster()
        sources = ("/pfs/x/out.h5", "/pfs/y/out.h5")
        for path in sources:
            with H5File(cluster.fs, path, "w") as f:
                f.create_dataset("d", shape=(4,), data=np.zeros(4))
        plan = build_plan([finding("DY705", path) for path in sources],
                          cluster)
        moved = plan.stage_out_all(cluster.fs, "/pfs/archive")
        assert sorted(moved) == ["/pfs/archive/pfs/x/out.h5",
                                 "/pfs/archive/pfs/y/out.h5"]

    def test_stage_out_all(self):
        clock, cluster = make_cluster()
        with H5File(cluster.fs, "/pfs/tmp.h5", "w") as f:
            f.create_dataset("d", shape=(4,), data=[1.0, 2.0, 3.0, 4.0])
        plan = build_plan([
            finding("DY705", "/pfs/tmp.h5"),
        ], cluster)
        moved = plan.stage_out_all(cluster.fs, "/pfs/archive")
        assert moved == ["/pfs/archive/pfs/tmp.h5"]


class TestEndToEndAutoOptimization:
    """The closed loop: profile → diagnose → plan → re-run faster."""

    def _workflow(self, plan=None):
        src = "/pfs/input.h5"

        def reader(name):
            def fn(rt):
                path = plan.resolve(src) if plan else src
                f = rt.open(path, "r")
                f["data"].read()
                f.close()
            return fn

        return Workflow("fanout", [
            Stage("consume", [Task(f"reader_{i}", reader(i)) for i in range(6)]),
        ])

    def _run(self, cluster, workflow, pins=None):
        mapper = DataSemanticMapper(cluster.clock, DaYuConfig())
        runner = DataflowRunner(cluster, mapper, placement="round_robin",
                                pins=pins)
        result = runner.run(workflow)
        return result, mapper

    def test_auto_plan_speeds_up_fanout(self):
        # Baseline run on shared PFS.
        clock, cluster = make_cluster()
        with H5File(cluster.fs, "/pfs/input.h5", "w") as f:
            f.create_dataset("data", shape=(200_000,), dtype="f8",
                             data=np.zeros(200_000))
        baseline, mapper = self._run(cluster, self._workflow())

        # Diagnose and plan automatically.
        report = lint_profiles(list(mapper.profiles.values()), ADVISORY)
        plan = build_plan(report.findings, cluster)
        assert plan.by_action("stage_in"), "reuse should trigger staging"

        # Optimized re-run in a fresh environment.
        clock2, cluster2 = make_cluster()
        with H5File(cluster2.fs, "/pfs/input.h5", "w") as f:
            f.create_dataset("data", shape=(200_000,), dtype="f8",
                             data=np.zeros(200_000))
        plan.stage_in_all(cluster2.fs)
        optimized, _ = self._run(cluster2, self._workflow(plan),
                                 pins=plan.pins)
        assert optimized.stage("consume").wall_time < \
            baseline.stage("consume").wall_time


class TestTransparentCache:
    def _setup(self):
        clock, cluster = make_cluster()
        with H5File(cluster.fs, "/pfs/shared.h5", "w") as f:
            f.create_dataset("d", shape=(100_000,), dtype="f8",
                             data=np.zeros(100_000))
        return clock, cluster

    def test_first_read_places_later_reads_hit(self):
        clock, cluster = self._setup()
        cache = TransparentCache(cluster, tier="ssd")
        p1 = cache("/pfs/shared.h5", "r", "n0")
        assert p1.startswith("/local/n0/ssd/")
        assert cache.misses == 1
        p2 = cache("/pfs/shared.h5", "r", "n0")
        assert p2 == p1
        assert cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_per_node_replicas(self):
        clock, cluster = self._setup()
        cache = TransparentCache(cluster)
        p0 = cache("/pfs/shared.h5", "r", "n0")
        p1 = cache("/pfs/shared.h5", "r", "n1")
        assert p0.startswith("/local/n0/") and p1.startswith("/local/n1/")

    def test_write_invalidates(self):
        clock, cluster = self._setup()
        cache = TransparentCache(cluster)
        replica = cache("/pfs/shared.h5", "r", "n0")
        assert cache.is_cached("/pfs/shared.h5", "n0")
        resolved = cache("/pfs/shared.h5", "r+", "n0")
        assert resolved == "/pfs/shared.h5"  # writes go to the source
        assert not cache.is_cached("/pfs/shared.h5", "n0")
        assert not cluster.fs.exists(replica)

    def test_small_files_not_replicated(self):
        clock, cluster = self._setup()
        with H5File(cluster.fs, "/pfs/tiny.h5", "w") as f:
            f.create_dataset("d", shape=(1,), data=[1.0])
        cache = TransparentCache(cluster, min_bytes=1 << 20)
        assert cache("/pfs/tiny.h5", "r", "n0") == "/pfs/tiny.h5"

    def test_local_paths_pass_through(self):
        clock, cluster = self._setup()
        cache = TransparentCache(cluster)
        local = "/local/n0/ssd/already_here.h5"
        assert cache(local, "r", "n0") == local

    def test_place_on_read_disabled(self):
        clock, cluster = self._setup()
        cache = TransparentCache(cluster, place_on_read=False)
        assert cache("/pfs/shared.h5", "r", "n0") == "/pfs/shared.h5"
        cache.place("/pfs/shared.h5", "n0")
        assert cache("/pfs/shared.h5", "r", "n0").startswith("/local/n0/")

    def test_missing_file_passthrough(self):
        clock, cluster = self._setup()
        cache = TransparentCache(cluster)
        assert cache("/pfs/ghost.h5", "r", "n0") == "/pfs/ghost.h5"

    def test_unknown_tier_rejected(self):
        clock, cluster = self._setup()
        with pytest.raises(KeyError):
            TransparentCache(cluster, tier="tape")

    def test_runner_integration_second_task_faster(self):
        """Installed as the runner's path resolver, the cache makes the
        second reader of a shared file measurably faster — transparent
        runtime optimization, no task-code change."""
        clock, cluster = self._setup()
        cache = TransparentCache(cluster)
        mapper = DataSemanticMapper(clock, DaYuConfig())
        durations = {}

        def reader(name):
            def fn(rt):
                f = rt.open("/pfs/shared.h5", "r")
                f["d"].read()
                f.close()
            return fn

        wf = Workflow("cached", [
            Stage("r1", [Task("first", reader("first"))], parallel=False),
            Stage("r2", [Task("second", reader("second"))], parallel=False),
        ])
        runner = DataflowRunner(
            cluster, mapper, placement="round_robin",
            pins={"first": "n0", "second": "n0"},
            path_resolver=cache,
        )
        result = runner.run(wf)
        first = result.stage("r1").task_durations["first"]
        second = result.stage("r2").task_durations["second"]
        assert second < first  # replica served from node-local SSD
        assert cache.hits >= 1
