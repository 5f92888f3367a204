"""Tests for the automated optimizer: advisory findings compiled to a
``dayu-plan/v1`` plan, that plan run through the one plan executor
(``stage_in_plan``, ``plan_path_resolver`` and runner pins), the
findings-driven file transforms, and the transparent runtime cache —
including end-to-end checks that an auto-generated plan actually speeds
up a workflow."""

import json

import numpy as np
import pytest

from repro.cli import run_main
from repro.cluster import Cluster, Node
from repro.experiments.common import fresh_env
from repro.hdf5 import H5File
from repro.lint import ADVISORY, Finding, Severity, lint_profiles
from repro.mapper import DaYuConfig, DataSemanticMapper
from repro.optimizer import (
    TransparentCache,
    apply_format_changes,
    build_plan,
    stage_out_all,
)
from repro.optimizer import planner
from repro.simclock import SimClock
from repro.workflow import DataflowRunner, Stage, Task, Workflow
from repro.workflow.plan import (
    PLAN_SCHEMA,
    FilePlacement,
    PlacementPlan,
    local_path,
    plan_file_map,
    plan_path_resolver,
    stage_in_plan,
)
from repro.workloads.registry import build_workload


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


def placements(plan):
    return [(f.path, f.node, f.tier) for f in plan.files]


def write_h5(fs, path, layout, n_datasets=1):
    with H5File(fs, path, "w") as f:
        for i in range(n_datasets):
            kw = {"chunks": (8,)} if layout == "chunked" else {}
            f.create_dataset(f"d{i}", shape=(64,), dtype="f8",
                             layout=layout, data=np.arange(64.0), **kw)


def rewrite_of(fs, path):
    """Which rewrite produced ``path``: consolidate, or the new layout."""
    with H5File(fs, path, "r") as f:
        if "consolidated" in f.keys():
            return "consolidate"
        return f["d0"].layout_name


class TestPlanBuilding:
    def test_reuse_becomes_stage_in_and_pins(self):
        clock, cluster = make_cluster()
        findings = [
            finding("DY701", "/pfs/hot.h5", tasks=("a", "b")),
        ]
        plan = build_plan(findings, cluster)
        assert isinstance(plan, PlacementPlan)
        assert placements(plan) == [("/pfs/hot.h5", "n0", "ssd")]
        assert plan.tasks == {"a": "n0", "b": "n0"}
        resolve = plan_path_resolver(plan)
        assert resolve("/pfs/hot.h5", "r", "n0") == \
            local_path("/pfs/hot.h5", "n0", "ssd")
        assert resolve("/pfs/hot.h5", "r", "n0").startswith("/local/n0/ssd/")
        assert resolve("/pfs/cold.h5", "r", "n0") == "/pfs/cold.h5"

    def test_file_part_of_subject_staged_only_for_paths(self):
        # DY701/DY703 stage the file of a ``file:dataset`` subject; a
        # task-named subject still pins but stages nothing.
        clock, cluster = make_cluster()
        plan = build_plan([
            finding("DY703", "/pfs/chain.h5:/x", tasks=("p", "c")),
            finding("DY703", "producer", tasks=("q",)),
        ], cluster)
        assert placements(plan) == [("/pfs/chain.h5", "n0", "ssd")]
        assert plan.tasks == {"p": "n0", "c": "n0", "q": "n0"}

    def test_late_input_and_sequential_scan(self):
        clock, cluster = make_cluster()
        plan = build_plan([
            finding("DY709", "scanner", tasks=("s",)),
            finding("DY704", "/pfs/late.h5", tasks=("l",)),
        ], cluster)
        assert placements(plan) == [("/pfs/late.h5", "n0", "ssd")]
        assert plan.tasks == {"s": "n0", "l": "n0"}

    def test_application_side_findings_place_nothing(self):
        clock, cluster = make_cluster()
        plan = build_plan([finding(code, "/pfs/f.h5")
                           for code in ("DY702", "DY707", "DY710")], cluster)
        assert plan.files == [] and plan.tasks == {}

    def test_scattering_becomes_consolidate(self):
        clock, cluster = make_cluster()
        write_h5(cluster.fs, "/pfs/scatter.h5", "contiguous", n_datasets=10)
        findings = [
            finding("DY706", "/pfs/scatter.h5"),
        ]
        rewritten = apply_format_changes(cluster.fs, findings)
        assert list(rewritten) == ["/pfs/scatter.h5"]
        assert rewrite_of(cluster.fs, rewritten["/pfs/scatter.h5"]) == \
            "consolidate"
        assert build_plan(findings, cluster).files == []

    def test_metadata_overhead_becomes_contiguous_conversion(self):
        clock, cluster = make_cluster()
        write_h5(cluster.fs, "/pfs/f.h5", "chunked")
        rewritten = apply_format_changes(cluster.fs, [
            finding("DY708", "/pfs/f.h5:/d0"),
        ])
        assert rewrite_of(cluster.fs, rewritten["/pfs/f.h5"]) == "contiguous"

    def test_vlen_becomes_chunked_conversion(self):
        clock, cluster = make_cluster()
        write_h5(cluster.fs, "/pfs/v.h5", "contiguous")
        rewritten = apply_format_changes(cluster.fs, [
            finding("DY105", "/pfs/v.h5:/d0"),
        ])
        assert rewrite_of(cluster.fs, rewritten["/pfs/v.h5"]) == "chunked"

    def test_disposable_becomes_stage_out(self):
        clock, cluster = make_cluster()
        write_h5(cluster.fs, "/pfs/tmp.h5", "contiguous")
        findings = [
            finding("DY705", "/pfs/tmp.h5"),
        ]
        assert stage_out_all(cluster.fs, findings, "/pfs/archive")
        plan = build_plan(findings, cluster)
        assert plan.files == [] and plan.tasks == {}

    def test_one_rewrite_per_file_whatever_the_order(self):
        # Scattering outranks metadata overhead and vlen chunking on the
        # same file, whichever order (or severity) the findings come in.
        findings = [
            finding("DY708", "/pfs/f.h5:/d"),
            finding("DY105", "/pfs/f.h5:/v"),
            finding("DY706", "/pfs/f.h5"),
        ]
        for ordered in (findings, findings[::-1]):
            clock, cluster = make_cluster()
            write_h5(cluster.fs, "/pfs/f.h5", "chunked", n_datasets=10)
            rewritten = apply_format_changes(cluster.fs, ordered)
            assert list(rewritten) == ["/pfs/f.h5"]
            assert rewrite_of(cluster.fs, rewritten["/pfs/f.h5"]) == \
                "consolidate"

    def test_duplicate_insights_deduplicated(self, monkeypatch):
        clock, cluster = make_cluster()
        findings = [
            finding("DY701", "/pfs/hot.h5", tasks=("a",)),
            finding("DY701", "/pfs/hot.h5", tasks=("b",)),
            finding("DY708", "/pfs/f.h5:/d1"),
            finding("DY708", "/pfs/f.h5:/d2"),
        ]
        plan = build_plan(findings, cluster)
        assert placements(plan) == [("/pfs/hot.h5", "n0", "ssd")]
        assert plan.tasks == {"a": "n0", "b": "n0"}
        write_h5(cluster.fs, "/pfs/f.h5", "chunked")
        calls = []
        monkeypatch.setitem(planner._REWRITE_FOR, "DY708",
                            lambda fs, src, dst: calls.append(src))
        apply_format_changes(cluster.fs, findings)
        assert calls == ["/pfs/f.h5"]

    def test_target_node_and_tier_selection(self):
        clock, cluster = make_cluster(3)
        findings = [
            finding("DY701", "/pfs/hot.h5", tasks=("a",)),
        ]
        plan = build_plan(findings, cluster, target_node="n2")
        assert plan.tasks["a"] == "n2"
        assert plan.n_nodes == 3
        assert plan_file_map(plan)["/pfs/hot.h5"].startswith("/local/n2/ssd/")
        fast = Cluster(SimClock(), [Node("n0", local_tiers={
            "ssd": "nvme", "ram": "ram"})], {"/pfs": "beegfs"})
        plan = build_plan(findings, fast, local_tier="ram")
        assert placements(plan) == [("/pfs/hot.h5", "n0", "ram")]

    def test_node_without_tier_rejected(self):
        clock = SimClock()
        cluster = Cluster(clock, [Node("bare")], {"/pfs": "nfs"})
        with pytest.raises(ValueError, match="no local storage tier"):
            build_plan([], cluster)

    def test_empty_report_empty_plan(self):
        clock, cluster = make_cluster()
        plan = build_plan([], cluster)
        assert plan.files == [] and plan.tasks == {}
        assert (plan.workload, plan.cluster, plan.n_nodes) == ("", "", 2)

    def test_plan_is_a_dayu_plan_v1_artifact(self, tmp_path):
        clock, cluster = make_cluster()
        plan = build_plan([
            finding("DY701", "/pfs/hot.h5", tasks=("a", "b")),
        ], cluster)
        doc = json.loads(plan.to_json())
        assert doc["schema"] == PLAN_SCHEMA
        assert doc["files"][0]["placed_path"] == \
            local_path("/pfs/hot.h5", "n0", "ssd")
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert PlacementPlan.load(str(path)).to_json_dict() == \
            plan.to_json_dict()


class TestPlanExecution:
    def test_stage_in_plan_creates_replicas(self):
        clock, cluster = make_cluster()
        with H5File(cluster.fs, "/pfs/hot.h5", "w") as f:
            f.create_dataset("d", shape=(100,), data=np.zeros(100))
        plan = build_plan([
            finding("DY701", "/pfs/hot.h5", tasks=("a",)),
        ], cluster)
        assert stage_in_plan(cluster, plan) > 0
        assert cluster.fs.exists(plan_file_map(plan)["/pfs/hot.h5"])

    def test_apply_format_changes_contiguous(self):
        clock, cluster = make_cluster()
        with H5File(cluster.fs, "/pfs/f.h5", "w") as f:
            f.create_dataset("d", shape=(64,), dtype="f8",
                             layout="chunked", chunks=(8,),
                             data=np.arange(64.0))
        rewritten = apply_format_changes(cluster.fs, [
            finding("DY708", "/pfs/f.h5:/d"),
        ])
        new = rewritten["/pfs/f.h5"]
        assert new == "/pfs/f.h5.opt.h5"
        with H5File(cluster.fs, new, "r") as f:
            assert f["d"].layout_name == "contiguous"
            np.testing.assert_array_equal(f["d"].read(), np.arange(64.0))

    def test_apply_format_changes_consolidate(self):
        clock, cluster = make_cluster()
        with H5File(cluster.fs, "/pfs/s.h5", "w") as f:
            for i in range(10):
                f.create_dataset(f"x{i}", shape=(4,), dtype="i4",
                                 data=np.full(4, i, np.int32))
        rewritten = apply_format_changes(cluster.fs, [
            finding("DY706", "/pfs/s.h5"),
        ], suffix=".merged.h5")
        assert rewritten == {"/pfs/s.h5": "/pfs/s.h5.merged.h5"}
        with H5File(cluster.fs, rewritten["/pfs/s.h5"], "r") as f:
            assert "consolidated" in f.keys()

    def test_missing_files_skipped(self):
        clock, cluster = make_cluster()
        assert apply_format_changes(cluster.fs, [
            finding("DY708", "/pfs/ghost.h5:/d"),
        ]) == {}
        assert stage_out_all(cluster.fs, [finding("DY705", "/pfs/ghost.h5")],
                             "/pfs/archive") == []

    def test_staged_paths_never_collide(self):
        # Flattening "/" to "_" mapped both files to one replica name.
        clock, cluster = make_cluster()
        sources = ("/pfs/a/b_c.h5", "/pfs/a_b/c.h5")
        for i, path in enumerate(sources):
            with H5File(cluster.fs, path, "w") as f:
                f.create_dataset("d", shape=(4,), data=np.full(4, float(i)))
        plan = build_plan([finding("DY701", path, tasks=("a", "b"))
                           for path in sources], cluster)
        stage_in_plan(cluster, plan)
        staged = plan_file_map(plan)
        assert len(set(staged.values())) == len(sources)
        resolve = plan_path_resolver(plan)
        for i, path in enumerate(sources):
            with H5File(cluster.fs, resolve(path, "r", "n0"), "r") as f:
                np.testing.assert_array_equal(f["d"].read(),
                                              np.full(4, float(i)))

    def test_plan_file_map_rejects_colliding_files(self):
        # "/" flattens to "__", so these two meet at one placed path.
        clock, cluster = make_cluster()
        sources = ("/pfs/a__b.h5", "/pfs/a/b.h5")
        plan = build_plan([finding("DY701", path) for path in sources],
                          cluster)
        with pytest.raises(ValueError) as err:
            plan_file_map(plan)
        assert all(repr(path) in str(err.value) for path in sources)
        with pytest.raises(ValueError):
            plan_path_resolver(plan)
        # One file listed twice is not a collision.
        plan.files = [plan.files[0]] * 2
        assert len(plan_file_map(plan)) == 1

    def test_colliding_plan_is_unloadable(self, tmp_path, capsys):
        plan = PlacementPlan(workload="", scale=1.0, cluster="", n_nodes=2,
                             files=[FilePlacement("/beegfs/a__b.h5", "n0",
                                                  "ssd"),
                                    FilePlacement("/beegfs/a/b.h5", "n0",
                                                  "ssd")])
        with pytest.raises(ValueError, match="/beegfs/a/b.h5"):
            PlacementPlan.from_json_dict(plan.to_json_dict())
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert run_main(["climate", "--scale", "0.1", "--plan", str(path),
                         "--out", str(tmp_path / "tr")]) == 2
        err = capsys.readouterr().err
        assert "cannot load --plan" in err and "/beegfs/a__b.h5" in err

    def test_stage_out_keeps_same_named_files_apart(self):
        clock, cluster = make_cluster()
        sources = ("/pfs/x/out.h5", "/pfs/y/out.h5")
        for path in sources:
            with H5File(cluster.fs, path, "w") as f:
                f.create_dataset("d", shape=(4,), data=np.zeros(4))
        moved = stage_out_all(cluster.fs,
                              [finding("DY705", path) for path in sources],
                              "/pfs/archive")
        assert sorted(moved) == ["/pfs/archive/pfs/x/out.h5",
                                 "/pfs/archive/pfs/y/out.h5"]

    def test_stage_out_all(self):
        clock, cluster = make_cluster()
        with H5File(cluster.fs, "/pfs/tmp.h5", "w") as f:
            f.create_dataset("d", shape=(4,), data=[1.0, 2.0, 3.0, 4.0])
        moved = stage_out_all(cluster.fs, [
            finding("DY705", "/pfs/tmp.h5"),
        ], "/pfs/archive")
        assert moved == ["/pfs/archive/pfs/tmp.h5"]
        assert cluster.fs.exists("/pfs/tmp.h5")  # the source is kept


class TestEndToEndAutoOptimization:
    """The closed loop: profile → diagnose → plan → re-run faster."""

    def _workflow(self):
        def reader(name):
            def fn(rt):
                f = rt.open("/pfs/input.h5", "r")
                f["data"].read()
                f.close()
            return fn

        return Workflow("fanout", [
            Stage("consume", [Task(f"reader_{i}", reader(i)) for i in range(6)]),
        ])

    def _run(self, cluster, workflow, plan=None):
        mapper = DataSemanticMapper(cluster.clock, DaYuConfig())
        runner = DataflowRunner(cluster, mapper, placement="round_robin")
        if plan is not None:
            runner.pins = plan.tasks
            runner.path_resolver = plan_path_resolver(plan)
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
        assert [f.path for f in plan.files] == ["/pfs/input.h5"], \
            "reuse should trigger staging"

        # Optimized re-run in a fresh environment.
        clock2, cluster2 = make_cluster()
        with H5File(cluster2.fs, "/pfs/input.h5", "w") as f:
            f.create_dataset("data", shape=(200_000,), dtype="f8",
                             data=np.zeros(200_000))
        stage_in_plan(cluster2, plan)
        optimized, _ = self._run(cluster2, self._workflow(), plan)
        assert optimized.stage("consume").wall_time < \
            baseline.stage("consume").wall_time

    @staticmethod
    def _workload_run(name, plan=None):
        workflow, prepare = build_workload(name, 0.25)
        env = fresh_env(n_nodes=2)
        if plan is not None:
            env.runner.pins = plan.tasks
            env.runner.path_resolver = plan_path_resolver(plan)
        if prepare is not None:
            prepare(env.cluster)
        if plan is not None:
            stage_in_plan(env.cluster, plan)
        return env.runner.run(workflow), env

    @pytest.mark.parametrize("name", ("pyflextrkr", "ddmd", "climate"))
    def test_advisory_plan_reruns_faster(self, name):
        """The advisory plan of a first run, saved as ``dayu-plan/v1``
        and re-run in a fresh environment through the one plan
        executor, loses no task and beats the unplanned makespan —
        including files the workflow itself produces, which the plan's
        resolver creates at their placed paths."""
        baseline, env = self._workload_run(name)
        report = lint_profiles(list(env.mapper.profiles.values()), ADVISORY)
        plan = build_plan(report.findings, env.cluster)
        assert plan.files and plan.tasks
        plan = PlacementPlan.from_json_dict(json.loads(plan.to_json()))
        optimized, _ = self._workload_run(name, plan)
        assert optimized.failures == {}
        assert optimized.wall_time < baseline.wall_time

    def test_advisory_plan_runs_under_dayu_run(self, tmp_path, capsys):
        _, env = self._workload_run("climate")
        report = lint_profiles(list(env.mapper.profiles.values()), ADVISORY)
        plan = build_plan(report.findings, env.cluster)
        path = tmp_path / "plan.json"
        plan.save(str(path))
        result = tmp_path / "planned.json"
        assert run_main(["climate", "--scale", "0.25", "--plan", str(path),
                         "--out", str(tmp_path / "tr"),
                         "--result-json", str(result)]) == 0
        # No solver-scale note: an advisory plan was never solved.
        assert "solved at scale" not in capsys.readouterr().err
        ran = {}
        for stage in json.loads(result.read_text())["stages"]:
            ran.update(stage["placement"])
        assert {t: ran.get(t) for t in plan.tasks} == plan.tasks


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
