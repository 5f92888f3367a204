"""Unit tests for the cluster model and workflow engine."""

import numpy as np
import pytest

from repro.cluster import Cluster, Node, cpu_cluster, gpu_cluster
from repro.mapper import DaYuConfig, DataSemanticMapper
from repro.posix.simfs import FsError
from repro.simclock import SimClock
from repro.workflow import (
    Stage,
    Task,
    Workflow,
    DataflowRunner,
    stage_placement,
)


def small_cluster(n=2):
    clock = SimClock()
    cluster = Cluster(
        clock,
        [Node(f"n{i}", cpus=4, local_tiers={"ssd": "nvme"}) for i in range(n)],
        shared_mounts={"/pfs": "beegfs"},
    )
    return clock, cluster


class TestCluster:
    def test_topology(self):
        clock, cluster = small_cluster(3)
        assert cluster.node_names() == ["n0", "n1", "n2"]
        assert cluster.node("n1").cpus == 4
        with pytest.raises(KeyError):
            cluster.node("n9")

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError):
            Cluster(SimClock(), [Node("a"), Node("a")], {"/pfs": "nfs"})

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster(SimClock(), [], {"/pfs": "nfs"})

    def test_mounts_wired(self):
        clock, cluster = small_cluster()
        assert cluster.owning_node("/pfs/x") is None
        assert cluster.owning_node("/local/n0/ssd/x") == "n0"
        assert cluster.local_device("n0", "ssd").spec.name == "nvme"
        with pytest.raises(KeyError):
            cluster.local_device("n0", "tape")

    def test_stage_concurrency_routing(self):
        clock, cluster = small_cluster()
        cluster.set_stage_concurrency({"n0": 3, "n1": 1})
        assert cluster.shared_devices["/pfs"].concurrency == 4
        assert cluster.local_device("n0", "ssd").concurrency == 3
        assert cluster.local_device("n1", "ssd").concurrency == 1
        cluster.reset_concurrency()
        assert cluster.shared_devices["/pfs"].concurrency == 1

    def test_table3_configs(self):
        clock = SimClock()
        cpu = cpu_cluster(clock, n_nodes=2)
        assert set(cpu.nodes["n0"].local_tiers) == {"nvme", "ssd", "hdd"}
        assert "/nfs" in cpu.shared_devices
        gpu = gpu_cluster(SimClock(), n_nodes=8)
        assert len(gpu.nodes) == 8
        assert "/beegfs" in gpu.shared_devices
        assert gpu.nodes["n0"].ram_bytes == 384 * (1 << 30)


class TestWorkflowModel:
    def test_validate_duplicate_names(self):
        wf = Workflow("w", [Stage("s", [Task("t", lambda rt: None),
                                        Task("t", lambda rt: None)])])
        with pytest.raises(ValueError, match="duplicate"):
            wf.validate()

    def test_validate_empty(self):
        with pytest.raises(ValueError, match="no tasks"):
            Workflow("w").validate()

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Task("t", lambda rt: None, compute_seconds=-1)

    def test_builders(self):
        wf = Workflow("w").add_stage(Stage("s").add(Task("t", lambda rt: None)))
        assert [t.name for t in wf.all_tasks()] == ["t"]


class TestSchedulers:
    def test_round_robin(self):
        stage = Stage("s", [Task(f"t{i}", lambda rt: None) for i in range(4)])
        placement = stage_placement(stage, ["n0", "n1"], {})
        assert placement == {"t0": "n0", "t1": "n1", "t2": "n0", "t3": "n1"}

    def test_pinned(self):
        stage = Stage("s", [Task("a", lambda rt: None), Task("b", lambda rt: None)])
        placement = stage_placement(stage, ["n0", "n1"], {"b": "n0"})
        assert placement == {"a": "n0", "b": "n0"}

    def test_pinned_unknown_node(self):
        clock, cluster = small_cluster(2)
        ran = []
        wf = Workflow("w", [
            Stage("first", [Task("a", lambda rt: ran.append("a"))]),
            Stage("second", [Task("b", lambda rt: ran.append("b"))]),
        ])
        runner = DataflowRunner(cluster, DataSemanticMapper(clock, DaYuConfig()),
                                placement="round_robin", pins={"b": "n9"})
        with pytest.raises(KeyError, match="'b'.*'n9'"):
            runner.run(wf)
        assert ran == []  # rejected before the first task ran

    def test_colocate(self):
        # Co-scheduling a stage is one pin per task.
        stage = Stage("hot", [Task(f"t{i}", lambda rt: None) for i in range(3)])
        pins = {t.name: "n2" for t in stage.tasks}
        placement = stage_placement(stage, ["n0", "n1", "n2"], pins)
        assert set(placement.values()) == {"n2"}

    def test_colocate_other_stages_spread(self):
        stage = Stage("cold", [Task(f"t{i}", lambda rt: None) for i in range(2)])
        placement = stage_placement(stage, ["n0", "n1"], {"h0": "n0", "h1": "n0"})
        assert set(placement.values()) == {"n0", "n1"}

    def test_pin_outside_nodes_keeps_round_robin_slot(self):
        stage = Stage("s", [Task(f"t{i}", lambda rt: None) for i in range(3)])
        placement = stage_placement(stage, ["n0", "n2"], {"t1": "n1"})
        assert placement == {"t0": "n0", "t1": "n2", "t2": "n0"}


class TestWorkflowRunner:
    def _run(self, workflow, pins=None, n_nodes=2):
        clock, cluster = small_cluster(n_nodes)
        mapper = DataSemanticMapper(clock, DaYuConfig())
        runner = DataflowRunner(cluster, mapper, placement="round_robin",
                                pins=pins)
        return runner.run(workflow), cluster

    def test_simple_pipeline_runs_and_profiles(self):
        def produce(rt):
            f = rt.open("/pfs/data.h5", "w")
            f.create_dataset("x", shape=(100,), dtype="f8",
                             data=np.arange(100.0))
            f.close()

        def consume(rt):
            f = rt.open("/pfs/data.h5", "r")
            f["x"].read()
            f.close()

        wf = Workflow("pipe", [
            Stage("produce", [Task("producer", produce)]),
            Stage("consume", [Task("consumer", consume)]),
        ])
        result, cluster = self._run(wf)
        assert result.wall_time > 0
        assert set(result.profiles) == {"producer", "consumer"}
        assert result.stage("produce").wall_time > 0
        with pytest.raises(KeyError):
            result.stage("nope")

    def test_parallel_stage_wall_is_max(self):
        def work(rt):
            rt.compute(1.0)

        wf = Workflow("par", [
            Stage("s", [Task(f"t{i}", work) for i in range(4)], parallel=True),
        ])
        result, _ = self._run(wf)
        s = result.stage("s")
        assert s.wall_time == pytest.approx(1.0, rel=0.01)
        assert s.total_work == pytest.approx(4.0, rel=0.01)

    def test_serial_stage_wall_is_sum(self):
        wf = Workflow("ser", [
            Stage("s", [Task(f"t{i}", lambda rt: rt.compute(1.0))
                        for i in range(3)], parallel=False),
        ])
        result, _ = self._run(wf)
        assert result.stage("s").wall_time == pytest.approx(3.0, rel=0.01)

    def test_contention_slows_parallel_shared_io(self):
        def io_task(rt):
            f = rt.open(f"/pfs/{rt.task.name}.h5", "w")
            f.create_dataset("x", shape=(100_000,), dtype="f8",
                             data=np.zeros(100_000))
            f.close()

        def run_with(n_tasks):
            wf = Workflow("w", [
                Stage("s", [Task(f"t{i}", io_task) for i in range(n_tasks)]),
            ])
            result, _ = self._run(wf, n_nodes=1)
            return result.stage("s").task_durations["t0"]

        assert run_with(8) > run_with(1)

    def test_locality_enforced(self):
        def bad(rt):
            rt.open("/local/n1/ssd/secret.h5", "w")

        wf = Workflow("w", [Stage("s", [Task("intruder", bad)])])
        clock, cluster = small_cluster(2)
        mapper = DataSemanticMapper(clock, DaYuConfig())
        runner = DataflowRunner(cluster, mapper, placement="round_robin",
                                pins={"intruder": "n0"})
        with pytest.raises(FsError, match="local to node"):
            runner.run(wf)

    def test_local_path_helper(self):
        captured = {}

        def task(rt):
            captured["path"] = rt.local_path("ssd", "scratch.h5")
            f = rt.open(captured["path"], "w")
            f.create_dataset("d", shape=(4,), data=[1.0, 2.0, 3.0, 4.0])
            f.close()

        wf = Workflow("w", [Stage("s", [Task("t", task)])])
        result, cluster = self._run(wf)
        node = result.stage("s").placement["t"]
        assert captured["path"] == f"/local/{node}/ssd/scratch.h5"
        assert cluster.fs.exists(captured["path"])

    def test_local_path_unknown_tier(self):
        def task(rt):
            rt.local_path("tape", "x")

        wf = Workflow("w", [Stage("s", [Task("t", task)])])
        with pytest.raises(KeyError):
            self._run(wf)

    def test_compute_seconds_charged(self):
        wf = Workflow("w", [Stage("s", [Task("t", lambda rt: None,
                                             compute_seconds=2.5)])])
        result, cluster = self._run(wf)
        assert result.stage("s").wall_time >= 2.5
        assert cluster.clock.account("compute") == pytest.approx(2.5)

    def test_speedup_over(self):
        wf = Workflow("w", [Stage("s", [Task("t", lambda rt: rt.compute(2.0))])])
        slow, _ = self._run(wf)
        wf2 = Workflow("w", [Stage("s", [Task("t", lambda rt: rt.compute(1.0))])])
        fast, _ = self._run(wf2)
        assert fast.speedup_over(slow) == pytest.approx(2.0, rel=0.01)

    def test_concurrency_reset_after_stage(self):
        wf = Workflow("w", [
            Stage("s", [Task(f"t{i}", lambda rt: rt.compute(0.1))
                        for i in range(4)]),
        ])
        result, cluster = self._run(wf)
        assert cluster.shared_devices["/pfs"].concurrency == 1

    def test_concurrency_reset_after_task_error(self):
        def boom(rt):
            raise RuntimeError("task failure")

        wf = Workflow("w", [Stage("s", [Task("t", boom)])])
        clock, cluster = small_cluster()
        mapper = DataSemanticMapper(clock, DaYuConfig())
        with pytest.raises(RuntimeError):
            DataflowRunner(cluster, mapper, placement="round_robin").run(wf)
        assert cluster.shared_devices["/pfs"].concurrency == 1
