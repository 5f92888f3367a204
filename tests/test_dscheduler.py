"""Tests for the event-driven dataflow scheduler and the
placement-liveness bugfix sweep that rode along with it:

- typed ``NoAliveNodesError`` instead of ``ZeroDivisionError`` when every
  node is dead, with a clean runner abort preserving partial results;
- pins (co-located stages included) naming dead nodes fall back to
  survivors, and pins naming unknown nodes fail in both dependency
  modes;
- ``WorkflowResult.wall_time`` is the first-start/last-finish makespan
  (the old sum survives as ``serial_time``);
- the per-task state machine: exactly one terminal state per task,
  fixed-seed replay bit-identical, work stealing, and the
  locality-beats-round-robin placement property.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from repro.cluster import Cluster, Node
from repro.faults import FaultInjector, FaultSpec, NodeFault
from repro.mapper import DataSemanticMapper
from repro.simclock import SimClock
from repro.workflow import (
    DataflowRunner,
    DataflowScheduler,
    NoAliveNodesError,
    RetryPolicy,
    Stage,
    Task,
    TaskGraph,
    Workflow,
    WorkflowResult,
    stage_placement,
    upward_ranks,
)
from repro.workflow.contracts import TaskContract, creates, reads
from repro.workflow.dscheduler import TERMINAL_STATES, TaskState
from repro.workflow.runner import StageResult


def small_cluster(n=2, cpus=4):
    clock = SimClock()
    cluster = Cluster(
        clock,
        [Node(f"n{i}", cpus=cpus, local_tiers={"ssd": "nvme"})
         for i in range(n)],
        shared_mounts={"/pfs": "beegfs"},
    )
    return clock, cluster


def writer_task(name, path, elems=256):
    def fn(rt):
        f = rt.open(path, "w")
        f.create_dataset("d", shape=(elems,), dtype="f4",
                         data=np.zeros(elems, dtype=np.float32))
        f.close()
    return Task(name, fn)


def reader_task(name, path):
    def fn(rt):
        f = rt.open(path, "r")
        f["d"][...]
        f.close()
    return Task(name, fn)


def kill_all(cluster):
    for node in cluster.node_names():
        cluster.fail_node(node, force=True)


class Collector:
    """Minimal monitor stand-in: records every published event."""

    def __init__(self):
        self.events = []

    def publish(self, event):
        self.events.append(event)

    def kinds(self):
        return [e.kind for e in self.events]


# ----------------------------------------------------------------------
# Satellite 1: all-dead cluster raises the typed error, not ZeroDivision
# ----------------------------------------------------------------------
class TestAllDeadCluster:
    def test_round_robin_raises_typed_error(self):
        clock, cluster = small_cluster(2)
        kill_all(cluster)
        wf = Workflow("wf", [Stage("s", [writer_task("t", "/pfs/x.h5")])])
        runner = DataflowRunner(cluster, DataSemanticMapper(clock),
                                placement="round_robin")
        with pytest.raises(NoAliveNodesError) as exc:
            runner.run(wf)
        assert exc.value.dead_nodes == ["n0", "n1"]
        assert "all 2" in str(exc.value)
        assert runner.last_result.stage("s").aborted

    def test_pinned_and_colocate_raise_too(self):
        clock, cluster = small_cluster(2)
        kill_all(cluster)
        wf = Workflow("wf", [Stage("s", [writer_task("t", "/pfs/x.h5")])])
        for deps in ("stage", "dataflow"):
            runner = DataflowRunner(cluster, DataSemanticMapper(clock),
                                    dependency_mode=deps, pins={"t": "n0"})
            with pytest.raises(NoAliveNodesError):
                runner.run(wf)

    def test_engine_assign_raises_typed_error(self):
        g = TaskGraph()
        g.add_task("t")
        eng = DataflowScheduler(g, slots={"n0": 1}, alive=lambda n: False)
        eng.start()
        name = eng.pop_ready()
        with pytest.raises(NoAliveNodesError):
            eng.assign(name)

    def test_runner_aborts_cleanly_with_partial_results(self):
        clock, cluster = small_cluster(2)
        mapper = DataSemanticMapper(clock)
        spec = FaultSpec(node_faults=(
            NodeFault("n0", at=0.0005), NodeFault("n1", at=0.0005)))
        inj = FaultInjector(spec, cluster).arm()
        wf = Workflow("wf", [
            Stage("produce", [writer_task("w", "/pfs/a.h5")]),
            Stage("consume", [reader_task("r", "/pfs/a.h5")]),
        ])
        runner = DataflowRunner(cluster, mapper, placement="round_robin",
                                faults=inj)
        with pytest.raises(NoAliveNodesError):
            runner.run(wf)
        partial = runner.last_result
        assert partial is not None
        # The completed stage's timings and profile survive the abort.
        assert "w" in partial.profiles
        assert partial.stage("produce").task_durations["w"] > 0
        assert partial.stage("consume").aborted

    def test_event_runner_aborts_cleanly_and_cancels_pending(self):
        clock, cluster = small_cluster(2)
        mapper = DataSemanticMapper(clock)
        spec = FaultSpec(node_faults=(
            NodeFault("n0", at=0.0005), NodeFault("n1", at=0.0005)))
        inj = FaultInjector(spec, cluster).arm()
        wf = Workflow("wf", [
            Stage("produce", [writer_task("w", "/pfs/a.h5")]),
            Stage("consume", [reader_task("r", "/pfs/a.h5")]),
        ])
        runner = DataflowRunner(cluster, mapper, faults=inj)
        with pytest.raises(NoAliveNodesError):
            runner.run(wf)
        partial = runner.last_result
        assert "w" in partial.profiles
        states = runner.last_engine.state
        assert states["w"] is TaskState.MEMORY
        assert states["r"] in (TaskState.CANCELLED, TaskState.FAILED)


# ----------------------------------------------------------------------
# Satellite 2: dead pins / co-locate targets fall back to survivors
# ----------------------------------------------------------------------
class TestDeadPinFallback:
    def test_pin_to_dead_node_falls_back_to_survivor(self):
        clock, cluster = small_cluster(3)
        stage = Stage("s", [writer_task("t", "/pfs/x.h5")])
        pins = {"t": "n1"}
        assert stage_placement(stage, cluster.alive_node_names(), pins) \
            == {"t": "n1"}
        cluster.fail_node("n1")
        # Regression: the old code re-pinned the task onto the corpse.
        placed = stage_placement(stage, cluster.alive_node_names(), pins)["t"]
        assert placed != "n1"
        assert cluster.is_alive(placed)

    def test_pin_to_unknown_node_still_raises(self):
        clock, cluster = small_cluster(2)
        wf = Workflow("wf", [Stage("s", [writer_task("t", "/pfs/x.h5")])])
        runner = DataflowRunner(cluster, DataSemanticMapper(clock),
                                placement="round_robin", pins={"t": "n9"})
        with pytest.raises(KeyError, match="n9"):
            runner.run(wf)

    def test_colocate_dead_target_falls_back(self):
        clock, cluster = small_cluster(3)
        stage = Stage("s", [writer_task("t", "/pfs/x.h5")])
        pins = {"t": "n2"}
        assert stage_placement(stage, cluster.alive_node_names(), pins) \
            == {"t": "n2"}
        cluster.fail_node("n2")
        assert stage_placement(stage, cluster.alive_node_names(), pins) \
            == {"t": "n0"}

    def test_colocate_unknown_target_still_raises(self):
        # A co-located stage is a pin per task; an unknown target fails
        # under the locality policy too, before any task runs.
        clock, cluster = small_cluster(2)
        wf = Workflow("wf", [Stage("s", [writer_task("t", "/pfs/x.h5")])])
        runner = DataflowRunner(cluster, DataSemanticMapper(clock),
                                pins={"t": "n9"})
        with pytest.raises(KeyError, match="n9"):
            runner.run(wf)
        assert not runner.mapper.profiles

    def test_colocate_target_dies_mid_workflow_with_retries(self):
        clock, cluster = small_cluster(3)
        mapper = DataSemanticMapper(clock)
        spec = FaultSpec(node_faults=(NodeFault("n2", at=0.0008),))
        inj = FaultInjector(spec, cluster).arm()
        wf = Workflow("wf", [
            Stage("a", [writer_task("w0", "/pfs/a.h5", elems=4096)]),
            Stage("b", [reader_task("r0", "/pfs/a.h5"),
                        reader_task("r1", "/pfs/a.h5")]),
        ])
        runner = DataflowRunner(
            cluster, mapper, placement="round_robin",
            pins={t.name: "n2" for t in wf.all_tasks()},
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.01),
            faults=inj)
        result = runner.run(wf)
        assert not result.failures
        # Everything that ran after the death landed on a survivor.
        for sr in result.stage_results:
            for task, node in sr.placement.items():
                if sr.attempts.get(task, 1) > 1 or node != "n2":
                    assert cluster.is_alive(node)

    def test_event_engine_dead_pin_released(self):
        g = TaskGraph()
        g.add_task("t")
        eng = DataflowScheduler(
            g, slots={"n0": 1, "n1": 1}, pins={"t": "n1"},
            alive=lambda n: n != "n1")
        eng.start()
        node, _, _, _ = eng.assign(eng.pop_ready())
        assert node == "n0"


# ----------------------------------------------------------------------
# Satellite 3: wall_time is the makespan envelope, not the sum
# ----------------------------------------------------------------------
class TestMakespan:
    def test_overlapping_stages_are_not_double_counted(self):
        r = WorkflowResult(workflow="w", stage_results=[
            StageResult(name="a", wall_time=10.0, started_at=0.0,
                        finished_at=10.0),
            StageResult(name="b", wall_time=8.0, started_at=2.0,
                        finished_at=10.0),
        ])
        # Regression: the old wall_time summed to 18 despite the run
        # finishing at t=10.
        assert r.wall_time == 10.0
        assert r.serial_time == 18.0

    def test_stage_at_a_time_chains_back_to_back(self):
        clock, cluster = small_cluster(2)
        mapper = DataSemanticMapper(clock)
        wf = Workflow("wf", [
            Stage("a", [writer_task("w", "/pfs/a.h5")]),
            Stage("b", [reader_task("r", "/pfs/a.h5")]),
        ])
        result = DataflowRunner(cluster, mapper,
                                placement="round_robin").run(wf)
        assert result.wall_time == pytest.approx(result.serial_time)
        a, b = result.stage_results
        assert b.started_at == pytest.approx(a.finished_at)

    def test_event_scheduler_overlaps_independent_stages(self):
        clock, cluster = small_cluster(2)
        mapper = DataSemanticMapper(clock)
        # Two independent pipelines expressed as four stages: the stage
        # runner serializes them; dataflow dependencies let them overlap.
        wf = Workflow("wf", [
            Stage("a1", [writer_task("a1", "/pfs/a.h5", elems=8192)]),
            Stage("b1", [writer_task("b1", "/pfs/b.h5", elems=8192)]),
            Stage("a2", [Task("a2", reader_task("x", "/pfs/a.h5").fn,
                              depends_on=("a1",))]),
            Stage("b2", [Task("b2", reader_task("y", "/pfs/b.h5").fn,
                              depends_on=("b1",))]),
        ])
        for stage in wf.stages:
            task = stage.tasks[0]
            file = f"/pfs/{stage.name[0]}.h5"
            if stage.name.endswith("1"):
                task.contract = TaskContract.declare(
                    creates(file, "/d", shape=(8192,), dtype="f4",
                            elements=8192))
            else:
                task.contract = TaskContract.declare(
                    reads(file, "/d", elements=8192))
        runner = DataflowRunner(cluster, mapper, dependency_mode="dataflow")
        result = runner.run(wf)
        assert result.wall_time < result.serial_time
        spans = {s.name: (s.started_at, s.finished_at)
                 for s in result.stage_results}
        # b1 does not wait for a1 (no edge between the pipelines).
        assert spans["b1"][0] < spans["a1"][1]


# ----------------------------------------------------------------------
# The task graph
# ----------------------------------------------------------------------
class TestTaskGraph:
    def test_stage_mode_barriers(self):
        wf = Workflow("wf", [
            Stage("a", [writer_task("w0", "/pfs/a.h5"),
                        writer_task("w1", "/pfs/b.h5")]),
            Stage("b", [reader_task("r0", "/pfs/a.h5")]),
        ])
        g = TaskGraph.from_workflow(wf, mode="stage")
        assert set(g.entries["r0"].deps) == {"w0", "w1"}

    def test_stage_mode_barrier_spans_empty_stage(self):
        wf = Workflow("wf", [
            Stage("a", [writer_task("w0", "/pfs/a.h5")]),
            Stage("empty", []),
            Stage("b", [reader_task("r0", "/pfs/a.h5")]),
        ])
        g = TaskGraph.from_workflow(wf, mode="stage")
        assert g.barrier
        assert g.entries["r0"].deps == ["w0"]

    def test_serial_stage_chains_tasks(self):
        wf = Workflow("wf", [
            Stage("s", [writer_task("w0", "/pfs/a.h5"),
                        writer_task("w1", "/pfs/b.h5"),
                        writer_task("w2", "/pfs/c.h5")], parallel=False),
        ])
        g = TaskGraph.from_workflow(wf, mode="stage")
        assert g.entries["w1"].deps == ["w0"]
        assert g.entries["w2"].deps == ["w1"]

    def test_depends_on_validated(self):
        wf = Workflow("wf", [
            Stage("s", [Task("t", lambda rt: None, depends_on=("ghost",))]),
        ])
        with pytest.raises(ValueError, match="ghost"):
            wf.validate()
        wf2 = Workflow("wf", [
            Stage("s", [Task("t", lambda rt: None, depends_on=("t",))]),
        ])
        with pytest.raises(ValueError):
            wf2.validate()

    def test_cycle_detected(self):
        g = TaskGraph()
        g.add_task("a")
        g.add_task("b")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(ValueError, match="cycle"):
            g.topological_order()

    def test_kahn_memo_follows_topology_mutations(self):
        g = TaskGraph()
        for n in ("a", "b", "c"):
            g.add_task(n)
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        ranks = upward_ranks(g)
        order = g.topological_order()
        assert order == ["a", "b", "c"]
        # The caller owns its copy: mutating it leaves the next call be.
        order.reverse()
        order.append("zzz")
        assert g.topological_order() == ["a", "b", "c"]
        # A task added after the memo is set appears in the next order.
        g.add_task("d")
        assert g.topological_order() == ["a", "d", "b", "c"]
        # An edge closing a cycle drops the memo: both the order and a
        # scheduler given precomputed priorities raise on the cycle.
        g.add_edge("c", "a")
        with pytest.raises(ValueError, match="cycle"):
            g.topological_order()
        with pytest.raises(ValueError, match="cycle"):
            DataflowScheduler(g, slots={"n0": 1}, priorities=ranks)

    def test_dataflow_mode_derives_flow_edges(self):
        producer = writer_task("w", "/pfs/a.h5", elems=1024)
        producer.contract = TaskContract.declare(
            creates("/pfs/a.h5", "/d", shape=(1024,), dtype="f4",
                    elements=1024))
        consumer = reader_task("r", "/pfs/a.h5")
        consumer.contract = TaskContract.declare(
            reads("/pfs/a.h5", "/d", elements=1024, dtype="f4"))
        other = writer_task("u", "/pfs/b.h5")
        other.contract = TaskContract.declare(
            creates("/pfs/b.h5", "/d", shape=(256,), dtype="f4",
                    elements=256))
        wf = Workflow("wf", [
            Stage("a", [producer, other]),
            Stage("b", [consumer]),
        ])
        g = TaskGraph.from_workflow(wf, mode="dataflow")
        assert g.entries["r"].deps == ["w"]  # no barrier against "u"
        assert g.volume[("w", "r")] == 1024 * 4

    def test_contractless_task_becomes_barrier(self):
        wf = Workflow("wf", [
            Stage("a", [writer_task("w", "/pfs/a.h5")]),
            Stage("b", [Task("opaque", lambda rt: None)]),
            Stage("c", [reader_task("r", "/pfs/a.h5")]),
        ])
        g = TaskGraph.from_workflow(wf, mode="dataflow")
        assert "w" in g.entries["opaque"].deps
        assert "opaque" in g.entries["r"].deps

    def test_upward_ranks_prefer_critical_path(self):
        g = TaskGraph()
        for n in ("root", "heavy", "light", "sink"):
            g.add_task(n)
        g.add_edge("root", "heavy")
        g.add_edge("root", "light")
        g.add_edge("heavy", "sink")
        ranks = upward_ranks(g, {"heavy": 10.0, "light": 1.0})
        assert ranks["heavy"] > ranks["light"]
        assert ranks["root"] > ranks["heavy"]


# ----------------------------------------------------------------------
# State-machine properties
# ----------------------------------------------------------------------
def random_graph(rng, n_tasks):
    g = TaskGraph()
    for i in range(n_tasks):
        g.add_task(f"t{i}")
    for i in range(1, n_tasks):
        for j in rng.sample(range(i), min(i, rng.randint(0, 3))):
            g.add_edge(f"t{j}", f"t{i}", volume=rng.randint(0, 1 << 20))
    return g


class TestStateMachine:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_task_reaches_exactly_one_terminal_state(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, 40)
        eng = DataflowScheduler(g, slots={"n0": 2, "n1": 2},
                                policy="least_loaded")
        eng.start()
        terminal_transitions = {name: 0 for name in g.entries}
        while True:
            name = eng.pop_ready()
            if name is None:
                break
            eng.assign(name)
            # Some tasks fail an attempt first; some fail terminally.
            roll = rng.random()
            if roll < 0.15:
                eng.fail(name, elapsed=0.1, backoff=0.05, terminal=False)
            elif roll < 0.25:
                eng.fail(name, elapsed=0.1, terminal=True, release=True)
                terminal_transitions[name] += 1
            else:
                eng.complete(name, rng.random())
                terminal_transitions[name] += 1
        for name in eng.cancel_pending():
            terminal_transitions[name] += 1
        assert all(eng.state[n] in TERMINAL_STATES for n in g.entries)
        assert all(count == 1 for count in terminal_transitions.values())

    def test_terminal_transition_from_terminal_state_rejected(self):
        g = TaskGraph()
        g.add_task("t")
        eng = DataflowScheduler(g, slots={"n0": 1})
        eng.start()
        eng.assign(eng.pop_ready())
        eng.complete("t", 1.0)
        with pytest.raises(RuntimeError):
            eng.complete("t", 1.0)
        with pytest.raises(RuntimeError):
            eng.fail("t")
        with pytest.raises(RuntimeError):
            eng.assign("t")

    def test_simulation_is_deterministic(self):
        rng = random.Random(99)
        g1 = random_graph(rng, 60)
        rng = random.Random(99)
        g2 = random_graph(rng, 60)
        durs = {f"t{i}": (i % 7 + 1) * 0.1 for i in range(60)}
        s1 = DataflowScheduler(g1, slots={"n0": 2, "n1": 3}).simulate(durs)
        s2 = DataflowScheduler(g2, slots={"n0": 2, "n1": 3}).simulate(durs)
        assert s1.placement == s2.placement
        assert s1.vstart == s2.vstart
        assert s1.makespan == s2.makespan

    def test_retry_backoff_delays_virtual_ready(self):
        g = TaskGraph()
        g.add_task("t")
        eng = DataflowScheduler(g, slots={"n0": 1})
        eng.start()
        eng.assign(eng.pop_ready())
        eng.fail("t", elapsed=1.0, backoff=0.5, terminal=False)
        name = eng.pop_ready()
        assert name == "t"
        _, vstart, _, _ = eng.assign(name)
        assert vstart == pytest.approx(1.5)


# ----------------------------------------------------------------------
# Barrier mode (stage dependencies)
# ----------------------------------------------------------------------
class TestBarrierMode:
    def _wf(self):
        return Workflow("wf", [
            Stage("a", [writer_task(f"w{i}", f"/pfs/{i}.h5")
                        for i in range(4)]),
            Stage("b", [reader_task(f"r{i}", f"/pfs/{i}.h5")
                        for i in range(3)], parallel=False),
        ])

    @pytest.mark.parametrize("policy", ["round_robin", "least_loaded",
                                        "locality"])
    def test_stage_placed_when_it_opens_and_spread(self, policy):
        clock, cluster = small_cluster(2)
        runner = DataflowRunner(cluster, DataSemanticMapper(clock),
                                placement=policy)
        result = runner.run(self._wf())
        assert result.stage("a").placement == {
            "w0": "n0", "w1": "n1", "w2": "n0", "w3": "n1"}
        assert runner.last_engine.steals == 0

    def test_stages_start_together_and_chain(self):
        clock, cluster = small_cluster(2)
        collector = Collector()
        mapper = DataSemanticMapper(clock)
        mapper.monitor = collector
        result = DataflowRunner(cluster, mapper,
                                placement="round_robin").run(self._wf())
        a, b = result.stage_results
        assert a.wall_time == pytest.approx(max(a.task_durations.values()))
        assert b.started_at == a.finished_at
        assert b.wall_time == pytest.approx(sum(b.task_durations.values()))
        kinds = collector.kinds()
        assert "task_ready" not in kinds
        assert kinds.count("stage_started") == 2


# ----------------------------------------------------------------------
# Work stealing
# ----------------------------------------------------------------------
class TestStealingAndSpeculation:
    def test_idle_node_steals_from_busy_preferred_node(self):
        g = TaskGraph()
        g.add_task("p")
        g.add_task("c1")
        g.add_task("c2")
        g.add_edge("p", "c1", volume=1000)
        g.add_edge("p", "c2", volume=1000)
        eng = DataflowScheduler(g, slots={"n0": 1, "n1": 1},
                                policy="locality", steal=True)
        eng.start()
        eng.assign(eng.pop_ready())
        eng.complete("p", 1.0)  # p on n0
        node1, _, stolen1, _ = eng.assign(eng.pop_ready())
        assert node1 == "n0" and stolen1 is None  # locality
        node2, _, stolen2, saved2 = eng.assign(eng.pop_ready())
        # n0's only slot is busy until p+c; n1 is idle: steal.
        assert stolen2 == "n0"
        assert node2 == "n1"
        assert saved2 > 0
        assert eng.steals == 1

    def test_steal_disabled_keeps_locality(self):
        g = TaskGraph()
        g.add_task("p")
        g.add_task("c1")
        g.add_task("c2")
        g.add_edge("p", "c1", volume=1000)
        g.add_edge("p", "c2", volume=1000)
        eng = DataflowScheduler(g, slots={"n0": 1, "n1": 1},
                                policy="locality", steal=False)
        sched = eng.simulate(default_duration=1.0)
        assert sched.steals == 0
        assert sched.placement["c1"] == "n0"
        assert sched.placement["c2"] == "n0"

    def test_stealing_shortens_makespan(self):
        def build():
            g = TaskGraph()
            g.add_task("p")
            for i in range(4):
                g.add_task(f"c{i}")
                g.add_edge("p", f"c{i}", volume=1000)
            return g

        slow = DataflowScheduler(build(), slots={"n0": 1, "n1": 1},
                                 policy="locality", steal=False)
        fast = DataflowScheduler(build(), slots={"n0": 1, "n1": 1},
                                 policy="locality", steal=True)
        assert (fast.simulate(default_duration=1.0).makespan
                < slow.simulate(default_duration=1.0).makespan)

    def test_stolen_and_ready_events_published(self):
        clock, cluster = small_cluster(2, cpus=1)
        collector = Collector()
        mapper = DataSemanticMapper(clock)
        mapper.monitor = collector
        producer = writer_task("p", "/pfs/a.h5", elems=2048)
        producer.contract = TaskContract.declare(
            creates("/pfs/a.h5", "/d", shape=(2048,), dtype="f4",
                    elements=2048))
        consumers = []
        for i in range(2):
            c = reader_task(f"c{i}", "/pfs/a.h5")
            c.contract = TaskContract.declare(
                reads("/pfs/a.h5", "/d", elements=2048, dtype="f4"))
            consumers.append(c)
        wf = Workflow("wf", [Stage("a", [producer]), Stage("b", consumers)])
        runner = DataflowRunner(cluster, mapper, placement="locality",
                                dependency_mode="dataflow")
        runner.run(wf)
        kinds = collector.kinds()
        assert kinds.count("task_ready") == 3
        assert "task_stolen" in kinds  # second consumer steals to n1

    def test_events_flow_through_real_monitor(self):
        from repro.monitor import WorkflowMonitor

        clock, cluster = small_cluster(2, cpus=1)
        monitor = WorkflowMonitor(clock)
        mapper = DataSemanticMapper(clock, monitor=monitor)
        wf = Workflow("wf", [
            Stage("a", [writer_task("w", "/pfs/a.h5")]),
            Stage("b", [reader_task("r", "/pfs/a.h5")]),
        ])
        result = DataflowRunner(cluster, mapper).run(wf)
        monitor.finish()
        assert not result.failures
        # The live graph snapshot still reconciles with the run.
        assert len(monitor.aggregator.tasks_finished) == 2


# ----------------------------------------------------------------------
# Fixed-seed replay
# ----------------------------------------------------------------------
class TestReplay:
    def chaos_run(self):
        clock, cluster = small_cluster(3)
        mapper = DataSemanticMapper(clock)
        spec = FaultSpec(seed=11, node_faults=(NodeFault("n1", at=0.001),))
        inj = FaultInjector(spec, cluster).arm()
        wf = Workflow("wf", [
            Stage("a", [writer_task(f"w{i}", f"/pfs/f{i}.h5", elems=2048)
                        for i in range(4)]),
            Stage("b", [reader_task(f"r{i}", f"/pfs/f{i}.h5")
                        for i in range(4)], best_effort=True),
        ])
        runner = DataflowRunner(
            cluster, mapper, placement="locality",
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.01),
            faults=inj)
        return runner.run(wf)

    def test_fixed_seed_replay_is_bit_identical(self):
        a = json.dumps(self.chaos_run().to_json_dict(), sort_keys=True)
        b = json.dumps(self.chaos_run().to_json_dict(), sort_keys=True)
        assert a == b


# ----------------------------------------------------------------------
# Placement quality: locality beats round-robin under a cache
# ----------------------------------------------------------------------
class TestLocalityPlacement:
    def test_locality_clusters_consumers_and_beats_round_robin(self):
        from repro.experiments.dataflow_scheduler import (
            run_locality_fixture,
        )

        rr = run_locality_fixture(placement="round_robin")
        loc = run_locality_fixture(placement="locality")
        # Clustered consumers share one replica; spreading pays one
        # replication miss per node.
        assert loc.cache_misses < rr.cache_misses
        assert loc.wall_time < rr.wall_time


# ----------------------------------------------------------------------
# Decision identity: the engine's outputs, pinned by digest
# ----------------------------------------------------------------------
def _identity_graph():
    from repro.experiments.dataflow_scheduler import build_synthetic_dag

    g = build_synthetic_dag(2000, width=64, fan_in=3)
    durations = {name: (i % 11 + 1) * 0.25
                 for i, name in enumerate(g.entries)}
    return g, durations


#: Uneven slot counts so least-loaded and stealing ties are exercised.
_IDENTITY_SLOTS = {f"n{i}": 2 + i % 3 for i in range(8)}


def _digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _simulated(policy, steal, pins=None, alive=None):
    g, durations = _identity_graph()
    ranks = upward_ranks(g, durations)
    eng = DataflowScheduler(g, slots=_IDENTITY_SLOTS, policy=policy,
                            priorities=ranks, alive=alive, pins=pins,
                            steal=steal)
    s = eng.simulate(durations)
    return {"placement": s.placement, "vstart": s.vstart,
            "vfinish": s.vfinish, "decisions": s.decisions,
            "steals": s.steals, "makespan": s.makespan, "ranks": ranks}


def _hand_driven(steal):
    """Up to 12 attempts stay in flight (so whole nodes fill up and
    placement reroutes), attempts fail and retry with backoff, a few
    fail terminally (one without releasing its dependents), the rest
    complete."""
    g, durations = _identity_graph()
    ranks = upward_ranks(g, durations)
    eng = DataflowScheduler(g, slots=_IDENTITY_SLOTS, policy="locality",
                            priorities=ranks, steal=steal)
    ready_events = []
    eng.on_ready = lambda name, at, prio: ready_events.append(
        [name, at, prio])
    assignments = []
    attempts = {}
    in_flight = []

    def settle(name):
        i = int(name[1:])
        attempt = attempts[name] = attempts.get(name, 0) + 1
        if i % 13 == 0 and attempt < 3:
            eng.fail(name, elapsed=durations[name] / 2, backoff=0.5 * attempt)
        elif i % 97 == 5:
            eng.fail(name, elapsed=0.1, terminal=True, release=i < 1900)
        else:
            eng.complete(name, durations[name])

    eng.start()
    while True:
        name = eng.pop_ready()
        if name is None:
            if not in_flight:
                break
            settle(in_flight.pop(0))
            continue
        assignments.append([name, *eng.assign(name)])
        in_flight.append(name)
        if len(in_flight) >= 12:
            settle(in_flight.pop(0))
    cancelled = eng.cancel_pending()
    return {"placement": eng.placement, "vstart": eng.vstart,
            "vfinish": eng.vfinish, "decisions": eng.decisions,
            "steals": eng.steals, "makespan": eng.makespan, "ranks": ranks,
            "assignments": assignments, "ready_events": ready_events,
            "states": eng.terminal_states(), "cancelled": cancelled}


_IDENTITY_CASES = {
    **{f"{policy}-steal{int(steal)}":
       (lambda policy=policy, steal=steal: _simulated(policy, steal))
       for policy in ("locality", "least_loaded", "round_robin",
                      "co_locate")
       for steal in (True, False)},
    "locality-pins": lambda: _simulated(
        "locality", True,
        pins={**{f"t{i}": f"n{i * 5 % 8}" for i in range(0, 2000, 9)},
              "t4": "ghost"}),
    "locality-n3-dead": lambda: _simulated(
        "locality", True, alive=lambda node: node != "n3"),
    "hand-driven-fail-retry": lambda: {
        f"steal{int(steal)}": _hand_driven(steal) for steal in (True, False)},
}

#: SHA-256 of each case's canonical JSON, recorded before the engine's
#: per-decision cost was cut; a faster engine must reproduce every one.
#: The round-robin digests were re-recorded when round-robin became
#: position-in-stage placement (task *i* of a layer on node ``i % 8``)
#: instead of a counter over the order tasks were assigned in.
_IDENTITY_DIGESTS = {
    "co_locate-steal0":
        "074e4cc3d4a9ad77c06d42790ec08cff8df1ec5e756b695d12f4068b73714a58",
    "co_locate-steal1":
        "002a514f583eaf71e831505985d5c4d4f809bf0a25363f2b866bfa379b108bcc",
    "hand-driven-fail-retry":
        "63ff9f1d344164d3408d5dcf4e3ec138249cae6f8d4e5c39ecbe4228c33da691",
    "least_loaded-steal0":
        "bca1e6d9355bf7c4ae413d0684745fc3fc62539e75086e8ad6927726bf1ad2d7",
    "least_loaded-steal1":
        "bca1e6d9355bf7c4ae413d0684745fc3fc62539e75086e8ad6927726bf1ad2d7",
    "locality-n3-dead":
        "7d4399c2e53d3af48a5bb2c72aeefdaf2d7714aa43a5da1fbbd6a9c4b8b027c2",
    "locality-pins":
        "aa31240066c3f5e224844a2d8e66ddd488ff0c2a741003b71a774c760f87a7a2",
    "locality-steal0":
        "717a439f4f94b87720e570292d2632d7848341d6f61c57dccfec1202f728ce2e",
    "locality-steal1":
        "0c6db707ddc11c3fc4b5f3c833291ea8044171780306b5fa09b214df8dc8ad50",
    "round_robin-steal0":
        "00f5c926607723ebaaed19b82642de80b7572a1a453e538efa1df5fc8554e93d",
    "round_robin-steal1":
        "2b7338d3854b64412281aa1b4595959b2b9f98cdf0b9036c734a920edd2be038",
}


class TestDecisionIdentity:
    @pytest.mark.parametrize("case", sorted(_IDENTITY_CASES))
    def test_outputs_match_recorded_digest(self, case):
        assert _digest(_IDENTITY_CASES[case]()) == _IDENTITY_DIGESTS[case]
