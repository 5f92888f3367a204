"""Tests for the fault-injection plane and resilient workflow execution:
spec validation/round-trip, deterministic replay, retries and graceful
degradation, node death, monitor failure accounting, and the failure-path
contracts of the cache and async stager middleware."""

import json

import numpy as np
import pytest

from repro.cluster import Cluster, Node
from repro.faults import DeviceFault, FaultInjector, FaultSpec, NodeFault
from repro.mapper import DataSemanticMapper
from repro.middleware import AsyncStager, BufferTier, TieredCache
from repro.monitor import MonitorConfig, WorkflowMonitor
from repro.posix.simfs import FsError
from repro.simclock import SimClock
from repro.storage.devices import DeviceError
from repro.workflow import (
    RetryPolicy,
    Stage,
    Task,
    Workflow,
    DataflowRunner,
)
from repro.workflow.runner import RETRY_BACKOFF_ACCOUNT


def small_cluster(n=2):
    clock = SimClock()
    cluster = Cluster(
        clock,
        [Node(f"n{i}", cpus=4, local_tiers={"ssd": "nvme"}) for i in range(n)],
        shared_mounts={"/pfs": "beegfs"},
    )
    return clock, cluster


def make_runner(cluster, clock, monitor=None, **kwargs):
    mapper = DataSemanticMapper(clock, monitor=monitor)
    return DataflowRunner(cluster, mapper, placement="round_robin",
                          **kwargs), mapper


def writer_task(name, path, elems=256):
    def fn(rt):
        f = rt.open(path, "w")
        f.create_dataset("d", shape=(elems,), dtype="f4",
                         data=np.zeros(elems, dtype=np.float32))
        f.close()
    return Task(name, fn)


# ----------------------------------------------------------------------
# Spec validation and serialization
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_json_roundtrip(self):
        spec = FaultSpec(seed=42, device_faults=(
            DeviceFault("/pfs", "transient", rate=0.1, ops="write"),
            DeviceFault("/local/n0/ssd", "slowdown", factor=3.0,
                        start=1.0, end=2.0),
            DeviceFault("/pfs/x", "permanent", start=0.5),
            DeviceFault("/pfs/y", "short_io", rate=0.5),
        ), node_faults=(NodeFault("n1", at=2.5),))
        again = FaultSpec.loads(spec.dumps())
        assert again == spec
        assert again.to_json_dict() == spec.to_json_dict()

    def test_open_ended_window_serializes_as_null(self):
        spec = FaultSpec(device_faults=(
            DeviceFault("/pfs", "permanent"),))
        d = spec.to_json_dict()
        assert d["device_faults"][0]["end"] is None
        assert FaultSpec.from_json_dict(d).device_faults[0].end is None

    def test_load_from_file(self, tmp_path):
        spec = FaultSpec(seed=3, node_faults=(NodeFault("n0", at=1.0),))
        p = tmp_path / "spec.json"
        p.write_text(spec.dumps())
        assert FaultSpec.load(str(p)) == spec

    @pytest.mark.parametrize("kwargs", [
        dict(path_prefix="rel", kind="transient", rate=0.5),
        dict(path_prefix="/pfs", kind="bogus"),
        dict(path_prefix="/pfs", kind="transient", rate=0.0),
        dict(path_prefix="/pfs", kind="transient", rate=1.5),
        dict(path_prefix="/pfs", kind="slowdown", factor=0.5),
        dict(path_prefix="/pfs", kind="permanent", start=2.0, end=1.0),
        dict(path_prefix="/pfs", kind="transient", rate=0.5, ops="readwrite"),
    ])
    def test_bad_device_fault_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeviceFault(**kwargs)

    def test_duplicate_node_fault_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(node_faults=(
                NodeFault("n0", at=1.0), NodeFault("n0", at=2.0)))

    @pytest.mark.parametrize("text,needle", [
        ('{"faults": []}', "'faults'"),
        ('{"bogus_key": 1}', "'bogus_key'"),
        ("[]", "FaultSpec must be a JSON object, got list"),
        ('{"device_faults": [{"path_prefix": "/pfs", "kind": "permanent",'
         ' "extra": 1}]}', "unknown DeviceFault key(s) 'extra'"),
        ('{"node_faults": [{"node": "n0", "at": 1.0, "when": 2}]}',
         "unknown NodeFault key(s) 'when'"),
        ('{"device_faults": [5]}', "DeviceFault must be a JSON object"),
    ], ids=["faults", "bogus-key", "list", "device-extra", "node-extra",
            "device-not-object"])
    def test_misspelled_spec_rejected(self, text, needle):
        import re

        with pytest.raises(ValueError, match=re.escape(needle)):
            FaultSpec.loads(text)

    def test_bundled_specs_still_load(self):
        from repro.workloads.chaos import chaos_fault_spec
        from repro.workloads.racy_pipeline import racy_fault_spec

        for spec in (chaos_fault_spec(), racy_fault_spec(), FaultSpec(),
                     FaultSpec(seed=3, node_faults=(NodeFault("n0", 1.0),))):
            assert FaultSpec.loads(spec.dumps()) == spec

    @pytest.mark.parametrize("text", [
        '{"faults": []}', '{"bogus_key": 1}', "[]", "{not json",
        '{"device_faults": [{"path_prefix": "/pfs", "kind": "permanent",'
        ' "extra": 1}]}',
    ], ids=["faults", "bogus-key", "list", "invalid-json", "device-extra"])
    def test_run_main_rejects_bad_spec_file(self, text, tmp_path, capsys):
        from repro.cli import run_main

        spec = tmp_path / "spec.json"
        spec.write_text(text)
        out = tmp_path / "traces"
        assert run_main(["chaos", "--faults", str(spec),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"dayu-run: cannot load --faults {spec}: ")
        assert "\n" not in err
        assert not out.exists()

    def test_path_matching_is_component_wise(self):
        fault = DeviceFault("/pfs/a", "permanent")
        assert fault.matches_path("/pfs/a")
        assert fault.matches_path("/pfs/a/b")
        assert not fault.matches_path("/pfs/ab")


# ----------------------------------------------------------------------
# Injector mechanics
# ----------------------------------------------------------------------
class TestInjector:
    def test_permanent_fault_fails_every_matching_op(self):
        clock, cluster = small_cluster()
        spec = FaultSpec(device_faults=(
            DeviceFault("/pfs/bad", "permanent"),))
        inj = FaultInjector(spec, cluster).arm()
        fs = cluster.fs
        fd = fs.open("/pfs/ok", "w")
        fs.write(fd, b"x" * 100)
        fs.close(fd)
        with pytest.raises(DeviceError):
            bad = fs.open("/pfs/bad/f", "w")
            fs.write(bad, b"x")
        assert inj.stats()["permanent"] == 1
        inj.disarm()
        assert fs.fault_injector is None

    def test_injected_failure_is_atomic(self):
        """A failed write moves no bytes, logs no op, costs no time."""
        clock, cluster = small_cluster()
        fs = cluster.fs
        fd = fs.open("/pfs/f", "w")
        fs.write(fd, b"a" * 64)
        ops_before = len(fs.op_log)
        t_before = clock.now
        inj = FaultInjector(FaultSpec(device_faults=(
            DeviceFault("/pfs", "permanent", ops="write"),)), cluster).arm()
        with pytest.raises(DeviceError):
            fs.pwrite(fd, b"b" * 64, 64)
        assert fs.stat("/pfs/f").size == 64
        assert len(fs.op_log) == ops_before
        assert clock.now == t_before
        # Reads are unaffected (ops="write").
        assert fs.pread(fd, 64, 0) == b"a" * 64
        inj.disarm()
        fs.close(fd)

    def test_windowed_fault_only_fires_inside_window(self):
        clock, cluster = small_cluster()
        fs = cluster.fs
        inj = FaultInjector(FaultSpec(device_faults=(
            DeviceFault("/pfs", "permanent", start=10.0, end=20.0),)),
            cluster).arm()
        fd = fs.open("/pfs/f", "w")
        fs.write(fd, b"x")  # before the window: fine
        clock.advance(15.0)
        with pytest.raises(DeviceError):
            fs.pwrite(fd, b"y", 1)
        clock.advance(10.0)  # past the window
        fs.pwrite(fd, b"y", 1)
        inj.disarm()

    def test_transient_rate_zero_draws_when_not_matching(self):
        """RNG draws happen only for matching ops: non-matching traffic
        does not perturb the stream (the determinism contract)."""
        clock, cluster = small_cluster()
        fs = cluster.fs
        inj = FaultInjector(FaultSpec(seed=1, device_faults=(
            DeviceFault("/pfs/target", "transient", rate=0.5),)),
            cluster).arm()
        state = inj._rng.getstate()
        fd = fs.open("/pfs/other", "w")
        fs.write(fd, b"x" * 1000)
        fs.close(fd)
        assert inj._rng.getstate() == state
        inj.disarm()

    def test_slowdown_degrades_device_inside_window(self):
        clock, cluster = small_cluster()
        fs = cluster.fs
        inj = FaultInjector(FaultSpec(device_faults=(
            DeviceFault("/pfs", "slowdown", factor=4.0, start=0.0, end=5.0),)),
            cluster).arm()
        device = cluster.shared_devices["/pfs"]
        assert device.slowdown == 4.0
        fd = fs.open("/pfs/f", "w")
        fs.write(fd, b"x" * (1 << 20))
        t_slow = clock.now
        clock.advance(10.0)  # close the window
        inj.poll()
        assert device.slowdown == 1.0
        fs.pwrite(fd, b"x" * (1 << 20), 0)
        t_fast = clock.now - 10.0 - t_slow
        assert t_slow > 2.0 * t_fast
        inj.disarm()
        fs.close(fd)

    def test_node_fault_fires_on_poll(self):
        clock, cluster = small_cluster(3)
        events = []
        inj = FaultInjector(
            FaultSpec(node_faults=(NodeFault("n1", at=5.0),)),
            cluster, emit=events.append).arm()
        inj.poll()
        assert cluster.is_alive("n1")
        clock.advance(5.0)
        inj.poll()
        assert not cluster.is_alive("n1")
        assert cluster.alive_node_names() == ["n0", "n2"]
        assert [e.kind for e in events] == ["node_failed"]
        assert events[0].node == "n1"
        # Idempotent: a second poll does not re-fire.
        inj.poll()
        assert inj.stats()["node"] == 1

    def test_dead_nodes_local_tier_unreachable(self):
        clock, cluster = small_cluster(2)
        fs = cluster.fs
        fd = fs.open("/local/n1/ssd/f", "w")
        fs.write(fd, b"x" * 10)
        fs.close(fd)
        cluster.fail_node("n1")
        with pytest.raises(FsError):
            fs.open("/local/n1/ssd/f", "r")
        # Post-mortem stat still answers (cached-inode semantics).
        assert fs.stat("/local/n1/ssd/f").size == 10
        # Shared mount survives.
        fd = fs.open("/pfs/g", "w")
        fs.close(fd)

    def test_last_node_cannot_die(self):
        clock, cluster = small_cluster(2)
        cluster.fail_node("n0")
        with pytest.raises(ValueError):
            cluster.fail_node("n1")

    def test_double_arm_rejected(self):
        clock, cluster = small_cluster()
        FaultInjector(FaultSpec(), cluster).arm()
        with pytest.raises(RuntimeError):
            FaultInjector(FaultSpec(), cluster).arm()


# ----------------------------------------------------------------------
# Resilient execution: retries, degradation, re-placement
# ----------------------------------------------------------------------
class TestRetries:
    def test_retry_policy_backoff_schedule(self):
        p = RetryPolicy(max_attempts=4, backoff_base=0.5, backoff_factor=2.0)
        assert p.backoff(1) == 0.0
        assert p.backoff(2) == 0.5
        assert p.backoff(3) == 1.0
        assert p.backoff(4) == 2.0
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_flaky_task_succeeds_on_retry(self):
        clock, cluster = small_cluster()
        runner, mapper = make_runner(
            cluster, clock, retry_policy=RetryPolicy(max_attempts=3))
        attempts = []

        def flaky(rt):
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("flaky")
            f = rt.open("/pfs/out.h5", "w")
            f.create_dataset("d", shape=(4,), dtype="f4",
                             data=np.zeros(4, dtype=np.float32))
            f.close()

        wf = Workflow("w", [Stage("s", [Task("t", flaky)])])
        result = runner.run(wf)
        assert len(attempts) == 3
        assert not result.failures
        assert result.retries == 2
        assert result.stage("s").task_durations["t"] > 0
        # Exactly one profile despite three attempts.
        assert list(mapper.profiles) == ["t"]
        # Backoff was charged to its own account: base + base*factor.
        assert clock.account(RETRY_BACKOFF_ACCOUNT) == pytest.approx(0.75)

    def test_fail_fast_without_policy_preserves_exception(self):
        clock, cluster = small_cluster()
        runner, mapper = make_runner(cluster, clock)

        def boom(rt):
            raise RuntimeError("boom")

        wf = Workflow("w", [Stage("s", [Task("t", boom)])])
        with pytest.raises(RuntimeError, match="boom"):
            runner.run(wf)
        # The partial result is preserved with the failure recorded.
        result = runner.last_result
        assert result is not None
        assert result.stage("s").aborted
        assert result.stage("s").failures["t"].attempts == 1
        assert "t" not in mapper.profiles

    def test_best_effort_stage_degrades_without_aborting(self):
        clock, cluster = small_cluster()
        runner, mapper = make_runner(cluster, clock)

        def boom(rt):
            raise RuntimeError("boom")

        wf = Workflow("w", [
            Stage("lossy", [
                writer_task("ok0", "/pfs/a.h5"),
                Task("bad", boom),
                writer_task("ok1", "/pfs/b.h5"),
            ], best_effort=True),
            Stage("after", [writer_task("downstream", "/pfs/c.h5")]),
        ])
        result = runner.run(wf)
        assert result.degraded
        assert set(result.failures) == {"bad"}
        assert not result.stage("lossy").aborted
        # The later tasks of the stage and the next stage still ran.
        assert set(result.stage("lossy").task_durations) == {"ok0", "ok1"}
        assert "downstream" in result.stage("after").task_durations
        assert set(mapper.profiles) == {"ok0", "ok1", "downstream"}

    def test_node_death_retry_replaces_onto_survivor(self):
        clock, cluster = small_cluster(2)
        spec = FaultSpec(node_faults=(NodeFault("n1", at=0.0),))
        inj = FaultInjector(spec, cluster)
        runner, mapper = make_runner(
            cluster, clock,
            retry_policy=RetryPolicy(max_attempts=2), faults=inj)
        inj.arm()
        ran_on = []

        def local_writer(rt):
            ran_on.append(rt.node)
            path = rt.local_path("ssd", "x.bin")
            fd = rt.fs.open(path, "w")
            rt.fs.write(fd, b"x" * 100)
            rt.fs.close(fd)

        # Two tasks: round-robin would put the second on n1, which dies
        # at t=0 — the stage poll kills it before placement, so both run
        # on the survivor.
        wf = Workflow("w", [Stage("s", [
            Task("t0", local_writer), Task("t1", local_writer)])])
        result = runner.run(wf)
        assert not result.failures
        assert ran_on == ["n0", "n0"]
        assert result.stage("s").placement == {"t0": "n0", "t1": "n0"}

    def test_mid_run_node_death_degrades_best_effort(self):
        """A node dying mid-stage fails tasks on its local tier; the
        best-effort stage records the loss and the run completes."""
        clock, cluster = small_cluster(2)
        spec = FaultSpec(node_faults=(NodeFault("n1", at=0.005),))
        inj = FaultInjector(spec, cluster)
        runner, mapper = make_runner(cluster, clock, faults=inj)
        inj.arm()

        def slow_local(rt):
            # Ensure the clock passes the node-death time first.
            rt.compute(0.01)
            path = rt.local_path("ssd", "y.bin")
            fd = rt.fs.open(path, "w")
            rt.fs.write(fd, b"x" * 100)
            rt.fs.close(fd)

        wf = Workflow("w", [Stage("s", [
            Task("t0", slow_local), Task("t1", slow_local)],
            best_effort=True)])
        result = runner.run(wf)
        assert set(result.failures) == {"t1"}
        assert "t0" in result.stage("s").task_durations
        assert cluster.dead_nodes == ["n1"]


    @pytest.mark.parametrize("retries", [0, 1])
    def test_task_placed_on_dead_node_fails_unstarted(self, retries):
        """A node dying mid-stage fails the next task placed on it before
        it starts: one ``TaskFailed(started=False)`` naming the dead
        node and no profile.  A retry is re-placed onto the survivor."""
        clock, cluster = small_cluster(2)
        spec = FaultSpec(node_faults=(NodeFault("n1", at=0.005),))
        inj = FaultInjector(spec, cluster)
        events = []

        class Collector:
            publish = staticmethod(events.append)

        runner, mapper = make_runner(
            cluster, clock, faults=inj,
            retry_policy=RetryPolicy(max_attempts=1 + retries))
        mapper.monitor = Collector()
        inj.arm()

        def slow(rt):
            rt.compute(0.01)  # the clock passes the node-death time

        wf = Workflow("w", [Stage("s", [Task("t0", slow), Task("t1", slow)],
                                  best_effort=True)])
        result = runner.run(wf)
        failed = [e for e in events if e.kind == "task_failed"]
        assert len(failed) == 1
        assert (failed[0].task, failed[0].node) == ("t1", "n1")
        assert failed[0].started is False
        assert failed[0].fatal is (retries == 0)
        assert failed[0].error == (
            "FsError: task 't1' placed on dead node 'n1'")
        started = [e.task for e in events if e.kind == "task_started"]
        if retries == 0:
            assert started == ["t0"]
            assert set(mapper.profiles) == {"t0"}
            assert result.failures["t1"].error == failed[0].error
        else:
            assert started == ["t0", "t1"]
            assert not result.failures
            retried = [e for e in events if e.kind == "task_retried"]
            assert [(e.task, e.node, e.previous_node) for e in retried] == [
                ("t1", "n0", "n1")]
            assert result.stage("s").placement == {"t0": "n0", "t1": "n0"}
            assert result.stage("s").attempts == {"t0": 1, "t1": 2}


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def _run(self, retries):
        from repro.experiments.fault_resilience import run_chaos_once

        run = run_chaos_once(0.10, retries=retries, seed=7)
        digests = {name: p.serialize() for name, p in
                   run.result.profiles.items()}
        return (json.dumps(run.result.to_json_dict(), sort_keys=True),
                digests, run.injected)

    def test_fixed_seed_replays_bit_for_bit(self):
        a_json, a_profiles, a_injected = self._run(retries=2)
        b_json, b_profiles, b_injected = self._run(retries=2)
        assert a_json == b_json
        assert a_injected == b_injected
        assert a_profiles.keys() == b_profiles.keys()
        for name in a_profiles:
            assert a_profiles[name] == b_profiles[name], name

    def test_different_seed_diverges(self):
        from repro.experiments.fault_resilience import run_chaos_once

        a = run_chaos_once(0.10, retries=0, seed=7)
        b = run_chaos_once(0.10, retries=0, seed=8)
        assert (a.injected != b.injected
                or a.result.wall_time != b.result.wall_time)

    def test_retries_recover_makespan(self):
        """Under the same fault spec, retries lose fewer tasks than no
        retries, a fault-free run is fastest, and the makespan charges
        what retrying costs: a retried task's stage wall covers its
        failed attempts and every backoff wait before its last one."""
        from repro.experiments.fault_resilience import run_chaos_once

        clean = run_chaos_once(0.0)
        no_retry = run_chaos_once(0.10, retries=0, seed=7)
        retry = run_chaos_once(0.10, retries=2, seed=7)
        assert no_retry.lost_tasks > 0
        assert retry.lost_tasks < no_retry.lost_tasks
        assert clean.makespan <= retry.makespan
        policy = RetryPolicy(max_attempts=3)
        retried = 0
        for stage in retry.result.stage_results:
            for task, attempts in stage.attempts.items():
                if attempts == 1:
                    continue
                retried += 1
                backoff = sum(policy.backoff(a)
                              for a in range(2, attempts + 1))
                last = stage.task_durations.get(task, 0.0)
                assert stage.wall_time >= backoff + last, (task, attempts)
        assert retried > 0

    def test_stage_wall_covers_failed_attempts_and_backoff(self):
        """One task, two failed attempts after real I/O, then success:
        its stage wall is the failed attempts' elapsed time plus both
        backoff waits plus the successful attempt."""
        clock, cluster = small_cluster()
        policy = RetryPolicy(max_attempts=3, backoff_base=0.25)
        runner, mapper = make_runner(cluster, clock, retry_policy=policy)
        elapsed = []

        def flaky(rt):
            start = rt.clock.now
            f = rt.open("/pfs/out.h5", "w")
            f.create_dataset("d", shape=(64,), dtype="f4",
                             data=np.zeros(64, dtype=np.float32))
            f.close()
            elapsed.append(rt.clock.now - start)
            if len(elapsed) < 3:
                raise RuntimeError("flaky")

        wf = Workflow("w", [Stage("s", [Task("t", flaky)])])
        result = runner.run(wf)
        stage = result.stage("s")
        assert stage.attempts == {"t": 3}
        failed = elapsed[0] + elapsed[1]
        backoff = policy.backoff(2) + policy.backoff(3)
        assert stage.task_durations["t"] == pytest.approx(elapsed[2])
        assert stage.wall_time >= failed + backoff + elapsed[2]
        assert result.wall_time == pytest.approx(
            failed + backoff + elapsed[2])


class TestChaosUnderBothEngines:
    """The fixed-seed chaos run (rate 0.10, seed 7, two retries) under
    stage barriers and under dataflow dependencies."""

    @pytest.mark.parametrize("deps", ["stage", "dataflow"])
    def test_chaos_replays_and_monitor_reconciles(self, deps, tmp_path):
        from repro.cli import run_main
        from repro.experiments.common import fresh_env
        from repro.workflow.dscheduler import TERMINAL_STATES
        from repro.workloads.chaos import (
            ChaosParams,
            build_chaos,
            chaos_fault_spec,
        )

        spec = chaos_fault_spec(ChaosParams(), rate=0.10, seed=7)
        spec_path = tmp_path / "chaos-spec.json"
        spec_path.write_text(spec.dumps())
        # Same spec + same seed twice through dayu-run: the
        # WorkflowResult JSON must be byte-identical.
        results = []
        for i in (1, 2):
            out = tmp_path / f"result-{i}.json"
            argv = ["chaos", "--faults", str(spec_path), "--retry", "2",
                    "--deps", deps, "--result-json", str(out),
                    "--out", str(tmp_path / f"traces-{i}")]
            assert run_main(argv) == 0
            results.append(out.read_bytes())
        assert results[0] == results[1]

        # In process with a monitor: failed attempts publish critical
        # events and the bus accounting identity still holds.
        env = fresh_env(n_nodes=2, monitor=True)
        inj = FaultInjector(spec, env.cluster,
                            emit=env.monitor.publish).arm()
        runner = env.runner
        runner.faults = inj
        runner.dependency_mode = deps
        if deps == "dataflow":
            runner.placement = "locality"
            runner.retry_policy = RetryPolicy(max_attempts=3)
        result = runner.run(build_chaos(ChaosParams()))
        env.monitor.finish()
        inj.disarm()
        assert sum(inj.stats().values()) > 0
        assert env.monitor.reconciles(), env.monitor.stats()
        if deps == "stage":
            assert result.failures, "expected degraded partitions"
        terminal = {s.value for s in TERMINAL_STATES}
        states = runner.last_engine.terminal_states()
        assert len(states) == len(build_chaos(ChaosParams()).all_tasks())
        assert set(states.values()) <= terminal


# ----------------------------------------------------------------------
# Monitor integration under faults
# ----------------------------------------------------------------------
class TestMonitorFailureEvents:
    def _monitored_runner(self, cluster, clock, **kwargs):
        monitor = WorkflowMonitor(clock, MonitorConfig())
        mapper = DataSemanticMapper(clock, monitor=monitor)
        runner = DataflowRunner(cluster, mapper, placement="round_robin",
                                **kwargs)
        return runner, mapper, monitor

    def test_failure_events_and_counters(self):
        clock, cluster = small_cluster()
        runner, mapper, monitor = self._monitored_runner(
            cluster, clock, retry_policy=RetryPolicy(max_attempts=2))
        attempts = []

        def flaky(rt):
            attempts.append(1)
            if len(attempts) < 2:
                raise RuntimeError("flaky")

        def hopeless(rt):
            raise RuntimeError("always")

        wf = Workflow("w", [Stage("s", [
            Task("flaky", flaky), Task("hopeless", hopeless)],
            best_effort=True)])
        result = runner.run(wf)
        monitor.finish()
        snap = monitor.metrics_snapshot()

        def metric(name, **labels):
            for sample in snap[name]["values"]:
                if all(sample["labels"].get(k) == v
                       for k, v in labels.items()):
                    return sample["value"]
            return None

        # flaky and hopeless each got one second attempt.
        assert metric("dayu_task_retries_total") == 2
        # Non-final failures: flaky attempt 1 + hopeless attempt 1.
        assert metric("dayu_task_failures_total", fatal="false") == 2
        # Final failure: hopeless attempt 2 (budget spent).
        assert metric("dayu_task_failures_total", fatal="true") == 1
        # Running gauge is balanced: every started attempt ended.
        assert metric("dayu_tasks_running") == 0
        assert monitor.aggregator.tasks_running == 0
        assert monitor.reconciles()
        assert set(result.failures) == {"hopeless"}

    def test_stage_finished_published_on_abort(self):
        clock, cluster = small_cluster()
        runner, mapper, monitor = self._monitored_runner(cluster, clock)

        def boom(rt):
            raise RuntimeError("boom")

        wf = Workflow("w", [Stage("s", [Task("t", boom)])])
        with pytest.raises(RuntimeError):
            runner.run(wf)
        monitor.finish()
        # The stage lifecycle closed despite the abort, and reconciliation
        # still balances.
        snap = monitor.metrics_snapshot()
        kinds = {s["labels"]["kind"]: s["value"]
                 for s in snap["dayu_events_total"]["values"]}
        assert kinds.get("stage_started") == 1
        assert kinds.get("stage_finished") == 1
        assert kinds.get("task_failed") == 1
        assert monitor.reconciles()

    def test_node_failed_event_reaches_metrics(self):
        clock, cluster = small_cluster(2)
        monitor = WorkflowMonitor(clock, MonitorConfig())
        inj = FaultInjector(
            FaultSpec(node_faults=(NodeFault("n1", at=0.0),)),
            cluster, emit=monitor.publish).arm()
        inj.poll()
        monitor.finish()
        snap = monitor.metrics_snapshot()
        assert snap["dayu_node_failures_total"]["values"][0]["value"] == 1

    def test_live_graph_ignores_failed_attempts(self):
        """The live FTG only sees completed attempts — a retried task
        contributes exactly one profile, same as the post-hoc build."""
        clock, cluster = small_cluster()
        runner, mapper, monitor = self._monitored_runner(
            cluster, clock, retry_policy=RetryPolicy(max_attempts=2))
        attempts = []

        def flaky(rt):
            attempts.append(1)
            f = rt.open("/pfs/out.h5", "w" if len(attempts) > 1 else "w")
            f.create_dataset("d", shape=(8,), dtype="f4",
                             data=np.zeros(8, dtype=np.float32))
            f.close()
            if len(attempts) < 2:
                raise RuntimeError("late failure, after I/O")

        wf = Workflow("w", [Stage("s", [Task("t", flaky)])])
        runner.run(wf)
        monitor.finish()
        live = monitor.snapshot_ftg()
        assert monitor.aggregator.tasks_finished == ["t"]
        from repro.analyzer.graphs import GraphBuilder

        post = GraphBuilder("ftg")
        for p in mapper.profiles.values():
            post.add_profile(p)
        assert set(live.nodes) == set(post.build().nodes)


# ----------------------------------------------------------------------
# Middleware failure paths (satellites)
# ----------------------------------------------------------------------
def _mounted_fs():
    clock = SimClock()
    from repro.posix import SimFS
    from repro.storage import Mount, make_device

    return clock, SimFS(clock, mounts=[
        Mount("/pfs", make_device("beegfs")),
        Mount("/ram", make_device("ram"), node="n0"),
    ])


def _make_file(fs, path, nbytes=1000):
    fd = fs.open(path, "w")
    fs.write(fd, bytes(range(256)) * (nbytes // 256 + 1))
    fs.truncate(fd, nbytes)
    fs.close(fd)


class TestCacheRegression:
    def test_replica_paths_do_not_collide(self):
        """/pfs/a/b vs /pfs/a_b used to flatten to the same replica."""
        clock, fs = _mounted_fs()
        _make_file(fs, "/pfs/a/b", 100)
        _make_file(fs, "/pfs/a_b", 200)
        cache = TieredCache(fs, [BufferTier("ram", "/ram", 10_000)])
        r1 = cache.place("/pfs/a/b")
        r2 = cache.place("/pfs/a_b")
        assert r1 != r2
        assert fs.stat(r1).size == 100
        assert fs.stat(r2).size == 200

    def test_encoding_is_injective_on_adversarial_pairs(self):
        from repro.middleware.cache import _encode_path

        pairs = [("/a/_b", "/a_/b"), ("/a/b", "/a_b"), ("/a__b", "/a/_b"),
                 ("/x_s", "/x/s")]
        for left, right in pairs:
            assert _encode_path(left) != _encode_path(right), (left, right)

    def test_place_revalidates_stale_replica(self):
        """A source rewritten after caching must not be served stale."""
        clock, fs = _mounted_fs()
        _make_file(fs, "/pfs/f", 100)
        cache = TieredCache(fs, [BufferTier("ram", "/ram", 10_000)])
        replica = cache.place("/pfs/f")
        assert fs.stat(replica).size == 100
        # Rewrite the source with different content and size.
        clock.advance(1.0)
        _make_file(fs, "/pfs/f", 300)
        fresh = cache.place("/pfs/f")
        assert fs.stat(fresh).size == 300
        tier = cache.tiers[0]
        assert tier.used_bytes == 300

    def test_place_detects_same_size_rewrite(self):
        """Same-size rewrites are caught via mtime, not just size."""
        clock, fs = _mounted_fs()
        _make_file(fs, "/pfs/f", 100)
        cache = TieredCache(fs, [BufferTier("ram", "/ram", 10_000)])
        replica = cache.place("/pfs/f")
        before = fs.store_of(replica).read(0, 100)
        clock.advance(1.0)
        fd = fs.open("/pfs/f", "w")
        fs.write(fd, b"Z" * 100)
        fs.close(fd)
        fresh = cache.place("/pfs/f")
        assert fs.store_of(fresh).read(0, 100) == b"Z" * 100
        assert fs.store_of(fresh).read(0, 100) != before

    def test_resolve_evicts_stale_replica(self):
        clock, fs = _mounted_fs()
        _make_file(fs, "/pfs/f", 100)
        cache = TieredCache(fs, [BufferTier("ram", "/ram", 10_000)])
        replica = cache.place("/pfs/f")
        assert cache.resolve("/pfs/f") == replica
        clock.advance(1.0)
        _make_file(fs, "/pfs/f", 200)
        assert cache.resolve("/pfs/f") == "/pfs/f"
        assert not cache.is_cached("/pfs/f")
        assert cache.tiers[0].used_bytes == 0

    def test_fresh_token_travels_with_demotion(self):
        clock, fs = _mounted_fs()
        _make_file(fs, "/pfs/a", 600)
        _make_file(fs, "/pfs/b", 600)
        cache = TieredCache(fs, [
            BufferTier("ram", "/ram", 1000),
            BufferTier("pfs_cache", "/pfs/cache", 10_000),
        ])
        cache.place("/pfs/a", tier_name="ram")
        cache.place("/pfs/b", tier_name="ram")  # demotes /pfs/a
        assert "/pfs/a" in cache.tiers[1].resident
        # The demoted replica is still recognized as fresh.
        demoted = cache.resolve("/pfs/a")
        assert demoted == cache.tiers[1].resident["/pfs/a"]

    def test_deleted_source_keeps_replica(self):
        clock, fs = _mounted_fs()
        _make_file(fs, "/pfs/f", 100)
        cache = TieredCache(fs, [BufferTier("ram", "/ram", 10_000)])
        replica = cache.place("/pfs/f")
        fs.unlink("/pfs/f")
        assert cache.resolve("/pfs/f") == replica

    def test_failed_copy_leaves_no_partial_replica(self):
        clock, cluster = small_cluster()
        fs = cluster.fs
        _make_file(fs, "/pfs/src", 1000)
        # RAM tier lives on n0's local ssd mount for this test.
        cache = TieredCache(fs, [
            BufferTier("local", "/local/n0/ssd", 10_000)])
        inj = FaultInjector(FaultSpec(device_faults=(
            DeviceFault("/local/n0/ssd", "permanent", ops="write"),)),
            cluster).arm()
        with pytest.raises(DeviceError):
            cache.place("/pfs/src")
        inj.disarm()
        tier = cache.tiers[0]
        assert tier.resident == {}
        assert tier.tokens == {}
        assert tier.used_bytes == 0
        assert fs.listdir("/local/n0/ssd") == []
        # After the fault clears, placement succeeds normally.
        replica = cache.place("/pfs/src")
        assert fs.stat(replica).size == 1000


class TestAsyncStagerFailurePaths:
    """Pin the stager's failure contract: a submit that raises leaves the
    daemon timeline, the transfer list, and the namespace untouched."""

    def test_unreachable_source_rejected_cleanly(self):
        clock, cluster = small_cluster(2)
        fs = cluster.fs
        _make_file(fs, "/local/n1/ssd/src", 500)
        stager = AsyncStager(fs)
        free_before = stager._daemon_free_at
        cluster.fail_node("n1")
        with pytest.raises(FsError):
            stager.submit("/local/n1/ssd/src", "/pfs/dst")
        assert stager.transfers == []
        assert stager.pending == 0
        assert stager._daemon_free_at == free_before
        assert not fs.exists("/pfs/dst")

    def test_unreachable_destination_rejected_cleanly(self):
        clock, cluster = small_cluster(2)
        fs = cluster.fs
        _make_file(fs, "/pfs/src", 500)
        stager = AsyncStager(fs)
        cluster.fail_node("n1")
        dst = "/local/n1/ssd/dst"
        with pytest.raises(FsError):
            stager.submit("/pfs/src", dst)
        assert stager.transfers == []
        assert not fs.exists(dst)
        assert stager._daemon_free_at == 0.0
        # The daemon is still usable for good transfers afterwards.
        t = stager.submit("/pfs/src", "/local/n0/ssd/dst")
        assert stager.pending == 1
        stager.wait(t)
        assert fs.stat("/local/n0/ssd/dst").size == 500

    def test_submit_bypasses_io_fault_injection(self):
        """Current contract: submit materializes bytes via store-level
        reads/writes, below the pread/pwrite injection point — transient
        device faults do not fail background staging."""
        clock, cluster = small_cluster()
        fs = cluster.fs
        _make_file(fs, "/pfs/src", 500)
        inj = FaultInjector(FaultSpec(device_faults=(
            DeviceFault("/pfs", "transient", rate=1.0),)), cluster).arm()
        stager = AsyncStager(fs)
        t = stager.submit("/pfs/src", "/pfs/dst")
        inj.disarm()
        assert fs.stat("/pfs/dst").size == 500
        assert t.duration > 0

    def test_drain_timeline_consistent_after_failed_submit(self):
        clock, cluster = small_cluster(2)
        fs = cluster.fs
        _make_file(fs, "/pfs/a", 500)
        _make_file(fs, "/pfs/b", 500)
        stager = AsyncStager(fs)
        t1 = stager.submit("/pfs/a", "/local/n0/ssd/a")
        free_after_t1 = stager._daemon_free_at
        cluster.fail_node("n1")
        with pytest.raises(FsError):
            stager.submit("/pfs/b", "/local/n1/ssd/b")
        # The failed submit consumed no daemon time.
        assert stager._daemon_free_at == free_after_t1
        t2 = stager.submit("/pfs/b", "/local/n0/ssd/b")
        # t2 queues directly behind t1 on the background timeline.
        assert t2.completes_at > t1.completes_at
        assert stager._daemon_free_at == t2.completes_at
        assert stager.drain() > 0
        assert stager.pending == 0
