"""The ``repro.monitor`` subsystem: bus semantics, live-vs-post-hoc
equivalence, streaming lint, metrics exposition, and overhead isolation.

The two load-bearing invariants:

1. On every bundled workload the end-of-run live FTG/SDG snapshot
   serializes byte-identical to the post-hoc serial ``GraphBuilder``
   result, under every backpressure policy — including forced tiny
   capacities that drop most droppable events.
2. For the streamed codes, finalized streaming-lint findings equal batch
   ``dayu-lint`` findings, fingerprint and severity alike, with and
   without the streamed DY5xx races; ``corner-hazards`` raises its DY2xx
   alert *during* the run (before workflow completion), and the live
   alert sequences of the seeded-hazard workloads are pinned.
"""

import json
import re
from collections import Counter

import pytest

from repro.analyzer.graphs import build_ftg, build_sdg
from repro.analyzer.serialize import graph_to_json
from repro.experiments.common import fresh_env
from repro.lint.engine import lint_profiles
from repro.lint.findings import Severity
from repro.lint.rules import LintConfig
from repro.mapper.overhead import overhead_report
from repro.monitor import (
    MONITOR_ACCOUNT,
    Backpressure,
    DynamicsWindows,
    EventBus,
    MetricsRegistry,
    MonitorConfig,
    StreamLint,
    TaskFinished,
    TaskStarted,
    VfdOp,
)
from repro.monitor.streamlint import MAX_EXTENTS_PER_ACCESS
from repro.simclock import SimClock, TimeSpan
from repro.vfd.base import IoClass
from repro.workloads.registry import WORKLOADS, build_workload

#: Fast per-workload scales for monitored end-to-end runs.
SCALES = {
    "pyflextrkr": 0.1, "ddmd": 0.2, "arldm": 0.2, "h5bench": 0.25,
    "h5bench-shared": 0.25, "climate": 0.5, "corner": 0.05,
    "corner-hazards": 0.05, "chaos": 0.5, "racy-pipeline": 0.25,
    "perf-hazards": 0.05,
}


def vfd_event(i, task="t", file="/f", op="write", nbytes=8):
    return VfdOp(time=float(i), task=task, file=file, op=op, offset=i * 64,
                 nbytes=nbytes, start=float(i), duration=0.01,
                 io_class=IoClass.RAW, data_object="/d")


def run_monitored(name, **monitor_kwargs):
    alerts = []
    env = fresh_env(
        monitor_config=MonitorConfig(**monitor_kwargs),
        on_alert=lambda a: alerts.append((a, len(env.mapper.profiles))),
    )
    workflow, prepare = build_workload(name, SCALES[name])
    if prepare is not None:
        prepare(env.cluster)
    total_tasks = len(workflow.all_tasks())
    env.runner.run(workflow)
    env.monitor.finish()
    return env, alerts, total_tasks


class TestEventBus:
    def test_block_policy_loses_nothing(self):
        clock = SimClock()
        bus = EventBus(clock)
        seen = []
        sub = bus.subscribe("s", seen.append, policy=Backpressure.BLOCK,
                            capacity=4)
        for i in range(100):
            bus.publish(vfd_event(i))
        bus.flush()
        assert len(seen) == 100
        assert sub.dropped == 0 and sub.sampled_out == 0
        assert sub.blocked_flushes > 0  # capacity 4 forced inline drains
        assert bus.reconciles()

    def test_drop_policy_counts_every_loss(self):
        bus = EventBus(SimClock())
        seen = []
        sub = bus.subscribe("s", seen.append, policy=Backpressure.DROP,
                            capacity=8)
        for i in range(100):
            bus.publish(vfd_event(i))
        bus.flush()
        assert sub.dropped == 92 and len(seen) == 8
        assert sub.offered == sub.delivered + sub.dropped
        assert bus.reconciles()

    def test_sample_policy_admits_one_in_n(self):
        bus = EventBus(SimClock())
        seen = []
        sub = bus.subscribe("s", seen.append, policy=Backpressure.SAMPLE,
                            capacity=1000, sample_every=10)
        for i in range(100):
            bus.publish(vfd_event(i))
        bus.flush()
        assert len(seen) == 10 and sub.sampled_out == 90
        assert bus.reconciles()

    def test_critical_events_survive_every_policy(self):
        for policy in Backpressure:
            bus = EventBus(SimClock())
            seen = []
            bus.subscribe("s", seen.append, policy=policy, capacity=2,
                          sample_every=50)
            for i in range(50):
                bus.publish(vfd_event(i))
            bus.publish(TaskStarted(time=50.0, task="t"))
            bus.flush()
            kinds = [e.kind for e in seen]
            assert "task_started" in kinds, policy
            assert bus.reconciles()

    def test_subscriber_cost_charged_off_critical_path(self):
        clock = SimClock()
        bus = EventBus(clock, cost_per_event=1e-6)
        bus.subscribe("s", lambda e: None)
        t0 = clock.now
        for i in range(10):
            bus.publish(vfd_event(i))
        bus.flush()
        assert clock.now == t0  # charge() attributes without advancing
        assert clock.account(MONITOR_ACCOUNT) == pytest.approx(1e-5)

    def test_duplicate_subscriber_name_rejected(self):
        bus = EventBus(SimClock())
        bus.subscribe("s", lambda e: None)
        with pytest.raises(ValueError):
            bus.subscribe("s", lambda e: None)


class TestDynamicsWindows:
    def test_series_buckets_by_interval(self):
        w = DynamicsWindows(window_seconds=1.0)
        for i in range(10):
            w.observe(vfd_event(i))
        series = w.series_for("t", "/f", "/d")
        assert [idx for idx, _ in series] == list(range(10))
        assert all(s.writes == 1 and s.write_bytes == 8 for _, s in series)
        assert w.total_ops == 10 and w.total_bytes == 80

    def test_eviction_conserves_totals(self):
        w = DynamicsWindows(window_seconds=1.0, max_windows_per_key=3)
        for i in range(10):
            w.observe(vfd_event(i))
        assert w.evicted_windows == 7
        assert len(w.series_for("t", "/f", "/d")) == 3
        totals = w.totals_for("t", "/f", "/d")
        assert totals.writes == 10 and totals.write_bytes == 80

    def test_json_form_is_deterministic(self):
        w = DynamicsWindows(window_seconds=0.5)
        for i in range(4):
            w.observe(vfd_event(i))
        a = json.dumps(w.to_json_dict(), sort_keys=True)
        b = json.dumps(w.to_json_dict(), sort_keys=True)
        assert a == b
        assert w.to_json_dict()["series"][0]["points"][0]["t1"] == 0.5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_live_snapshot_byte_identical_to_post_hoc(workload):
    env, _, _ = run_monitored(workload)
    profiles = list(env.mapper.profiles.values())
    assert graph_to_json(env.monitor.snapshot_ftg()) == \
        graph_to_json(build_ftg(profiles))
    assert graph_to_json(env.monitor.snapshot_sdg()) == \
        graph_to_json(build_sdg(profiles))
    assert env.monitor.reconciles()


#: Codes streaming lint evaluates, without and with ``stream_races``.
STREAMED = ("DY201", "DY202", "DY203", "DY302")
STREAMED_RACES = STREAMED + ("DY501", "DY502", "DY503")


def _as_batch_json(finding):
    """A finding's JSON form, with a streamed DY5xx's context mode read
    as the batch engine's."""
    d = finding.to_json_dict()
    if d["evidence"].get("mode") == "stream":
        d["evidence"]["mode"] = "trace"
    return d


@pytest.mark.parametrize("workload", WORKLOADS)
def test_streaming_findings_subset_of_batch(workload):
    """Finalized streaming findings *equal* batch for the streamed codes
    (DY302: its per-record checks; the stats checks need whole
    profiles).  Beyond DY302, whose live form has no record index, the
    whole JSON form matches: message, evidence and DY5xx witness."""
    for races in (False, True):
        env, _, _ = run_monitored(workload, stream_races=races)
        profiles = list(env.mapper.profiles.values())
        codes = STREAMED_RACES if races else STREAMED
        config = LintConfig(enable=("DY5",)) if races else LintConfig()
        batch = [
            f for f in lint_profiles(profiles, config).findings
            if f.code in codes
            and (f.code != "DY302" or "record_index" in f.evidence)
        ]
        stream = env.monitor.findings
        assert ({(f.fingerprint, f.severity) for f in stream}
                == {(f.fingerprint, f.severity) for f in batch}), \
            (workload, races)
        assert sorted((_as_batch_json(f) for f in stream
                       if f.code != "DY302"), key=json.dumps) == \
            sorted((f.to_json_dict() for f in batch if f.code != "DY302"),
                   key=json.dumps), (workload, races)


#: Each live alert's (code, subject, tasks, fire time, retracted), pinned
#: per (workload, stream_races).
PINNED_ALERTS = {
    ("corner-hazards", False): [
        ("DY203", "/beegfs/corner/hazard.h5:/dup",
         ("hazard_writer_a", "hazard_writer_b"), 0.930659208447147, False),
    ],
    ("corner-hazards", True): [
        ("DY203", "/beegfs/corner/hazard.h5:/dup",
         ("hazard_writer_a", "hazard_writer_b"), 0.930659208447147, False),
        ("DY501", "/beegfs/corner/hazard.h5:/dup",
         ("hazard_writer_a", "hazard_writer_b"), 0.930659208447147, False),
        ("DY503", "/beegfs/corner/hazard.h5:/dup",
         ("hazard_writer_a", "hazard_writer_b"), 0.9303543181952482, True),
    ],
    ("racy-pipeline", False): [
        ("DY202", "/beegfs/racy/rw.h5:/series",
         ("racy_amend", "racy_probe"), 0.08949855993367475, False),
        ("DY203", "/beegfs/racy/disjoint.h5:/field",
         ("racy_half_hi", "racy_half_lo"), 0.05857361907541006, False),
        ("DY203", "/beegfs/racy/mask.h5:/mask",
         ("racy_mask_early", "racy_mask_late"), 0.04085386216937704, False),
        ("DY203", "/beegfs/racy/waw.h5:/jets",
         ("racy_jet_a", "racy_jet_b"), 0.02403763640825738, False),
    ],
    ("racy-pipeline", True): [
        ("DY202", "/beegfs/racy/rw.h5:/series",
         ("racy_amend", "racy_probe"), 0.08949855993367475, False),
        ("DY203", "/beegfs/racy/disjoint.h5:/field",
         ("racy_half_hi", "racy_half_lo"), 0.05857361907541006, False),
        ("DY203", "/beegfs/racy/mask.h5:/mask",
         ("racy_mask_early", "racy_mask_late"), 0.04085386216937704, False),
        ("DY203", "/beegfs/racy/waw.h5:/jets",
         ("racy_jet_a", "racy_jet_b"), 0.02403763640825738, False),
        ("DY501", "/beegfs/racy/disjoint.h5:/field",
         ("racy_half_hi", "racy_half_lo"), 0.05857361907541006, False),
        ("DY501", "/beegfs/racy/mask.h5:/mask",
         ("racy_mask_early", "racy_mask_late"), 0.04085386216937704, False),
        ("DY501", "/beegfs/racy/waw.h5:/jets",
         ("racy_jet_a", "racy_jet_b"), 0.02403763640825738, False),
        ("DY502", "/beegfs/racy/rw.h5:/series",
         ("racy_amend", "racy_probe"), 0.08949855993367475, False),
        ("DY503", "/beegfs/racy/disjoint.h5:/field",
         ("racy_half_hi", "racy_half_lo"), 0.057328141360132284, True),
        ("DY503", "/beegfs/racy/mask.h5:/mask",
         ("racy_mask_early", "racy_mask_late"), 0.03991838445409926, True),
        ("DY503", "/beegfs/racy/meta.h5:/log",
         ("racy_grow_log", "racy_shape_probe"), 0.0804804133165199, False),
        ("DY503", "/beegfs/racy/waw.h5:/jets",
         ("racy_jet_a", "racy_jet_b"), 0.023418298015896268, True),
    ],
}


@pytest.mark.parametrize("workload,races", sorted(PINNED_ALERTS))
def test_live_alert_sequence_pinned(workload, races):
    """When alerts fire and which are later retracted, as a multiset."""
    env, _, _ = run_monitored(workload, stream_races=races)
    alerts = [(a.finding.code, a.finding.subject, a.finding.tasks, a.time,
               a.retracted) for a in env.monitor.alerts]
    assert Counter(alerts) == Counter(PINNED_ALERTS[(workload, races)])


def test_extent_cap_bounds_streaming_state():
    """Past the cap a digest collapses to its bounding interval and is
    marked inexact: a write landing between two of the other task's
    extents then counts as an (approximate) overlap."""
    lint = StreamLint()
    n = MAX_EXTENTS_PER_ACCESS + 8
    for i in range(n):  # disjoint 8-byte writes, 64 bytes apart
        lint.handle(vfd_event(i, task="a"))
    lint.handle(VfdOp(time=float(n), task="b", file="/f", op="write",
                      offset=3 * 64 + 16, nbytes=8, start=float(n),
                      duration=0.01, io_class=IoClass.RAW, data_object="/d"))
    [finding] = lint.finalize()
    assert (finding.code, finding.severity) == ("DY203", Severity.ERROR)
    assert finding.tasks == ("a", "b")
    assert finding.evidence["extent_precision"] == "page"
    extents = lint._objects[("/f", "/d")]["a"].write_extents
    assert len(extents) <= MAX_EXTENTS_PER_ACCESS


def test_stream_race_witness_orders_tasks_by_span():
    """The observed order behind a DY5xx witness is batch's: by task
    span, not by first operation (b touches the object before a does,
    but a started first)."""
    lint = StreamLint(races=True)
    lint.handle(TaskStarted(time=0.0, task="a"))
    lint.handle(TaskStarted(time=1.0, task="b"))
    lint.handle(vfd_event(2, task="b", nbytes=100))
    lint.handle(VfdOp(time=5.0, task="a", file="/f", op="write",
                      offset=128, nbytes=100, start=5.0, duration=0.01,
                      io_class=IoClass.RAW, data_object="/d"))
    for task, start in (("b", 1.0), ("a", 0.0)):
        profile = type("Profile", (), {"span": TimeSpan(start, 6.0)})
        lint.handle(TaskFinished(time=6.0, task=task, profile=profile))
    [race] = [f for f in lint.finalize() if f.code == "DY501"]
    assert race.evidence["witness"]["reordered"] == ["b", "a"]
    assert "replaying the witness runs b before a" in race.message


class TestCornerHazardsMidRun:
    def test_dy203_alert_fires_before_completion(self):
        env, alerts, total_tasks = run_monitored("corner-hazards")
        hazard = [(a, n) for a, n in alerts if a.finding.code == "DY203"]
        assert hazard, "corner-hazards must raise its DY2xx alert live"
        alert, tasks_done_at_fire = hazard[0]
        # Fired mid-run: strictly before the last task completed.
        assert tasks_done_at_fire < total_tasks
        assert not alert.retracted
        # Same fingerprint as the batch engine's finding.
        profiles = list(env.mapper.profiles.values())
        batch = {f.fingerprint: f for f in lint_profiles(profiles).findings}
        assert alert.finding.fingerprint in batch
        assert batch[alert.finding.fingerprint].code == "DY203"

    def test_forced_backpressure_drops_counted_and_reconciled(self):
        env, alerts, _ = run_monitored(
            "corner-hazards", bus_capacity=8, policy=Backpressure.DROP)
        agg = env.monitor.bus.subscription("aggregate")
        assert agg.dropped > 0
        assert agg.offered == (agg.delivered + agg.dropped
                               + agg.sampled_out + agg.queued)
        assert env.monitor.reconciles()
        # Graph equivalence survives the losses: lifecycle events are
        # critical and never dropped.
        profiles = list(env.mapper.profiles.values())
        assert graph_to_json(env.monitor.snapshot_ftg()) == \
            graph_to_json(build_ftg(profiles))
        assert graph_to_json(env.monitor.snapshot_sdg()) == \
            graph_to_json(build_sdg(profiles))
        # The streaming-lint subscriber stays lossless, so the alert fires
        # even while the lossy subscribers shed load.
        assert any(a.finding.code == "DY203" for a, _ in alerts)
        assert env.monitor.bus.subscription("streamlint").dropped == 0


class TestOverheadIsolation:
    def test_monitoring_off_is_exactly_free(self):
        env = fresh_env()
        workflow, _ = build_workload("ddmd", 0.2)
        env.runner.run(workflow)
        report = overhead_report(env.clock)
        assert report.monitor == 0.0
        assert report.monitor_percent == 0.0
        assert env.clock.account(MONITOR_ACCOUNT) == 0.0

    def test_monitor_cost_separate_from_tracing_accounts(self):
        env_off = fresh_env()
        env_on = fresh_env(monitor=True)
        workflow_off, _ = build_workload("ddmd", 0.2)
        workflow_on, _ = build_workload("ddmd", 0.2)
        env_off.runner.run(workflow_off)
        env_on.runner.run(workflow_on)
        env_on.monitor.finish()
        off = overhead_report(env_off.clock)
        on = overhead_report(env_on.clock)
        assert on.monitor > 0.0
        # Subscriber work is charged, never advanced: the monitored run's
        # timeline and tracing accounts are identical to the unmonitored
        # run's, so Figure 9/10 numbers cannot be contaminated.
        assert on.total_runtime == off.total_runtime
        assert on.vfd_tracker == off.vfd_tracker
        assert on.vol_tracker == off.vol_tracker
        assert on.dayu_time == off.dayu_time


class TestMetricsExport:
    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        c = reg.counter("dayu_ops_total", "Ops.", ("op",))
        g = reg.gauge("dayu_running", "Running.")
        h = reg.histogram("dayu_lat", "Latency.", buckets=(0.1, 1.0))
        c.inc(op="read")
        c.inc(2, op="write")
        g.set(3)
        h.observe(0.05)
        h.observe(5.0)
        text = reg.render_prometheus()
        assert "# TYPE dayu_ops_total counter" in text
        assert 'dayu_ops_total{op="write"} 2' in text
        assert "# TYPE dayu_running gauge" in text
        assert "dayu_running 3" in text
        assert 'dayu_lat_bucket{le="+Inf"} 2' in text
        assert "dayu_lat_count 2" in text
        # Every sample line parses as <name>{labels}? <value>.
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            assert re.match(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$',
                            line), line

    def test_workflow_metrics_populated(self):
        env, _, _ = run_monitored("ddmd")
        snap = env.monitor.metrics_snapshot()
        tasks = snap["dayu_tasks_completed_total"]["values"][0]["value"]
        assert tasks == len(env.mapper.profiles)
        text = env.monitor.render_prometheus()
        assert 'dayu_io_ops_total{op="write"}' in text
        assert "dayu_io_latency_seconds_bucket" in text


class TestWindowedDynamicsEndToEnd:
    def test_ddmd_series_covers_run_and_reconciles_bytes(self):
        env, _, _ = run_monitored("ddmd")
        dyn = env.monitor.dynamics
        assert dyn.keys(), "monitored run produced no dynamics series"
        # Total bytes seen live == total bytes in the saved profiles.
        profile_bytes = sum(
            s.access_volume for p in env.mapper.profiles.values()
            for s in p.dataset_stats)
        assert dyn.total_bytes == profile_bytes
        payload = dyn.to_json_dict()
        assert payload["window_seconds"] == 0.5
        last_end = max(pt["t1"] for row in payload["series"]
                       for pt in row["points"])
        assert last_end > 0


class TestCliRegistration:
    def test_all_install_paths_expose_the_same_clis(self):
        # setup.py defers to pyproject.toml; assert the contract both
        # README and the packaging shim rely on.
        text = open("pyproject.toml").read()
        scripts = re.search(r"\[project\.scripts\](.*?)(\n\[|\Z)", text,
                            re.S).group(1)
        for cli, target in (
            ("dayu-run", "repro.cli:run_main"),
            ("dayu-analyze", "repro.cli:analyze_main"),
            ("dayu-lint", "repro.lint.cli:lint_main"),
            ("dayu-monitor", "repro.monitor.cli:monitor_main"),
        ):
            assert f'{cli} = "{target}"' in scripts
        assert "entry_points" not in open("setup.py").read()

    def test_monitor_cli_end_to_end(self, tmp_path, capsys):
        from repro.monitor.cli import monitor_main

        rc = monitor_main([
            "corner-hazards", "--scale", "0.05", "--out", str(tmp_path),
            "--policy", "drop", "--bus-capacity", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ALERT DY203" in out
        assert "reconciles" in out
        for name in ("series.json", "metrics.prom", "metrics.json",
                     "ftg.json", "sdg.json", "alerts.json", "bus.json"):
            assert (tmp_path / name).exists(), name
        alerts = json.loads((tmp_path / "alerts.json").read_text())
        # A DY203 alert that survived finalization (not retracted).
        assert any(a["code"] == "DY203" and a["retracted"] is False
                   and a["confirmed"] is True for a in alerts), alerts
        bus = json.loads((tmp_path / "bus.json").read_text())
        assert bus["reconciles"]
        agg = bus["subscribers"]["aggregate"]
        assert agg["dropped"] > 0
        assert agg["offered"] == (agg["delivered"] + agg["dropped"]
                                  + agg["sampled_out"] + agg["queued"]), agg
