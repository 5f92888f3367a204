"""The monitor facade: one bus, the standard subscribers, one config.

:class:`WorkflowMonitor` is what callers attach to a
:class:`~repro.mapper.mapper.DataSemanticMapper`: it owns the
:class:`~repro.monitor.bus.EventBus` and wires the three standard
subscribers onto it —

- ``aggregate`` — the :class:`~repro.monitor.aggregate.LiveAggregator`
  (live FTG/SDG + windowed dynamics), under the configured backpressure
  policy (lifecycle events are critical, so graph equivalence holds even
  when this subscriber drops or samples);
- ``streamlint`` — the :class:`~repro.monitor.streamlint.StreamLint`
  engine, always under the lossless *block* policy so its happens-before
  oracle sees every recorded operation;
- ``metrics`` — feeds the :class:`~repro.monitor.export.MetricsRegistry`
  (counters/gauges/histograms for the Prometheus/JSON exporters).

The mapper publishes task lifecycle events, the tracers publish VOL/VFD
events, the runner publishes stage boundaries; call :meth:`finish` after
the run to drain the queues and finalize streaming lint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import networkx as nx

from repro.lint.findings import Finding
from repro.monitor.aggregate import DynamicsWindows, LiveAggregator
from repro.monitor.bus import Backpressure, EventBus
from repro.monitor.events import MonitorEvent
from repro.monitor.export import MetricsRegistry
from repro.monitor.streamlint import StreamAlert, StreamLint
from repro.simclock import SimClock

__all__ = ["MonitorConfig", "WorkflowMonitor"]


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables for one :class:`WorkflowMonitor`."""

    #: Dynamics interval width on the simulated clock.
    window_seconds: float = 0.5
    #: Bounded queue capacity per subscriber.
    bus_capacity: int = 256
    #: Backpressure for the lossy-tolerant subscribers (aggregate,
    #: metrics); streaming lint always uses the lossless block policy.
    policy: Backpressure = Backpressure.BLOCK
    #: Admit 1 in N droppable events under the sample policy.
    sample_every: int = 4
    #: Modeled consumer cost per delivered event, charged to the
    #: ``dayu.monitor.subscriber`` clock account (never the critical path).
    cost_per_event: float = 5.0e-8
    #: Build the live SDG with page-region nodes.
    with_regions: bool = False
    region_bytes: int = 65536
    page_size: int = 4096
    #: Bound on kept dynamics intervals per (task, dataset) key.
    max_windows_per_key: Optional[int] = None
    #: Evaluate the streaming lint rules.
    stream_lint: bool = True
    #: Also stream the opt-in DY501/502/503 happens-before race rules
    #: (the DY5xx family is opt-in batch-side too; DY504/505 never stream).
    stream_races: bool = False


class WorkflowMonitor:
    """Live observability for one workflow run (see module docstring)."""

    def __init__(
        self,
        clock: SimClock,
        config: Optional[MonitorConfig] = None,
        on_alert: Optional[Callable[[StreamAlert], None]] = None,
    ) -> None:
        self.config = config or MonitorConfig()
        cfg = self.config
        self.bus = EventBus(clock, cost_per_event=cfg.cost_per_event)
        self.aggregator = LiveAggregator(
            window_seconds=cfg.window_seconds,
            max_windows_per_key=cfg.max_windows_per_key,
            with_regions=cfg.with_regions,
            region_bytes=cfg.region_bytes,
            page_size=cfg.page_size,
        )
        self.bus.subscribe(
            "aggregate", self.aggregator.handle, policy=cfg.policy,
            capacity=cfg.bus_capacity, sample_every=cfg.sample_every,
        )
        self._user_on_alert = on_alert
        self.streamlint: Optional[StreamLint] = None
        if cfg.stream_lint:
            self.streamlint = StreamLint(on_alert=self._alert_raised,
                                         races=cfg.stream_races)
            # Lossless: the happens-before oracle must see every recorded
            # operation to keep fingerprints aligned with the batch engine.
            self.bus.subscribe(
                "streamlint", self.streamlint.handle,
                policy=Backpressure.BLOCK, capacity=cfg.bus_capacity,
            )
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._m_events = m.counter(
            "dayu_events_total", "Monitor events delivered, by kind.",
            ("kind",))
        self._m_tasks = m.counter(
            "dayu_tasks_completed_total", "Tasks whose profile is final.")
        self._m_running = m.gauge(
            "dayu_tasks_running", "Tasks currently executing.")
        self._m_ops = m.counter(
            "dayu_io_ops_total", "Low-level I/O operations, by direction.",
            ("op",))
        self._m_bytes = m.counter(
            "dayu_io_bytes_total", "Low-level I/O bytes, by direction.",
            ("op",))
        self._m_latency = m.histogram(
            "dayu_io_latency_seconds", "Per-operation I/O latency.")
        self._m_alerts = m.counter(
            "dayu_lint_alerts_total", "Streaming lint alerts, by rule code.",
            ("code",))
        self._m_task_failures = m.counter(
            "dayu_task_failures_total",
            "Failed task attempts; fatal=true once the retry budget is spent.",
            ("fatal",))
        self._m_task_retries = m.counter(
            "dayu_task_retries_total", "Task attempts beyond the first.")
        self._m_node_failures = m.counter(
            "dayu_node_failures_total", "Nodes lost to fault injection.")
        self._m_dropped = m.gauge(
            "dayu_bus_dropped_total",
            "Events dropped by a full bounded queue, per subscriber.",
            ("subscriber",))
        self._m_sampled = m.gauge(
            "dayu_bus_sampled_out_total",
            "Events elided by 1-in-N sampling, per subscriber.",
            ("subscriber",))
        self.bus.subscribe(
            "metrics", self._observe_metrics, policy=cfg.policy,
            capacity=cfg.bus_capacity, sample_every=cfg.sample_every,
        )
        # Pre-resolved label children for the per-event path; the
        # variable-label ones ({kind}, {op}) fill in lazily.
        self._b_tasks = self._m_tasks.labels()
        self._b_running = self._m_running.labels()
        self._b_latency = self._m_latency.labels()
        self._b_retries = self._m_task_retries.labels()
        self._b_node_failures = self._m_node_failures.labels()
        self._b_failed_fatal = self._m_task_failures.labels(fatal="true")
        self._b_failed_retryable = self._m_task_failures.labels(fatal="false")
        self._b_events: dict = {}
        self._b_ops: dict = {}
        self._finished = False

    # ------------------------------------------------------------------
    # Publishing (called by mapper / tracers / runner)
    # ------------------------------------------------------------------
    def publish(self, event: MonitorEvent) -> None:
        self.bus.publish(event)

    # ------------------------------------------------------------------
    # Subscriber callbacks
    # ------------------------------------------------------------------
    def _alert_raised(self, alert: StreamAlert) -> None:
        self._m_alerts.inc(code=alert.finding.code)
        if self._user_on_alert is not None:
            self._user_on_alert(alert)

    def _observe_metrics(self, event: MonitorEvent) -> None:
        kind = event.kind
        by_kind = self._b_events.get(kind)
        if by_kind is None:
            by_kind = self._b_events[kind] = self._m_events.labels(kind=kind)
        by_kind.inc()
        if kind == "vfd_op":
            op = event.op  # type: ignore[attr-defined]
            by_op = self._b_ops.get(op)
            if by_op is None:
                by_op = self._b_ops[op] = (self._m_ops.labels(op=op),
                                           self._m_bytes.labels(op=op))
            by_op[0].inc()
            by_op[1].inc(event.nbytes)  # type: ignore[attr-defined]
            self._b_latency.observe(event.duration)  # type: ignore[attr-defined]
        elif kind == "task_started":
            self._b_running.inc()
        elif kind == "task_finished":
            self._b_running.dec()
            self._b_tasks.inc()
        elif kind == "task_failed":
            # Attempts that never started never incremented the gauge.
            if event.started:  # type: ignore[attr-defined]
                self._b_running.dec()
            if event.fatal:  # type: ignore[attr-defined]
                self._b_failed_fatal.inc()
            else:
                self._b_failed_retryable.inc()
        elif kind == "task_retried":
            self._b_retries.inc()
        elif kind == "node_failed":
            self._b_node_failures.inc()

    def _sync_bus_gauges(self) -> None:
        for sub in self.bus.subscriptions:
            self._m_dropped.set(sub.dropped, subscriber=sub.name)
            self._m_sampled.set(sub.sampled_out, subscriber=sub.name)

    # ------------------------------------------------------------------
    # Lifecycle / results
    # ------------------------------------------------------------------
    def finish(self) -> "WorkflowMonitor":
        """Drain every queue and finalize streaming lint; idempotent."""
        self.bus.flush()
        if self.streamlint is not None:
            self.streamlint.finalize()
        self._sync_bus_gauges()
        self._finished = True
        return self

    def snapshot_ftg(self) -> nx.DiGraph:
        self.bus.flush()
        return self.aggregator.snapshot_ftg()

    def snapshot_sdg(self) -> nx.DiGraph:
        self.bus.flush()
        return self.aggregator.snapshot_sdg()

    @property
    def dynamics(self) -> DynamicsWindows:
        return self.aggregator.dynamics

    @property
    def alerts(self) -> List[StreamAlert]:
        return list(self.streamlint.alerts) if self.streamlint else []

    @property
    def findings(self) -> List[Finding]:
        """Confirmed streaming-lint findings (drains and finalizes)."""
        if self.streamlint is None:
            return []
        self.bus.flush()
        return self.streamlint.finalize()

    def render_prometheus(self) -> str:
        self._sync_bus_gauges()
        return self.metrics.render_prometheus()

    def metrics_snapshot(self) -> dict:
        self._sync_bus_gauges()
        return self.metrics.snapshot()

    def reconciles(self) -> bool:
        """True when every subscriber's drop accounting balances."""
        return self.bus.reconciles()

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "bus": self.bus.stats(),
            "tasks_finished": len(self.aggregator.tasks_finished),
            "dynamics_keys": len(self.dynamics.keys()),
            "dynamics_evicted_windows": self.dynamics.evicted_windows,
        }
        if self.streamlint is not None:
            out["streamlint"] = self.streamlint.stats()
        return out
