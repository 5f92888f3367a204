"""``repro.monitor`` — live workflow observability (the *dynamics* axis).

Everything else in this repository is post-hoc: tracers write
:class:`~repro.mapper.mapper.TaskProfile` files and ``dayu-analyze`` /
``dayu-lint`` read them back.  This package watches the same signals
*while the workflow runs*:

- :mod:`~repro.monitor.events` — the typed event vocabulary the VOL/VFD
  tracers, the :class:`~repro.mapper.mapper.DataSemanticMapper`, and the
  :class:`~repro.workflow.dscheduler.DataflowRunner` publish.
- :mod:`~repro.monitor.bus` — a bounded in-process pub/sub bus with
  pluggable backpressure (block / drop-with-accounting / 1-in-N
  sampling) and per-subscriber drop counters that always reconcile.
- :mod:`~repro.monitor.aggregate` — the online aggregator: feeds
  finished tasks into the incremental
  :class:`~repro.analyzer.graphs.GraphBuilder` (a live FTG/SDG snapshot
  at any sim-clock instant, byte-identical to the post-hoc build at
  completion) and maintains per-interval bytes/ops/latency series keyed
  by ``(task, dataset)`` — the paper's temporal axis.
- :mod:`~repro.monitor.streamlint` — streaming lint: the registered
  DY2xx (and opt-in DY501–503) rule bodies run online over incrementally
  folded access digests, plus DY302's record check, raising alerts
  mid-run with the batch engine's wording and fingerprints.
- :mod:`~repro.monitor.export` — counters/gauges/histograms rendered as
  Prometheus text exposition or JSON snapshots.
- :mod:`~repro.monitor.monitor` — :class:`WorkflowMonitor`, the facade
  wiring all of the above onto one bus; ``dayu-monitor`` is its CLI.
"""

from repro.monitor.aggregate import DynamicsWindows, LiveAggregator, WindowStats
from repro.monitor.bus import (
    MONITOR_ACCOUNT,
    Backpressure,
    EventBus,
    Subscription,
)
from repro.monitor.events import (
    CRITICAL_KINDS,
    DatasetAccess,
    DatasetClosed,
    DatasetOpened,
    FileClosed,
    FileOpened,
    MonitorEvent,
    StageFinished,
    StageStarted,
    TaskFinished,
    TaskReady,
    TaskStarted,
    TaskStolen,
    VfdOp,
)
from repro.monitor.export import Counter, Gauge, Histogram, MetricsRegistry
from repro.monitor.monitor import MonitorConfig, WorkflowMonitor
from repro.monitor.streamlint import StreamAlert, StreamLint

__all__ = [
    "MONITOR_ACCOUNT",
    "Backpressure",
    "EventBus",
    "Subscription",
    "CRITICAL_KINDS",
    "MonitorEvent",
    "TaskStarted",
    "TaskFinished",
    "TaskReady",
    "TaskStolen",
    "StageStarted",
    "StageFinished",
    "FileOpened",
    "FileClosed",
    "DatasetOpened",
    "DatasetClosed",
    "DatasetAccess",
    "VfdOp",
    "LiveAggregator",
    "DynamicsWindows",
    "WindowStats",
    "StreamLint",
    "StreamAlert",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MonitorConfig",
    "WorkflowMonitor",
]
