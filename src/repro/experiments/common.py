"""Shared experiment plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.configs import gpu_cluster
from repro.mapper.config import DaYuConfig
from repro.mapper.mapper import DataSemanticMapper
from repro.simclock import SimClock
from repro.workflow.dscheduler import DataflowRunner

__all__ = ["Env", "fresh_env", "ResultTable"]


@dataclass
class Env:
    """One isolated simulation environment."""

    clock: SimClock
    cluster: Cluster
    mapper: DataSemanticMapper
    runner: DataflowRunner
    #: The attached :class:`repro.monitor.monitor.WorkflowMonitor`, if any.
    monitor: Optional[object] = None


def fresh_env(
    n_nodes: int = 2,
    pins: Optional[Mapping[str, str]] = None,
    config: Optional[DaYuConfig] = None,
    monitor_config: Optional[object] = None,
    monitor: bool = False,
    on_alert=None,
) -> Env:
    """A fresh GPU-cluster environment (BeeGFS shared + node-local SSD).

    The runner runs stage barriers with round-robin placement, the
    paper's baseline; ``pins`` (task → node) go on top.  Pass
    ``monitor=True`` (or a ``monitor_config``) to attach a live
    :class:`~repro.monitor.monitor.WorkflowMonitor` to the mapper.
    """
    clock = SimClock()
    cluster = gpu_cluster(clock, n_nodes=n_nodes)
    mon = None
    if monitor or monitor_config is not None:
        from repro.monitor.monitor import WorkflowMonitor

        mon = WorkflowMonitor(clock, config=monitor_config, on_alert=on_alert)
    mapper = DataSemanticMapper(clock, config or DaYuConfig(), monitor=mon)
    runner = DataflowRunner(cluster, mapper, placement="round_robin",
                            dependency_mode="stage", pins=pins)
    return Env(clock=clock, cluster=cluster, mapper=mapper, runner=runner,
               monitor=mon)


@dataclass
class ResultTable:
    """A labelled table of experiment rows, renderable as Markdown."""

    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, **values: object) -> None:
        missing = set(self.columns) - set(values)
        if missing:
            raise ValueError(f"row missing columns: {sorted(missing)}")
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        return [r[name] for r in self.rows]

    def to_markdown(self) -> str:
        def fmt(v: object) -> str:
            if isinstance(v, float):
                return f"{v:.4g}"
            return str(v)

        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(row[c]) for c in self.columns) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)
