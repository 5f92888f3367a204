"""Parallel profile loading and sharded FTG/SDG construction.

The offline Workflow Analyzer reads one trace file per task.  For large
workflows the load-and-build step is embarrassingly parallel in two
places:

1. **Parsing** — each saved profile decodes independently; and
2. **Graph construction** — any contiguous shard of the execution-ordered
   profile sequence builds an independent sub-graph whose edge statistics
   merge commutatively (:func:`~repro.analyzer.graphs.merge_edge_stats`).

:class:`ParallelAnalyzer` fans both across a
:class:`concurrent.futures.ProcessPoolExecutor` and merges the shard
graphs **in shard order**, which preserves node/edge first-touch order —
so the merged result is *identical* (byte-for-byte after
:func:`~repro.analyzer.serialize.graph_to_json`) to a serial
:func:`build_ftg`/:func:`build_sdg` over the same profiles.  Per-edge
``io_time`` floats match too: contributions accumulate in lists and are
folded with the correctly-rounded :func:`math.fsum` at finalization.

With ``max_workers=1`` (or a single shard) everything runs in-process —
no pool, no pickling — which is also the fast path on small boxes where
the win comes from ``with_io_records=False`` (columnar traces never
decode the per-op record columns) rather than from fan-out.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence

import networkx as nx

from repro.analyzer.graphs import (
    GraphBuilder,
    _ordered_profiles,
    finalize_graph,
    merge_edge_stats,
)
from repro.mapper.mapper import TaskProfile
from repro.mapper.persist import load_profiles_path, trace_paths

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lint.engine import LintReport
    from repro.lint.rules import LintConfig

__all__ = ["AnalysisResult", "ParallelAnalyzer", "merge_graph_inplace"]


def merge_graph_inplace(target: nx.DiGraph, source: nx.DiGraph) -> nx.DiGraph:
    """Fold one unfinalized shard graph into ``target``, in place.

    Nodes new to ``target`` are adopted with their attributes; nodes
    present on both sides add their ``volume`` (every other shared node
    attribute is shard-invariant).  Edge statistics merge through
    :func:`merge_edge_stats`.  Merging shard graphs in shard order
    reproduces the serial builder's node/edge insertion order exactly.
    """
    for node, attrs in source.nodes(data=True):
        if node in target:
            target.nodes[node]["volume"] += attrs.get("volume", 0)
        else:
            target.add_node(node, **attrs)
    for u, v, attrs in source.edges(data=True):
        data = target.get_edge_data(u, v)
        if data is None:
            target.add_edge(u, v, **attrs)
        else:
            merge_edge_stats(data, attrs)
    return target


def _load_shard(paths: Sequence[str], with_io_records: bool) -> List[TaskProfile]:
    return [profile for p in paths
            for profile in load_profiles_path(
                p, with_io_records=with_io_records)]


def _build_shard(
    profiles: Sequence[TaskProfile],
    seq_base: int,
    kind: str,
    options: dict,
) -> nx.DiGraph:
    builder = GraphBuilder(kind, seq_base=seq_base, **options)
    builder.add_profiles(profiles)
    return builder.graph


def _lint_shard(profiles: Sequence[TaskProfile], config):
    """Worker-side lint unit: per-profile findings + cross-task digests.

    Imports lazily so worker processes only pay for ``repro.lint`` when
    linting is requested (and to keep ``repro.analyzer`` import-light).
    """
    from repro.lint.context import summarize_profile
    from repro.lint.engine import run_profile_rules

    return [(run_profile_rules(p, config),
             summarize_profile(p, config.page_size))
            for p in profiles]


def _diff_shard(profiles: Sequence[TaskProfile], contracts, config):
    """Worker-side drift unit: per-task contract-vs-trace findings.

    The DY45x rules are per-task (summary + that task's contract), so the
    whole join shards; only findings travel back.
    """
    from repro.lint.context import summarize_profile
    from repro.lint.engine import run_drift_rules

    out = []
    for p in profiles:
        summary = summarize_profile(p, config.page_size)
        out.append(run_drift_rules(summary, contracts.get(p.task), config))
    return out


@dataclass
class AnalysisResult:
    """Everything :meth:`ParallelAnalyzer.analyze` produces for one run."""

    profiles: List[TaskProfile]
    ftg: nx.DiGraph
    sdg: nx.DiGraph
    #: Present when :meth:`ParallelAnalyzer.analyze` ran with ``lint=True``.
    lint_report: Optional["LintReport"] = None


class ParallelAnalyzer:
    """Scale-out load + graph construction over saved task profiles.

    Args:
        max_workers: Process-pool width; defaults to ``os.cpu_count()``.
            ``1`` forces the in-process path (no pool, no pickling).
        shard_size: Profiles (or trace files) per shard; defaults to an
            even split across workers.
        with_io_records: Materialize per-operation records when loading.
            Graph construction and the diagnostics never read them, so the
            default ``False`` skips the dominant trace section entirely —
            columnar traces never decode their record columns.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        with_io_records: bool = False,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if shard_size is not None and shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.shard_size = shard_size
        self.with_io_records = with_io_records

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    @property
    def inline(self) -> bool:
        """True when every fan-out point must run in-process.

        ``--jobs 1`` means *no pool spawn, ever* — on single-core CI
        runners the process startup would dwarf the work.  All fan-out
        paths (:meth:`load`, :meth:`_build`, :meth:`lint`, :meth:`diff`)
        route through :meth:`_fan_out` or check this flag directly.
        """
        return self.max_workers <= 1

    def _chunks(self, items: Sequence) -> List[Sequence]:
        size = self.shard_size or max(1, math.ceil(len(items) / self.max_workers))
        return [items[i:i + size] for i in range(0, len(items), size)]

    def _fan_out(self, worker, shards: List[Sequence]) -> List:
        """Run ``worker`` over shards — pooled, or in-process when a pool
        cannot help (one worker / one shard)."""
        if self.inline or len(shards) <= 1:
            return [worker(shard) for shard in shards]
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self.max_workers, len(shards))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, shards))

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, source: str,
             trace_format: str = "auto") -> List[TaskProfile]:
        """Load every saved profile under a host directory, or in one
        trace file, in parallel, ordered by task start time (execution
        order).  Formats are detected from magic bytes, so mixed
        directories work without flags; ``trace_format`` restricts a
        directory to one format when given.  Columnar run files are
        flattened into their profiles."""
        if os.path.isfile(source):
            paths = [source]
        else:
            paths = trace_paths(source, trace_format=trace_format)
        loaded = self._fan_out(
            partial(_load_shard, with_io_records=self.with_io_records),
            self._chunks(paths),
        )
        profiles = [p for shard in loaded for p in shard]
        profiles.sort(key=lambda p: p.span.start)
        return profiles

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _build(
        self,
        kind: str,
        profiles: Iterable[TaskProfile],
        task_order: Optional[Sequence[str]],
        options: dict,
    ) -> nx.DiGraph:
        ordered = _ordered_profiles(profiles, task_order)
        shards = self._chunks(ordered)
        if self.inline or len(shards) <= 1:
            builder = GraphBuilder(kind, **options)
            builder.add_profiles(ordered)
            return builder.build(copy=False)
        seq_bases: List[int] = []
        base = 0
        for shard in shards:
            seq_bases.append(base)
            base += len(shard)
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self.max_workers, len(shards))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            graphs = list(pool.map(
                partial(_build_shard, kind=kind, options=options),
                shards, seq_bases,
            ))
        merged = graphs[0]
        for g in graphs[1:]:
            merge_graph_inplace(merged, g)
        return finalize_graph(merged,
                              with_regions=options.get("with_regions", False))

    def build_ftg(
        self,
        profiles: Iterable[TaskProfile],
        task_order: Optional[Sequence[str]] = None,
    ) -> nx.DiGraph:
        """Sharded :func:`~repro.analyzer.graphs.build_ftg` — same result."""
        return self._build("ftg", profiles, task_order, {})

    def build_sdg(
        self,
        profiles: Iterable[TaskProfile],
        task_order: Optional[Sequence[str]] = None,
        with_regions: bool = False,
        region_bytes: int = 65536,
        page_size: int = 4096,
    ) -> nx.DiGraph:
        """Sharded :func:`~repro.analyzer.graphs.build_sdg` — same result."""
        options = dict(with_regions=with_regions, region_bytes=region_bytes,
                       page_size=page_size)
        return self._build("sdg", profiles, task_order, options)

    # ------------------------------------------------------------------
    # Linting
    # ------------------------------------------------------------------
    def lint(
        self,
        profiles: Sequence[TaskProfile],
        config: Optional["LintConfig"] = None,
        attempts: Optional[Dict[str, int]] = None,
        task_order: Optional[Sequence[str]] = None,
    ) -> "LintReport":
        """Sharded :func:`~repro.lint.engine.lint_profiles` — same report.

        Profile-scoped rules (the DY3xx sanitizer and per-task DY1xx
        checks) shard across the worker pool together with the per-profile
        cross-task digests; only the small findings and digests travel
        back, and the workflow- and race-scoped rules run in-process over
        them.  Race rules reuse the worker-computed summaries, so the
        report (and its fingerprints) is byte-identical to the serial
        :func:`~repro.lint.engine.lint_profiles`.  ``attempts`` feeds the
        DY505 retry-race rule; ``task_order`` is a recovered execution
        order for the DY7xx advisory rules.
        """
        from repro.lint.engine import (
            LintReport,
            run_race_rules,
            run_workflow_rules,
        )
        from repro.lint.findings import Finding
        from repro.lint.race import build_trace_race_context
        from repro.lint.rules import LintConfig

        config = config or LintConfig()
        profiles = list(profiles)
        results = self._fan_out(partial(_lint_shard, config=config),
                                self._chunks(profiles))
        findings = []
        summaries = []
        for shard in results:
            for shard_findings, summary in shard:
                findings.extend(shard_findings)
                summaries.append(summary)
        findings.extend(run_workflow_rules(profiles, config,
                                           summaries=summaries,
                                           task_order=task_order))
        if config.enabled_rules(scope="race"):
            ctx = build_trace_race_context(profiles, config,
                                           summaries=summaries,
                                           attempts=attempts)
            findings.extend(run_race_rules(ctx, config))
        findings.sort(key=Finding.sort_key)
        return LintReport(findings=findings,
                          tasks=sorted(p.task for p in profiles))

    def lint_run(
        self,
        source: str,
        config: Optional["LintConfig"] = None,
        stats_out: Optional[dict] = None,
        attempts: Optional[Dict[str, int]] = None,
    ) -> "LintReport":
        """:meth:`lint` over the profiles of a trace file or directory
        (e.g. a compacted ``.dayuc`` run), loaded in start order.

        Pass ``stats_out`` (a dict) to receive ``rules_evaluated`` (rule
        evaluations run), ``n_groups`` (profiles linted) and
        ``rules_skipped`` (always 0: every enabled rule runs).
        """
        from repro.lint.rules import LintConfig

        config = config or LintConfig()
        profiles = self.load(source)
        if stats_out is not None:
            def n_rules(scope: str) -> int:
                return len(config.enabled_rules(scope=scope))

            stats_out.update(
                rules_evaluated=(len(profiles) * n_rules("profile")
                                 + n_rules("workflow") + n_rules("race")),
                rules_skipped=0, n_groups=len(profiles))
        return self.lint(profiles, config, attempts=attempts)

    def diff(
        self,
        profiles: Sequence[TaskProfile],
        contracts: Dict[str, object],
        config: Optional["LintConfig"] = None,
    ) -> "LintReport":
        """Sharded :func:`~repro.lint.engine.diff_profiles` — same report.

        The drift (DY45x) join is per-task, so summaries and rule
        evaluation both run in the worker pool; the serial part is just
        the deterministic sort.  ``contracts`` maps task name to its
        effective :class:`~repro.workflow.contracts.TaskContract`.
        """
        from repro.lint.engine import LintReport
        from repro.lint.findings import Finding
        from repro.lint.rules import LintConfig

        config = config or LintConfig()
        profiles = list(profiles)
        results = self._fan_out(
            partial(_diff_shard, contracts=dict(contracts), config=config),
            self._chunks(profiles))
        findings = [f for shard in results
                    for task_findings in shard
                    for f in task_findings]
        findings.sort(key=Finding.sort_key)
        return LintReport(findings=findings,
                          tasks=sorted(p.task for p in profiles))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def analyze(
        self,
        directory: str,
        task_order: Optional[Sequence[str]] = None,
        with_regions: bool = False,
        region_bytes: int = 65536,
        page_size: int = 4096,
        lint: bool = False,
        lint_config: Optional["LintConfig"] = None,
    ) -> AnalysisResult:
        """Load a trace directory and build both graphs (and, optionally,
        the lint report in the same pass)."""
        profiles = self.load(directory)
        ftg = self.build_ftg(profiles, task_order)
        sdg = self.build_sdg(profiles, task_order, with_regions=with_regions,
                             region_bytes=region_bytes, page_size=page_size)
        lint_report = self.lint(profiles, lint_config) if lint else None
        return AnalysisResult(profiles=profiles, ftg=ftg, sdg=sdg,
                              lint_report=lint_report)
