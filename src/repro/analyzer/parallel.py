"""Parallel trace decoding in front of the one serial analysis path.

The offline Workflow Analyzer reads one trace file per task, and each
file decodes independently.  :class:`ParallelAnalyzer` fans the decode
across a :class:`concurrent.futures.ProcessPoolExecutor`: a worker
receives trace *paths*, not decoded profiles, so only the results cross
a process boundary.  Everything after decoding — FTG/SDG construction,
lint and the DY45x drift join — runs in-process through
:func:`~repro.analyzer.graphs.build_ftg`,
:func:`~repro.analyzer.graphs.build_sdg`,
:func:`~repro.lint.engine.lint_profiles` and
:func:`~repro.lint.engine.diff_profiles`.  Folding a decoded profile
costs far less than pickling it to a worker, so those steps never gain
from a pool.

With ``max_workers=1`` decoding runs in-process too — no pool, no
pickling — which is also the fast path on small boxes where the win
comes from ``with_io_records=False`` (columnar traces never decode the
per-op record columns) rather than from fan-out.
"""

from __future__ import annotations

import math
import os
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence

import networkx as nx

from repro.analyzer.graphs import build_ftg, build_sdg
from repro.mapper.mapper import TaskProfile
from repro.mapper.persist import load_profiles_path, trace_paths

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lint.engine import LintReport
    from repro.lint.rules import LintConfig

__all__ = ["ParallelAnalyzer"]


def _load_shard(paths: Sequence[str], with_io_records: bool) -> List[TaskProfile]:
    return [profile for p in paths
            for profile in load_profiles_path(
                p, with_io_records=with_io_records)]


class ParallelAnalyzer:
    """Pooled trace decoding plus the serial analyses over its profiles.

    Args:
        max_workers: Decode process-pool width; defaults to
            ``os.cpu_count()``.  ``1`` forces the in-process path (no
            pool, no pickling).
        with_io_records: Materialize per-operation records when loading.
            Graph construction and the diagnostics never read them, so the
            default ``False`` skips the dominant trace section entirely —
            columnar traces never decode their record columns.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        with_io_records: bool = False,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.with_io_records = with_io_records

    @property
    def inline(self) -> bool:
        """True when decoding runs in-process.

        ``--jobs 1`` means *no pool spawn, ever* — on single-core CI
        runners the process startup would dwarf the work.
        """
        return self.max_workers <= 1

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
        size = max(1, math.ceil(len(paths) / self.max_workers))
        shards = [paths[i:i + size] for i in range(0, len(paths), size)]
        decode = partial(_load_shard, with_io_records=self.with_io_records)
        if self.inline or len(shards) <= 1:
            loaded = [decode(shard) for shard in shards]
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=len(shards)) as pool:
                loaded = list(pool.map(decode, shards))
        profiles = [p for shard in loaded for p in shard]
        profiles.sort(key=lambda p: p.span.start)
        return profiles

    # The analyses run in-process; these delegates keep the analyzer a
    # one-object front end for callers that hold one.
    def build_ftg(self, profiles: Iterable[TaskProfile],
                  task_order: Optional[Sequence[str]] = None) -> nx.DiGraph:
        """:func:`~repro.analyzer.graphs.build_ftg`."""
        return build_ftg(profiles, task_order)

    def build_sdg(self, profiles: Iterable[TaskProfile],
                  task_order: Optional[Sequence[str]] = None,
                  **options) -> nx.DiGraph:
        """:func:`~repro.analyzer.graphs.build_sdg`."""
        return build_sdg(profiles, task_order, **options)

    def lint(self, profiles: Sequence[TaskProfile],
             config: Optional["LintConfig"] = None,
             attempts: Optional[Dict[str, int]] = None,
             task_order: Optional[Sequence[str]] = None) -> "LintReport":
        """:func:`~repro.lint.engine.lint_profiles`."""
        from repro.lint.engine import lint_profiles

        return lint_profiles(profiles, config, attempts, task_order)

    def diff(self, profiles: Sequence[TaskProfile],
             contracts: Dict[str, object],
             config: Optional["LintConfig"] = None) -> "LintReport":
        """:func:`~repro.lint.engine.diff_profiles`."""
        from repro.lint.engine import diff_profiles

        return diff_profiles(profiles, contracts, config)

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
