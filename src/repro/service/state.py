"""Per-run incremental analysis state for the query plane.

One :class:`RunState` per live run: it folds uploaded profiles into the
same incremental :class:`~repro.analyzer.graphs.GraphBuilder` the
offline analyzer and the PR 4 :class:`~repro.monitor.aggregate.LiveAggregator`
use, keeps each task's lint unit, and memoizes the rendered query
payloads (canonical FTG/SDG JSON, lint findings JSON) between ingests so
a hot ``GET`` is a dict lookup, not a graph rebuild.

**Determinism.**  The offline reference pipeline — ``dayu-compact`` over
a trace directory, then ``dayu-analyze --graph-json --lint`` — orders
profiles by task start time (ties: sorted trace filename, i.e. task
name).  Upload *arrival* order under many concurrent clients is
nondeterministic, so the state places every profile by the same total
key ``(span.start, task)`` regardless of arrival.  Each profile is
folded into both builders exactly once, under that key: the builders
accept any order and emit the graph an in-order fold would build (see
:class:`~repro.analyzer.graphs.GraphBuilder`).  Lint splits the same
way — each task's :func:`~repro.lint.engine.lint_unit` (its
profile-scoped findings and cross-task digest) is computed once, and a
findings query only runs :func:`~repro.lint.engine.finish_lint`'s
cross-task rules over the canonically ordered units.  Every query thus
observes the canonical order, which is what makes service-built graphs
and findings byte-identical to the offline pipeline for any seeded
interleaving of uploading clients.

Lint mirrors ``dayu-analyze --lint``: profiles decoded without
per-operation records, default :class:`~repro.lint.rules.LintConfig`,
findings serialized by :meth:`~repro.lint.engine.LintReport.to_json` —
with the tenant baseline applied first when one is installed (the
``dayu-lint --baseline`` semantics).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set, Tuple

from repro.analyzer.graphs import GraphBuilder

__all__ = ["RunState"]


def _key(profile) -> Tuple[float, str]:
    return (profile.span.start, profile.task)


class RunState:
    """Incrementally folded FTG/SDG and lint units + memoized renderings."""

    def __init__(self, profiles: Optional[List] = None) -> None:
        #: Profiles in canonical (start, task) order.
        self.profiles: List = []
        self._keys: List[Tuple[float, str]] = []
        self.tasks: Set[str] = set()
        self._ftg = GraphBuilder("ftg")
        self._sdg = GraphBuilder("sdg")
        #: Added profiles not yet folded into the builders.
        self._pending: List = []
        #: task -> its lint unit under the default config.
        self._lint_units: Dict[str, tuple] = {}
        #: Bumped on every ingest; keys the render memo.
        self.version = 0
        self._rendered: Dict[object, str] = {}
        if profiles:
            self.add_profiles(profiles)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add_profiles(self, profiles) -> int:
        """Add new profiles; duplicate tasks are ignored (idempotent
        re-upload).  Returns the number actually added."""
        added = 0
        for profile in profiles:
            if profile.task in self.tasks:
                continue
            key = _key(profile)
            idx = bisect.bisect_left(self._keys, key)
            self._keys.insert(idx, key)
            self.profiles.insert(idx, profile)
            self.tasks.add(profile.task)
            self._pending.append(profile)
            added += 1
        if added:
            self.version += 1
            self._rendered.clear()
        return added

    def _fold(self) -> None:
        """Fold each pending profile into both builders, once.  A batch
        folds in key order, so a run recovered from the store needs no
        reordering at build time."""
        for profile in sorted(self._pending, key=_key):
            key = _key(profile)
            self._ftg.add_profile(profile, key=key)
            self._sdg.add_profile(profile, key=key)
        self._pending.clear()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot_ftg(self):
        self._fold()
        return self._ftg.build(copy=True)

    def snapshot_sdg(self):
        self._fold()
        return self._sdg.build(copy=True)

    # ------------------------------------------------------------------
    # Rendered query payloads (memoized per version)
    # ------------------------------------------------------------------
    def graph_json(self, kind: str) -> str:
        """Canonical ``ftg``/``sdg`` JSON — byte-identical to
        ``dayu-analyze --graph-json`` over the same profiles."""
        cached = self._rendered.get(kind)
        if cached is None:
            from repro.analyzer.serialize import graph_to_json

            graph = (self.snapshot_ftg() if kind == "ftg"
                     else self.snapshot_sdg())
            cached = self._rendered[kind] = graph_to_json(graph) + "\n"
        return cached

    def findings_json(self, baseline: Optional[Set[str]] = None,
                      baseline_version: int = 0) -> str:
        """Lint report JSON — byte-identical to ``dayu-analyze --lint``'s
        ``lint.json`` (after tenant-baseline suppression, if any)."""
        memo = ("findings", baseline_version)
        cached = self._rendered.get(memo)
        if cached is None:
            from repro.lint import LintConfig
            from repro.lint.engine import finish_lint, lint_unit

            config = LintConfig()
            units = self._lint_units
            for profile in self.profiles:
                if profile.task not in units:
                    units[profile.task] = lint_unit(profile, config)
            report = finish_lint(
                self.profiles, [units[p.task] for p in self.profiles],
                config)
            if baseline:
                report = report.apply_baseline(baseline)
            cached = self._rendered[memo] = report.to_json()
        return cached

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """The ``/runs`` row for this run."""
        return {
            "profiles": len(self.profiles),
            "tasks": sorted(self.tasks),
            "version": self.version,
        }
