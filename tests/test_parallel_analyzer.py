"""Incremental/parallel graph construction: the span helpers, the
commutative edge-stat merge, largest-remainder region apportionment,
GraphBuilder, and ParallelAnalyzer equivalence with the serial builders
on real workloads."""

import pytest

from repro.analyzer import (
    GraphBuilder,
    ParallelAnalyzer,
    RunSummary,
    build_ftg,
    build_sdg,
    compare_runs,
    graph_to_json,
    merge_edge_stats,
    opt_max,
    opt_min,
    summarize_run,
)
from repro.analyzer.graphs import _apportion
from repro.mapper.mapper import TaskProfile
from repro.mapper.stats import DatasetIoStats
from repro.simclock import TimeSpan
from tests.test_workloads import run_workload


def make_stats(task, file="/pfs/f.h5", obj="/d", **kw):
    s = DatasetIoStats(task=task, file=file, data_object=obj)
    for name, value in kw.items():
        setattr(s, name, value)
    return s


def make_profile(task, t, stats):
    return TaskProfile(task=task, span=TimeSpan(float(t), float(t) + 1.0),
                       files=sorted({s.file for s in stats}),
                       object_profiles=[], file_sessions=[], io_records=[],
                       dataset_stats=stats)


class TestSpanHelpers:
    def test_none_is_identity(self):
        assert opt_min(None, 3.0) == 3.0
        assert opt_min(3.0, None) == 3.0
        assert opt_max(None, -1) == -1
        assert opt_max(-1, None) == -1
        assert opt_min(None, None) is None
        assert opt_max(None, None) is None

    def test_plain_min_max(self):
        assert opt_min(2.0, 5.0) == 2.0
        assert opt_max(2.0, 5.0) == 5.0
        # zero is a real observation, not a missing one
        assert opt_min(0.0, 5.0) == 0.0
        assert opt_max(0.0, -5.0) == 0.0


class TestMergeEdgeStats:
    def delta(self, **kw):
        d = {"count": 0, "volume": 0, "data_ops": 0, "data_bytes": 0,
             "metadata_ops": 0, "metadata_bytes": 0, "start": None,
             "end": None, "_io_times": []}
        d.update(kw)
        return d

    def test_commutative(self):
        a = self.delta(count=2, volume=100, start=1.0, end=2.0,
                       _io_times=[0.1])
        b = self.delta(count=3, volume=50, start=0.5, end=5.0,
                       _io_times=[0.2, 0.3])
        ab = merge_edge_stats(merge_edge_stats({}, dict(a)), dict(b))
        ba = merge_edge_stats(merge_edge_stats({}, dict(b)), dict(a))
        ab["_io_times"] = sorted(ab["_io_times"])
        ba["_io_times"] = sorted(ba["_io_times"])
        assert ab == ba
        assert ab["count"] == 5 and ab["volume"] == 150
        assert ab["start"] == 0.5 and ab["end"] == 5.0

    def test_none_spans_do_not_shadow(self):
        a = self.delta(start=None, end=None)
        b = self.delta(start=2.0, end=3.0)
        merged = merge_edge_stats(merge_edge_stats({}, a), b)
        assert merged["start"] == 2.0 and merged["end"] == 3.0


class TestApportionment:
    def test_conserves_total(self):
        for total in (0, 1, 7, 100, 12345):
            for weights in ([1], [1, 1, 1], [5, 3, 1], [1, 0, 2],
                            [97, 1, 1, 1]):
                shares = _apportion(total, weights)
                assert sum(shares) == total, (total, weights)
                assert all(x >= 0 for x in shares)

    def test_proportionality(self):
        assert _apportion(100, [3, 1]) == [75, 25]
        assert _apportion(10, [1, 1, 1]) in ([4, 3, 3], [3, 4, 3])
        # a zero weight never receives anything
        assert _apportion(9, [0, 3])[0] == 0

    def test_region_edges_conserve_stats(self):
        # One dataset spread over three far-apart regions with uneven
        # page-op counts: per-region slices must sum back exactly.
        s = make_stats("t0", reads=7, writes=5, bytes_read=7001,
                       bytes_written=4999, data_ops=9, data_bytes=12000,
                       metadata_ops=3, metadata_bytes=300, io_time=0.25,
                       first_start=0.0, last_end=1.0)
        s.regions = {0: 4, 1: 1, 64: 2, 129: 1}  # regions 0, 4, 8 @16 ppr
        p = make_profile("t0", 0, [s])
        g = build_sdg([p], with_regions=True, region_bytes=65536,
                      page_size=4096)
        d = "dataset:/pfs/f.h5:/d"
        region_out = [g.edges[d, v] for v in g.successors(d)
                      if g.nodes[v]["kind"] == "region"]
        region_in = [g.edges[u, d] for u in g.predecessors(d)
                     if g.nodes[u]["kind"] == "region"]
        assert len(region_out) == 3
        assert sum(e["count"] for e in region_out) == s.writes
        assert sum(e["volume"] for e in region_out) == s.bytes_written
        assert sum(e["count"] for e in region_in) == s.reads
        assert sum(e["volume"] for e in region_in) == s.bytes_read
        assert sum(e["metadata_ops"] for e in region_in) == s.metadata_ops
        assert sum(e["io_time"] for e in region_in) == pytest.approx(s.io_time)


class TestGraphBuilder:
    def profiles(self):
        out = []
        for t in range(6):
            stats = [
                make_stats(f"t{t}", file=f"/pfs/f{(t + j) % 3}.h5",
                           obj=f"/d{j}", reads=2 + j, bytes_read=100 * (j + 1),
                           writes=t % 2, bytes_written=50 * (t % 2),
                           data_ops=2, data_bytes=80, io_time=0.01,
                           first_start=float(t), last_end=float(t) + 0.5)
                for j in range(3)
            ]
            out.append(make_profile(f"t{t}", t, stats))
        return out

    def test_incremental_equals_batch(self):
        profiles = self.profiles()
        builder = GraphBuilder("sdg", with_regions=False)
        for p in profiles:
            builder.add_profile(p)
        assert graph_to_json(builder.build()) == \
               graph_to_json(build_sdg(profiles))

    def test_build_then_keep_adding(self):
        profiles = self.profiles()
        builder = GraphBuilder("ftg")
        builder.add_profiles(profiles[:3])
        early = builder.build()  # copy semantics: builder stays usable
        assert graph_to_json(early) == graph_to_json(build_ftg(profiles[:3]))
        builder.add_profiles(profiles[3:])
        assert graph_to_json(builder.build()) == \
               graph_to_json(build_ftg(profiles))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            GraphBuilder("dag")

    @pytest.mark.parametrize("kind,options", [
        ("ftg", {}),
        ("sdg", {}),
        ("sdg", {"with_regions": True}),
    ], ids=["ftg", "sdg", "sdg-regions"])
    def test_any_fold_order_builds_the_in_order_graph(
            self, kind, options, pyflextrkr_profiles, ddmd_profiles):
        import random

        for profiles in (pyflextrkr_profiles, ddmd_profiles,
                         self.profiles()):
            ordered = sorted(profiles, key=lambda p: (p.span.start, p.task))
            builder = GraphBuilder(kind, **options)
            builder.add_profiles(ordered)
            reference = graph_to_json(builder.build())
            for seed in range(4):
                shuffled = list(ordered)
                random.Random(seed).shuffle(shuffled)
                keyed = GraphBuilder(kind, **options)
                for i, p in enumerate(shuffled):
                    keyed.add_profile(p, key=(p.span.start, p.task))
                    if i % 2:  # builds in between leave the fold intact
                        keyed.build()
                assert graph_to_json(keyed.build()) == reference, seed
                assert graph_to_json(keyed.build(copy=False)) == reference

    def test_keys_in_order_fold_the_unkeyed_graph(self):
        profiles = self.profiles()
        keyed = GraphBuilder("sdg")
        for p in profiles:
            keyed.add_profile(p, key=(p.span.start, p.task))
        assert graph_to_json(keyed.build()) == \
               graph_to_json(build_sdg(profiles))

    def test_keys_for_every_profile_or_none(self):
        a, b = self.profiles()[:2]
        builder = GraphBuilder("ftg")
        builder.add_profile(a)
        with pytest.raises(ValueError, match="every profile or for none"):
            builder.add_profile(b, key=(b.span.start, b.task))
        keyed = GraphBuilder("ftg")
        keyed.add_profile(a, key=(a.span.start, a.task))
        with pytest.raises(ValueError, match="every profile or for none"):
            keyed.add_profile(b)


@pytest.fixture(scope="module")
def pyflextrkr_profiles():
    from repro.workloads import (PyflextrkrParams, build_pyflextrkr,
                                 prepare_pyflextrkr_inputs)

    params = PyflextrkrParams(n_files=4, grid=512, n_parallel=2,
                              small_datasets=16, speed_reads=3)
    _, mapper, _ = run_workload(build_pyflextrkr, params,
                                prepare=prepare_pyflextrkr_inputs)
    return list(mapper.profiles.values())


@pytest.fixture(scope="module")
def ddmd_profiles():
    from repro.workloads import DdmdParams, build_ddmd

    params = DdmdParams(n_sim_tasks=4, frames=32, epochs=6)
    _, mapper, _ = run_workload(build_ddmd, params)
    return list(mapper.profiles.values())


class TestParallelAnalyzer:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pyflextrkr_graphs_identical(self, pyflextrkr_profiles, workers,
                                         tmp_path):
        self._check(pyflextrkr_profiles, workers, tmp_path)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ddmd_graphs_identical(self, ddmd_profiles, workers, tmp_path):
        self._check(ddmd_profiles, workers, tmp_path)

    def _check(self, profiles, workers, tmp_path):
        for p in profiles:
            (tmp_path / f"{p.task}.dayuc").write_bytes(
                p.serialize_columnar())
        ordered = sorted(profiles, key=lambda p: p.span.start)
        serial_ftg = graph_to_json(build_ftg(ordered))
        serial_sdg = graph_to_json(build_sdg(ordered, with_regions=True,
                                             region_bytes=65536))
        analyzer = ParallelAnalyzer(max_workers=workers)
        loaded = analyzer.load(str(tmp_path))
        assert [p.task for p in loaded] == [p.task for p in ordered]
        assert graph_to_json(analyzer.build_ftg(loaded)) == serial_ftg
        assert graph_to_json(analyzer.build_sdg(
            loaded, with_regions=True, region_bytes=65536)) == serial_sdg

    def test_mixed_formats_with_tied_starts_load_alike(
            self, pyflextrkr_profiles, tmp_path):
        """The decode pool is the one step whose width could change the
        output: a directory mixing JSON and columnar traces, with tasks
        sharing a start time, loads into the same sequence at any
        width, so graphs and lint agree byte for byte."""
        import dataclasses

        from repro.lint import lint_profiles

        ordered = sorted(pyflextrkr_profiles, key=lambda p: p.span.start)
        tied = [dataclasses.replace(
                    p, span=TimeSpan(ordered[i - i % 3].span.start,
                                     p.span.end))
                for i, p in enumerate(ordered)]
        # Paths sort even positions first, so every group of tied tasks
        # straddles the two decode shards and keeps the paths' order.
        for i, p in enumerate(tied):
            name = f"{i % 2}-{i:03d}-{p.task}"
            if i // 2 % 2:
                (tmp_path / f"{name}.dayuc").write_bytes(
                    p.serialize_columnar())
            else:
                (tmp_path / f"{name}.json").write_bytes(p.serialize())
        outputs = []
        for workers in (1, 2):
            loaded = ParallelAnalyzer(max_workers=workers,
                                      with_io_records=True).load(
                                          str(tmp_path))
            outputs.append((
                [p.task for p in loaded],
                graph_to_json(build_ftg(loaded)),
                graph_to_json(build_sdg(loaded, with_regions=True)),
                lint_profiles(loaded).to_json(),
            ))
        assert len({p.span.start for p in tied}) < len(tied)
        assert len(outputs[0][0]) == len(tied)
        assert outputs[0] == outputs[1]

    def test_load_skips_records_by_default(self, pyflextrkr_profiles,
                                           tmp_path):
        for p in pyflextrkr_profiles:
            (tmp_path / f"{p.task}.dayuc").write_bytes(
                p.serialize_columnar())
        loaded = ParallelAnalyzer(max_workers=1).load(str(tmp_path))
        assert all(p.io_records == [] for p in loaded)
        assert any(p.dataset_stats for p in loaded)
        full = ParallelAnalyzer(max_workers=1,
                                with_io_records=True).load(str(tmp_path))
        assert sum(len(p.io_records) for p in full) == \
               sum(len(p.io_records) for p in pyflextrkr_profiles)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ParallelAnalyzer(max_workers=0)


class TestRunSummary:
    def test_summary_equivalent_to_profiles(self, ddmd_profiles):
        baseline = summarize_run(ddmd_profiles)
        assert isinstance(baseline, RunSummary)
        via_summary = compare_runs(baseline, ddmd_profiles)
        via_profiles = compare_runs(ddmd_profiles, ddmd_profiles)
        assert via_summary.task_rows == via_profiles.task_rows
        assert via_summary.file_rows == via_profiles.file_rows
        assert via_summary.total_io_time_delta == 0.0


class TestStatsIndex:
    def test_stats_for_matches_linear_scan(self, pyflextrkr_profiles):
        for p in pyflextrkr_profiles:
            objects = {s.data_object for s in p.dataset_stats}
            for obj in objects:
                want = [s for s in p.dataset_stats if s.data_object == obj]
                assert p.stats_for(obj) == want
            assert p.stats_for("/definitely/not/there") == []
