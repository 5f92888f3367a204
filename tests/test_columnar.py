"""Columnar trace format: fuzzed round-trips, JSON↔binary equivalence,
typed errors on corrupt bytes, bulk graph builds, lint over a compacted
run, format sniffing (and the retired row-binary rejection), file-object
I/O, trace sizes, the config-driven save format, the coalesced page-run
storage behind the region histograms, run compaction, the --jobs 1
inline guarantee, and CLI parity between row traces and a run file."""

import io
import json
import random

import pytest

from repro.analyzer import ParallelAnalyzer, build_ftg, build_sdg, graph_to_json
from repro.analyzer.parallel import ParallelAnalyzer as _PA
from repro.experiments.common import fresh_env
from repro.lint import ADVISORY, LintConfig
from repro.mapper import columnar
from repro.mapper.columnar import (
    COLUMNAR_MAGIC,
    COLUMNAR_TRACE_SUFFIX,
    CorruptTrace,
    RunReader,
    build_graph_from_groups,
    compact_profiles,
    decode_columnar,
    decode_run,
    encode_columnar,
    encode_run,
    is_columnar_trace,
)
from repro.mapper.config import DaYuConfig
from repro.mapper.mapper import DataSemanticMapper, TaskProfile
from repro.mapper.persist import (
    RetiredTraceFormat,
    load_profile,
    load_profiles_path,
    sniff_trace_format,
    trace_paths,
)
from repro.mapper.stats import DatasetIoStats, _coalesce_runs
from repro.simclock import SimClock
from repro.simclock import TimeSpan
from repro.vfd.base import IoClass
from repro.vfd.tracing import FileSession, VfdIoRecord
from repro.vol.tracer import DataObjectProfile
from repro.workloads.registry import WORKLOADS, build_workload


def make_profile(task="t0"):
    """A hand-built profile exercising every serialized field, including
    the awkward ones: None timestamps, unset first_raw_op, negative-able
    floats, unicode names, shared interned strings."""
    file_a = "/pfs/run/μ-data.h5"
    file_b = "/pfs/run/other.h5"
    records = [
        VfdIoRecord(task=task, file=file_a, op="write", offset=0,
                    nbytes=4096, start=1.25, duration=0.5,
                    access_type=IoClass.METADATA, data_object=None),
        VfdIoRecord(task=task, file=file_a, op="read", offset=4096,
                    nbytes=123, start=2.0, duration=0.0,
                    access_type=IoClass.RAW, data_object="/ds/α"),
        VfdIoRecord(task=None, file=file_b, op="write", offset=1 << 40,
                    nbytes=0, start=0.1, duration=1e-9,
                    access_type=IoClass.RAW, data_object="/ds/α"),
    ]
    sessions = [
        FileSession(task=task, file=file_a, open_time=1.0, close_time=3.5,
                    read_ops=1, write_ops=1, read_bytes=123,
                    write_bytes=4096, sequential_ops=1, sequential_raw_ops=1,
                    metadata_ops=1, raw_ops=1, data_objects=["/ds/α"]),
        FileSession(task=task, file=file_b, open_time=4.0, close_time=None),
    ]
    objects = [
        DataObjectProfile(task=task, file=file_a, object_name="/ds/α",
                          acquired=1.0, released=3.0, open_count=2,
                          shape=(64, 128), dtype="float64", layout="chunked",
                          nbytes=64 * 128 * 8, reads=1, writes=0,
                          elements_read=8192),
        DataObjectProfile(task=None, file=file_b, object_name="/empty",
                          acquired=0.0, released=None),
    ]
    full = DatasetIoStats(task=task, file=file_a, data_object="/ds/α",
                          reads=3, writes=2, bytes_read=300, bytes_written=200,
                          data_ops=4, data_bytes=450, metadata_ops=1,
                          metadata_bytes=50, io_time=0.125,
                          first_start=1.5, last_end=2.5, first_raw_op="read")
    full.regions = {0: 2, 1: 2, 7: 1, 1000000: 3}
    bare = DatasetIoStats(task=None, file=file_b, data_object="/empty")
    return TaskProfile(
        task=task,
        span=TimeSpan(0.5, 9.75),
        files=[file_a, file_b],
        object_profiles=objects,
        file_sessions=sessions,
        io_records=records,
        dataset_stats=[full, bare],
    )


# ---------------------------------------------------------------------------
# Randomized profile generator (property-style fuzzing, seeded).

_NAME_POOL = ("plain.h5", "μ-data.h5", "データ.h5", "smörgås.h5", "a b.h5")
_DS_POOL = ("/ds0", "/ds/α", "/グループ/x", None)
_DTYPES = ("", "float64", "vlen-str", "int32")
_LAYOUTS = ("", "contiguous", "chunked")


def _rand_stats(rng, task, file):
    s = DatasetIoStats(
        task=task, file=file,
        data_object=rng.choice(_DS_POOL) or "/empty",
        reads=rng.randrange(0, 5),
        writes=rng.randrange(0, 5),
        bytes_read=rng.choice((0, 123, 1 << 20, (1 << 64) + 7)),
        bytes_written=rng.randrange(0, 1 << 16),
        data_ops=rng.randrange(0, 8),
        data_bytes=rng.randrange(0, 1 << 20),
        metadata_ops=rng.randrange(0, 4),
        metadata_bytes=rng.randrange(0, 512),
        io_time=rng.choice((0.0, 0.125, 1 / 3)),
        first_start=rng.choice((None, 0.0, 2.5)),
        last_end=rng.choice((None, 9.75)),
        first_raw_op=rng.choice((None, "read", "write")),
    )
    if rng.random() < 0.7:
        s.regions = {rng.randrange(0, 1 << 30): rng.randrange(1, 4)
                     for _ in range(rng.randrange(0, 6))}
    return s


def random_profile(rng: random.Random, idx: int) -> TaskProfile:
    """One randomized TaskProfile hitting the codec's corners: empty
    sections, zero-length sessions, >=2**64 ids, non-ASCII names."""
    # Profile-level task stays set (the mapper always names tasks; graphs
    # key nodes on it) — record/object-level task=None is fuzzed below.
    task = f"täsk-{idx:03d}"
    n_files = rng.randrange(0, 4)
    files = [f"/pfs/ランダム/{idx}/{rng.choice(_NAME_POOL)}-{i}"
             for i in range(n_files)]
    records, sessions, objects, stats = [], [], [], []
    for f in files:
        for _ in range(rng.randrange(0, 4)):
            records.append(VfdIoRecord(
                task=rng.choice((task, None)), file=f,
                op=rng.choice(("read", "write")),
                offset=rng.choice((0, 4096, (1 << 64) + 13)),
                nbytes=rng.choice((0, 1, 4096)),
                start=rng.choice((0.0, 1.25, 1e-9)),
                duration=rng.choice((0.0, 1e-9, 0.5)),
                access_type=rng.choice((IoClass.RAW, IoClass.METADATA)),
                data_object=rng.choice(_DS_POOL),
            ))
        if rng.random() < 0.8:
            open_t = rng.choice((0.0, 1.0))
            sessions.append(FileSession(
                task=task, file=f, open_time=open_t,
                # zero-length and still-open sessions both legal
                close_time=rng.choice((None, open_t, open_t + 2.5)),
                read_ops=rng.randrange(0, 3),
                write_ops=rng.randrange(0, 3),
                read_bytes=rng.randrange(0, 1 << 12),
                write_bytes=rng.randrange(0, 1 << 12),
                sequential_ops=rng.randrange(0, 3),
                sequential_raw_ops=rng.randrange(0, 3),
                metadata_ops=rng.randrange(0, 3),
                raw_ops=rng.randrange(0, 3),
                data_objects=[d for d in _DS_POOL[:rng.randrange(0, 3)]
                              if d is not None],
            ))
        if rng.random() < 0.8:
            objects.append(DataObjectProfile(
                task=rng.choice((task, None)), file=f,
                object_name=rng.choice(_DS_POOL) or "/empty",
                acquired=0.5, released=rng.choice((None, 3.0)),
                open_count=rng.randrange(0, 3),
                shape=rng.choice(((), (64,), (64, 128), (1 << 40,))),
                dtype=rng.choice(_DTYPES),
                layout=rng.choice(_LAYOUTS),
                nbytes=rng.choice((0, 8192, (1 << 64) + 1)),
                reads=rng.randrange(0, 3),
                writes=rng.randrange(0, 3),
                elements_read=rng.randrange(0, 1 << 14),
                elements_written=rng.randrange(0, 1 << 14),
            ))
        for _ in range(rng.randrange(0, 3)):
            stats.append(_rand_stats(rng, task, f))
    start = float(idx)
    return TaskProfile(
        task=task,
        span=TimeSpan(start, start + rng.choice((0.0, 1.0, 9.75))),
        files=files,
        object_profiles=objects,
        file_sessions=sessions,
        io_records=records,
        dataset_stats=stats,
    )


def assert_profiles_equal(a: TaskProfile, b: TaskProfile) -> None:
    assert a.to_json_dict() == b.to_json_dict()
    assert a.io_records == b.io_records
    assert a.object_profiles == b.object_profiles
    # DatasetIoStats.__eq__ skips the run list (compare=False) — check it.
    for sa, sb in zip(a.dataset_stats, b.dataset_stats):
        assert sa.region_runs() == sb.region_runs()
        assert sa.regions == sb.regions


class TestFuzzRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_single_profile(self, seed):
        rng = random.Random(seed)
        for idx in range(6):
            p = random_profile(rng, idx)
            q = decode_columnar(encode_columnar(p))
            assert_profiles_equal(p, q)

    @pytest.mark.parametrize("seed", (101, 202, 303))
    def test_run_of_many(self, seed):
        rng = random.Random(seed)
        profiles = [random_profile(rng, i) for i in range(10)]
        back = decode_run(encode_run(profiles))
        assert len(back) == len(profiles)
        for p, q in zip(profiles, back):
            assert_profiles_equal(p, q)

    def test_handbuilt_profile(self):
        p = make_profile()
        assert_profiles_equal(p, decode_columnar(encode_columnar(p)))

    def test_none_task_profile(self):
        # A None task round-trips as None, not as "".
        p = TaskProfile(task=None, span=TimeSpan(0.0, 1.0), files=[],
                        object_profiles=[], file_sessions=[], io_records=[],
                        dataset_stats=[])
        q = decode_columnar(encode_columnar(p))
        assert q.task is None

    def test_empty_profile_and_empty_run(self):
        p = TaskProfile(task="empty", span=TimeSpan(0.0, 0.0), files=[],
                        object_profiles=[], file_sessions=[], io_records=[],
                        dataset_stats=[])
        assert_profiles_equal(p, decode_columnar(encode_columnar(p)))
        assert decode_run(encode_run([])) == []

    def test_records_skipped(self):
        p = make_profile()
        q = decode_columnar(encode_columnar(p), with_io_records=False)
        assert q.io_records == []
        want, got = p.to_json_dict(), q.to_json_dict()
        want.pop("io_records")
        got.pop("io_records")
        assert want == got

    def test_json_loader_honors_flag_too(self):
        p = make_profile()
        q = load_profile(p.serialize(), with_io_records=False)
        assert q.io_records == []
        assert len(q.dataset_stats) == len(p.dataset_stats)

    def test_dataclass_level_equality(self):
        p = make_profile()
        q = decode_columnar(encode_columnar(p))
        assert q.io_records == p.io_records
        assert [s.to_json_dict() for s in q.file_sessions] == \
               [s.to_json_dict() for s in p.file_sessions]
        assert q.object_profiles == p.object_profiles
        for a, b in zip(q.dataset_stats, p.dataset_stats):
            assert a.regions == b.regions
            assert a.first_raw_op == b.first_raw_op
            assert a.first_start == b.first_start and a.last_end == b.last_end

    def test_binary_vs_json_loaders_agree(self):
        p = make_profile()
        via_binary = load_profile(encode_columnar(p))
        via_json = load_profile(p.serialize())
        assert via_binary.to_json_dict() == via_json.to_json_dict()

    def test_float_exactness(self):
        p = make_profile()
        p.span = TimeSpan(1 / 3, 2 / 3)
        p.dataset_stats[0].io_time = 0.1 + 0.2  # not exactly 0.3
        q = decode_columnar(encode_columnar(p))
        assert q.span.start == p.span.start
        assert q.dataset_stats[0].io_time == p.dataset_stats[0].io_time

    def test_decode_columnar_rejects_multi_group(self):
        p, q = make_profile("t0"), make_profile("t1")
        with pytest.raises(ValueError):
            decode_columnar(encode_run([p, q]))

    def test_corrupt_rejected(self):
        blob = encode_columnar(make_profile())
        with pytest.raises(CorruptTrace):
            RunReader.from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(CorruptTrace):
            RunReader.from_bytes(blob[:-20] + b"\x00" * 16 + COLUMNAR_MAGIC)


def _mutants(blob: bytes, rng: random.Random, n: int):
    """``n`` copies of ``blob``, each with 1-4 bytes overwritten,
    deleted or inserted at random positions."""
    for _ in range(n):
        data = bytearray(blob)
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(data))
            edit = rng.randrange(3)
            if edit == 0:
                data[pos] = rng.randrange(256)
            elif edit == 1:
                del data[pos]
            else:
                data.insert(pos, rng.randrange(256))
        yield bytes(data)


class TestCorruptBytes:
    """Mutated ``.dayuc`` bytes either decode or raise the one typed
    :class:`CorruptTrace` naming the source — never a stray KeyError or
    IndexError from inside a column decoder."""

    def test_seeded_mutations_decode_or_raise_corrupt_trace(self):
        rng = random.Random(1234)
        blob = encode_run([make_profile("t0"), make_profile("t1")])
        outcomes = {"decoded": 0, "rejected": 0}
        for data in _mutants(blob, rng, 2500):
            try:
                decode_run(data, source="fuzz.dayuc")
                reader = RunReader.from_bytes(data, source="fuzz.dayuc")
                for group in reader:
                    group.stats_columns(with_region_runs=True)
                outcomes["decoded"] += 1
            except CorruptTrace as exc:
                assert exc.source == "fuzz.dayuc"
                assert str(exc).startswith("fuzz.dayuc: ")
                outcomes["rejected"] += 1
        assert outcomes["rejected"] > 0 and outcomes["decoded"] > 0

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_stats_column_count_mismatch_raises(self, delta):
        """A stats column shorter or longer than the family's other
        columns is rejected rather than silently zipped short."""
        blob = encode_run([make_profile("t0")])
        group = RunReader.from_bytes(blob, source="odd.dayuc").groups[0]
        meta = group.column_meta("stats", "reads")
        assert meta.count == group.n_rows("stats") == 2
        meta.count += delta
        with pytest.raises(CorruptTrace, match="odd.dayuc"):
            group.to_profile()

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("family,name", [
        ("objprofs", "acquired"), ("sessions", "read_ops"),
        ("stats", "bytes_read"), ("records", "start"),
        ("sessions", "data_objects")])
    def test_footer_count_mismatch_raises(self, family, name, delta):
        """A footer count one off its family's row count (for a
        flattened column: off the sum of its lengths) is rejected, not
        decoded into silently short rows.  A per-row column's count is
        checked when the footer is parsed."""
        writer = columnar._RunWriter()
        writer.add_profile(make_profile("t0"))
        idx = columnar._COLUMN_INDEX[family][name]
        writer._groups[0].families[family][1][idx].count += delta
        out = io.BytesIO()
        writer.write(out)
        data = out.getvalue()
        with pytest.raises(CorruptTrace, match="bad.dayuc"):
            decode_run(data, source="bad.dayuc")
        if name not in columnar._FLAT_COLUMNS[family]:
            with pytest.raises(CorruptTrace, match="counts"):
                RunReader.from_bytes(data, source="bad.dayuc")

    def test_cli_exits_2_naming_the_file(self, tmp_path, capsys):
        from repro.cli import analyze_main
        from repro.lint.cli import lint_main
        from repro.mapper.compact import compact_main

        blob = encode_run([make_profile("t0"), make_profile("t1")])
        bad = next(d for d in _mutants(blob, random.Random(1234), 100)
                   if _raises_corrupt(d))
        path = tmp_path / "traces" / "run.dayuc"
        path.parent.mkdir()
        path.write_bytes(bad)
        for prog, main, argv in (
                ("dayu-analyze", analyze_main,
                 [str(path.parent), "--out", str(tmp_path / "g"),
                  "--graph-json"]),
                ("dayu-lint", lint_main, [str(path.parent)]),
                ("dayu-compact", compact_main,
                 [str(path.parent), "--out", str(tmp_path / "out.dayuc")])):
            assert main(argv) == 2, prog
            err = capsys.readouterr().err
            assert err.startswith(f"{prog}: {path}: corrupt columnar trace")


def _raises_corrupt(data: bytes) -> bool:
    try:
        decode_run(data)
    except CorruptTrace:
        return True
    return False


class TestBulkGraphs:
    @pytest.mark.parametrize("seed", (7, 77))
    def test_byte_identical_graphs(self, seed):
        rng = random.Random(seed)
        profiles = [random_profile(rng, i) for i in range(12)]
        reader = RunReader.from_bytes(encode_run(profiles))
        groups = list(reader)
        assert graph_to_json(build_graph_from_groups("ftg", groups)) == \
            graph_to_json(build_ftg(profiles))
        assert graph_to_json(build_graph_from_groups("sdg", groups)) == \
            graph_to_json(build_sdg(profiles))

    def test_byte_identical_sdg_with_regions(self):
        profiles = [make_profile("t0"), make_profile("t1")]
        reader = RunReader.from_bytes(encode_run(profiles))
        assert graph_to_json(
            build_graph_from_groups("sdg", list(reader), with_regions=True)
        ) == graph_to_json(build_sdg(profiles, with_regions=True))

    def test_groups_sorted_by_start(self):
        early = make_profile("late_name_early_start")
        early.span = TimeSpan(0.0, 1.0)
        late = make_profile("a_early_name_late_start")
        late.span = TimeSpan(5.0, 6.0)
        reader = RunReader.from_bytes(encode_run([late, early]))
        g = build_graph_from_groups("ftg", list(reader))
        serial = build_ftg([early, late])
        assert graph_to_json(g) == graph_to_json(serial)


class TestPushdownLint:
    def _row_and_columnar_reports(self, profiles, tmp_path, **kw):
        analyzer = ParallelAnalyzer(max_workers=1, **kw)
        row = analyzer.lint(profiles)
        run = tmp_path / "run.dayuc"
        compact_profiles(profiles, run)
        stats = {}
        col = analyzer.lint_run(str(run), stats_out=stats)
        return row, col, stats

    def test_parity_on_handbuilt(self, tmp_path):
        profiles = [make_profile("t0"), make_profile("t1")]
        row, col, stats = self._row_and_columnar_reports(
            profiles, tmp_path, with_io_records=True)
        assert {f.fingerprint for f in row.findings} == \
            {f.fingerprint for f in col.findings}
        assert row.to_json() == col.to_json()
        assert stats["n_groups"] == 2

    @pytest.mark.parametrize("seed", (5, 55))
    def test_parity_on_fuzzed(self, seed, tmp_path):
        rng = random.Random(seed)
        profiles = [random_profile(rng, i) for i in range(10)]
        row, col, stats = self._row_and_columnar_reports(
            profiles, tmp_path, with_io_records=True)
        assert {f.fingerprint for f in row.findings} == \
            {f.fingerprint for f in col.findings}
        assert stats["rules_evaluated"] + stats["rules_skipped"] > 0

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_parity_on_every_workload(self, workload, tmp_path):
        env = fresh_env(n_nodes=2)
        workflow, prepare = build_workload(workload, 0.05)
        if prepare is not None:
            prepare(env.cluster)
        result = env.runner.run(workflow)
        profiles = list(env.mapper.profiles.values())
        run = tmp_path / "run.dayuc"
        compact_profiles(profiles, run)
        analyzer = ParallelAnalyzer(max_workers=1, with_io_records=True)
        for config, attempts in ((LintConfig(), None),
                                 (LintConfig(enable=("DY5",)),
                                  dict(result.attempts)),
                                 (ADVISORY, None)):
            row = analyzer.lint(profiles, config, attempts=attempts)
            col = analyzer.lint_run(str(run), config, attempts=attempts)
            assert col.to_json() == row.to_json()


class TestSniffingAndLoading:
    def test_sniff(self):
        p = make_profile()
        assert sniff_trace_format(encode_columnar(p)) == "columnar"
        assert sniff_trace_format(p.serialize()) == "json"
        with pytest.raises(RetiredTraceFormat, match="t.dayu"):
            sniff_trace_format(b"DYU1\x02\x00", source="t.dayu")

    def test_mixed_directory_auto(self, tmp_path):
        p0, p1, p2 = (make_profile(f"t{i}") for i in range(3))
        (tmp_path / "a.json").write_bytes(p0.serialize())
        (tmp_path / "b.dayuc").write_bytes(encode_run([p1, p2]))
        analyzer = ParallelAnalyzer(max_workers=1, with_io_records=True)
        profiles = analyzer.load(str(tmp_path))
        assert sorted(p.task for p in profiles) == ["t0", "t1", "t2"]

    def test_trace_format_filter(self, tmp_path):
        p0, p1 = make_profile("t0"), make_profile("t1")
        (tmp_path / "a.json").write_bytes(p0.serialize())
        (tmp_path / "c.dayuc").write_bytes(encode_columnar(p1))
        only = trace_paths(str(tmp_path), trace_format="columnar")
        assert [p.endswith(".dayuc") for p in map(str, only)] == [True]
        with pytest.raises(ValueError):
            trace_paths(str(tmp_path), trace_format="parquet")

    def test_load_profiles_path_expands_runs(self, tmp_path):
        profiles = [make_profile("t0"), make_profile("t1")]
        run = tmp_path / "run.dayuc"
        compact_profiles(profiles, run)
        loaded = load_profiles_path(str(run))
        assert [p.task for p in loaded] == ["t0", "t1"]

    def test_write_read_file_object(self, tmp_path):
        p = make_profile()
        path = tmp_path / f"t0{COLUMNAR_TRACE_SUFFIX}"
        with open(path, "wb") as fp:
            columnar.write_run(fp, [p])
        [q] = load_profiles_path(str(path))
        assert q.to_json_dict() == p.to_json_dict()
        assert is_columnar_trace(path.read_bytes())
        buf = io.BytesIO()
        columnar.write_run(buf, [p])
        assert buf.getvalue() == path.read_bytes()


class TestSizes:
    def test_binary_much_smaller_than_json(self):
        p = make_profile()
        p.io_records = p.io_records * 50  # records dominate real traces
        assert len(encode_columnar(p)) * 3 < len(p.serialize())

    def test_trace_nbytes_match_encodings(self):
        p = make_profile()
        bare = TaskProfile(task=None, span=p.span, files=[],
                           object_profiles=[], file_sessions=[],
                           io_records=[], dataset_stats=[])
        container = len(encode_columnar(bare))
        vfd = TaskProfile(task=None, span=p.span, files=[],
                          object_profiles=[], file_sessions=p.file_sessions,
                          io_records=p.io_records, dataset_stats=[])
        vol = TaskProfile(task=None, span=p.span, files=[],
                          object_profiles=p.object_profiles,
                          file_sessions=[], io_records=[], dataset_stats=[])
        assert p.vfd_binary_bytes == len(encode_columnar(vfd)) - container
        assert p.vol_binary_bytes == len(encode_columnar(vol)) - container

    def test_vfd_bytes_grow_with_records(self):
        p = make_profile()
        fewer = make_profile()
        fewer.io_records = p.io_records[:1]
        assert p.vfd_binary_bytes > fewer.vfd_binary_bytes > 0


class TestConfig:
    def test_trace_format_validated(self):
        assert DaYuConfig(trace_format="columnar").trace_format == "columnar"
        assert DaYuConfig().trace_format == "json"
        with pytest.raises(ValueError):
            DaYuConfig(trace_format="xml")
        with pytest.raises(ValueError):
            DaYuConfig(trace_format="binary")  # the retired row format

    def test_config_drives_save_format(self):
        p = make_profile()
        mapper = DataSemanticMapper(SimClock(),
                                    DaYuConfig(trace_format="columnar"))
        suffix, blob = mapper._serialized(p, None)
        assert suffix == COLUMNAR_TRACE_SUFFIX
        assert is_columnar_trace(blob)
        suffix, blob = mapper._serialized(p, "json")
        assert suffix == ".json"
        json.loads(blob)
        with pytest.raises(ValueError):
            mapper._serialized(p, "binary")


class TestCoalescedRegions:
    def naive_observe(self, spans, page_size=4096):
        hist = {}
        for offset, nbytes in spans:
            last = max(offset, offset + nbytes - 1)
            for page in range(offset // page_size, last // page_size + 1):
                hist[page] = hist.get(page, 0) + 1
        return hist

    def test_observe_matches_naive_per_page_histogram(self):
        spans = [(0, 4096), (0, 8192), (4096, 1), (12288, 20000),
                 (1 << 30, 4096), (5000, 0)]
        stats = DatasetIoStats(task="t", file="f", data_object="d")
        for offset, nbytes in spans:
            rec = VfdIoRecord(task="t", file="f", op="read", offset=offset,
                              nbytes=nbytes, start=0.0, duration=0.0,
                              access_type=IoClass.RAW, data_object="d")
            stats.observe(rec, page_size=4096)
        assert stats.regions == self.naive_observe(spans)

    def test_runs_are_sorted_disjoint_maximal(self):
        stats = DatasetIoStats(task="t", file="f", data_object="d")
        stats.regions = {0: 1, 1: 1, 2: 1, 5: 2, 6: 2, 9: 1}
        assert stats.region_runs() == [(0, 2, 1), (5, 6, 2), (9, 9, 1)]

    def test_coalesce_overlapping_increments(self):
        # Two overlapping spans stack; adjacent equal levels merge.
        assert _coalesce_runs([(0, 9, 1), (5, 14, 1)]) == \
               [(0, 4, 1), (5, 9, 2), (10, 14, 1)]
        assert _coalesce_runs([(0, 4, 1), (5, 9, 1)]) == [(0, 9, 1)]
        assert _coalesce_runs([]) == []

    def test_large_write_is_cheap_to_record(self):
        stats = DatasetIoStats(task="t", file="f", data_object="d")
        rec = VfdIoRecord(task="t", file="f", op="write", offset=0,
                          nbytes=1 << 30, start=0.0, duration=0.1,
                          access_type=IoClass.RAW, data_object="d")
        stats.observe(rec, page_size=4096)
        # One run, not 262144 dict entries.
        assert stats.region_runs() == [(0, (1 << 30) // 4096 - 1, 1)]
        payload = stats.to_json_dict()
        assert len(payload["regions"]) == (1 << 30) // 4096


class TestCompaction:
    def test_compact_sorts_and_round_trips(self, tmp_path):
        late = make_profile("zz_late")
        late.span = TimeSpan(5.0, 6.0)
        early = make_profile("aa_early")
        early.span = TimeSpan(1.0, 2.0)
        run = tmp_path / "run.dayuc"
        n = compact_profiles([late, early], run)
        assert n == run.stat().st_size
        with RunReader.open(str(run)) as reader:
            assert [g.task for g in reader] == ["aa_early", "zz_late"]

    def test_compact_cli(self, tmp_path, capsys):
        from repro.mapper.compact import compact_main

        rows = tmp_path / "rows"
        rows.mkdir()
        for i in range(3):
            p = make_profile(f"t{i}")
            p.span = TimeSpan(float(i), i + 1.0)
            (rows / f"t{i}.json").write_bytes(p.serialize())
        out = tmp_path / "run.dayuc"
        assert compact_main([str(rows), "--out", str(out)]) == 0
        assert "compacted 3 profile(s)" in capsys.readouterr().out
        with RunReader.open(str(out)) as reader:
            assert len(reader) == 3
            assert all(g.io_records() != [] for g in reader)

    def test_compact_cli_no_records(self, tmp_path):
        from repro.mapper.compact import compact_main

        rows = tmp_path / "rows"
        rows.mkdir()
        (rows / "t0.json").write_bytes(make_profile().serialize())
        out = tmp_path / "run.dayuc"
        assert compact_main([str(rows), "--out", str(out),
                             "--no-records"]) == 0
        with RunReader.open(str(out)) as reader:
            assert reader.groups[0].io_records() == []

    def test_compact_cli_empty_dir(self, tmp_path, capsys):
        from repro.mapper.compact import compact_main

        assert compact_main([str(tmp_path), "--out",
                             str(tmp_path / "x.dayuc")]) == 2
        assert "no saved profiles" in capsys.readouterr().err


class TestInlineJobs:
    def test_inline_property(self):
        assert ParallelAnalyzer(max_workers=1).inline
        assert not ParallelAnalyzer(max_workers=2).inline

    def test_jobs_1_never_spawns_a_pool(self, tmp_path, monkeypatch):
        import concurrent.futures

        def boom(*a, **kw):  # pragma: no cover - must not be reached
            raise AssertionError("--jobs 1 must not spawn a process pool")

        # parallel.py imports the executor at call time, so poisoning the
        # stdlib attribute catches any pool spawn on this code path.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)
        profiles = [make_profile(f"t{i}") for i in range(3)]
        for i, p in enumerate(profiles):
            p.span = TimeSpan(float(i), i + 1.0)
            (tmp_path / f"t{i}.json").write_bytes(p.serialize())
        analyzer = _PA(max_workers=1, with_io_records=True)
        loaded = analyzer.load(str(tmp_path))
        assert len(loaded) == 3
        assert graph_to_json(analyzer.build_ftg(loaded)) == \
            graph_to_json(build_ftg(loaded))
        analyzer.lint(loaded)


class TestCliParity:
    def test_analyze_graph_json_identical(self, tmp_path, capsys):
        from repro.cli import analyze_main

        rows = tmp_path / "rows"
        rows.mkdir()
        profiles = []
        for i in range(3):
            p = make_profile(f"t{i}")
            p.span = TimeSpan(float(i), i + 1.0)
            profiles.append(p)
            (rows / f"t{i}.json").write_bytes(p.serialize())
        colruns = tmp_path / "colruns"
        colruns.mkdir()
        compact_profiles(profiles, colruns / "run.dayuc")

        g_row, g_col = tmp_path / "g_row", tmp_path / "g_col"
        assert analyze_main([str(rows), "--out", str(g_row),
                             "--graph-json", "--lint"]) == 0
        assert analyze_main([str(colruns), "--out", str(g_col),
                             "--graph-json", "--lint"]) == 0
        capsys.readouterr()
        for name in ("ftg.json", "sdg.json", "lint.json"):
            assert (g_row / name).read_bytes() == (g_col / name).read_bytes()
            json.loads((g_row / name).read_text())

    @staticmethod
    def _rows_and_run_file(tmp_path):
        """Three JSON row traces, and ``dayu-compact --out``'s run file of
        the same profiles."""
        from repro.mapper.compact import compact_main

        rows = tmp_path / "rows"
        rows.mkdir()
        for i in range(3):
            p = make_profile(f"t{i}")
            p.span = TimeSpan(float(i), i + 1.0)
            (rows / f"t{i}.json").write_bytes(p.serialize())
        run = tmp_path / "run.dayuc"
        assert compact_main([str(rows), "--out", str(run)]) == 0
        return rows, run

    def test_analyze_reads_a_compacted_run_file(self, tmp_path, capsys):
        from repro.cli import analyze_main

        rows, run = self._rows_and_run_file(tmp_path)
        g_row, g_file = tmp_path / "g_row", tmp_path / "g_file"
        assert analyze_main([str(rows), "--out", str(g_row),
                             "--graph-json", "--lint"]) == 0
        assert analyze_main([str(run), "--out", str(g_file),
                             "--graph-json", "--lint"]) == 0
        capsys.readouterr()
        for name in ("ftg.json", "sdg.json", "lint.json"):
            assert (g_row / name).read_bytes() == (g_file / name).read_bytes()

    def test_lint_reads_a_compacted_run_file(self, tmp_path, capsys):
        from repro.lint.cli import lint_main

        rows, run = self._rows_and_run_file(tmp_path)
        out_row, out_file = tmp_path / "row.json", tmp_path / "file.json"
        rc_row = lint_main([str(rows), "--races", "--format", "json",
                            "--out", str(out_row)])
        rc_file = lint_main([str(run), "--races", "--format", "json",
                             "--out", str(out_file)])
        capsys.readouterr()
        assert rc_file == rc_row
        assert out_file.read_bytes() == out_row.read_bytes()
        assert json.loads(out_file.read_text())["findings"]


class TestWorkloadRowColumnarParity:
    def test_corner_hazards_rows_and_run_file_agree(self, tmp_path, capsys):
        """A real workload's row traces and their compacted run file give
        byte-identical graphs, lint.json and dayu-lint reports, and the
        seeded hazards are found."""
        from repro.cli import analyze_main, run_main
        from repro.lint.cli import lint_main
        from repro.mapper.compact import compact_main

        rows, col = tmp_path / "rows", tmp_path / "columnar"
        assert run_main(["corner-hazards", "--out", str(rows),
                         "--scale", "0.1"]) == 0
        col.mkdir()
        run = col / "run.dayuc"
        assert compact_main([str(rows), "--out", str(run)]) == 0

        g_row, g_col = tmp_path / "g_row", tmp_path / "g_col"
        assert analyze_main([str(rows), "--out", str(g_row),
                             "--graph-json", "--lint"]) == 0
        assert analyze_main([str(col), "--out", str(g_col),
                             "--graph-json", "--lint"]) == 0
        for name in ("ftg.json", "sdg.json", "lint.json"):
            assert (g_row / name).read_bytes() == (g_col / name).read_bytes()

        # Seeded findings make dayu-lint exit 1 on both forms by design.
        out_row = tmp_path / "lint-rows.json"
        out_col = tmp_path / "lint-columnar.json"
        rc_row = lint_main([str(rows), "--format", "json",
                            "--out", str(out_row)])
        rc_col = lint_main([str(run), "--format", "json",
                            "--out", str(out_col)])
        capsys.readouterr()
        assert rc_col == rc_row
        assert out_col.read_bytes() == out_row.read_bytes()
        assert json.loads(out_row.read_text())["findings"]
