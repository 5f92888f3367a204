"""The trace codec (the columnar binary form of a task profile):
JSON↔binary equivalence, file-object I/O, skipping the per-op records,
sizes, config-driven save format, and the coalesced page-run storage
behind the region histograms."""

import io
import json

import pytest

from repro.mapper import columnar
from repro.mapper.columnar import (
    COLUMNAR_TRACE_SUFFIX,
    CorruptTrace,
    decode_columnar,
    encode_columnar,
    is_columnar_trace,
)
from repro.mapper.config import DaYuConfig
from repro.mapper.mapper import TaskProfile
from repro.mapper.persist import (
    load_profile,
    load_profiles_from_host_dir,
    load_profiles_path,
)
from repro.mapper.stats import DatasetIoStats, _coalesce_runs
from repro.simclock import TimeSpan
from repro.vfd.base import IoClass
from repro.vfd.tracing import VfdIoRecord

from tests.test_columnar import make_profile


class TestRoundTrip:
    def test_every_field_survives(self):
        p = make_profile()
        q = decode_columnar(encode_columnar(p))
        assert q.to_json_dict() == p.to_json_dict()

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

    def test_empty_profile(self):
        p = TaskProfile(task="empty", span=TimeSpan(0.0, 0.0), files=[],
                        object_profiles=[], file_sessions=[], io_records=[],
                        dataset_stats=[])
        q = decode_columnar(encode_columnar(p))
        assert q.to_json_dict() == p.to_json_dict()

    def test_float_exactness(self):
        p = make_profile()
        p.span = TimeSpan(1 / 3, 2 / 3)
        p.dataset_stats[0].io_time = 0.1 + 0.2  # not exactly 0.3
        q = decode_columnar(encode_columnar(p))
        assert q.span.start == p.span.start
        assert q.dataset_stats[0].io_time == p.dataset_stats[0].io_time


class TestSkipRecords:
    def test_records_skipped_rest_identical(self):
        p = make_profile()
        q = decode_columnar(encode_columnar(p), with_io_records=False)
        assert q.io_records == []
        want = p.to_json_dict()
        got = q.to_json_dict()
        want.pop("io_records")
        got.pop("io_records")
        assert got == want

    def test_json_loader_honors_flag_too(self):
        p = make_profile()
        q = load_profile(p.serialize(), with_io_records=False)
        assert q.io_records == []
        assert len(q.dataset_stats) == len(p.dataset_stats)


class TestStreaming:
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

    def test_sniffing(self):
        p = make_profile()
        assert is_columnar_trace(encode_columnar(p))
        assert not is_columnar_trace(p.serialize())
        assert not is_columnar_trace(b"")

    def test_corrupt_payload_rejected(self):
        blob = encode_columnar(make_profile())
        with pytest.raises(CorruptTrace):
            decode_columnar(blob[:-3])

    def test_mixed_format_directory(self, tmp_path):
        p = make_profile("alpha")
        r = make_profile("beta")
        (tmp_path / "alpha.json").write_bytes(p.serialize())
        (tmp_path / "beta.dayuc").write_bytes(encode_columnar(r))
        loaded = load_profiles_from_host_dir(str(tmp_path))
        assert sorted(q.task for q in loaded) == ["alpha", "beta"]


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
        from repro.mapper.mapper import DataSemanticMapper
        from repro.simclock import SimClock

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
