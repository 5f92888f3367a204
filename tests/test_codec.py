"""The trace codec (the columnar binary form of a task profile): the
round-trip, record-skipping and streaming cases kept under their own ids.
File-object I/O, sizes, the config-driven save format and the coalesced
page-run storage are tested in `tests/test_columnar.py`."""

import pytest

from repro.mapper.columnar import (
    CorruptTrace,
    decode_columnar,
    encode_columnar,
    is_columnar_trace,
)
from repro.mapper.mapper import TaskProfile
from repro.mapper.persist import load_profiles_from_host_dir
from repro.simclock import TimeSpan

from tests.test_columnar import make_profile


class TestRoundTrip:
    def test_every_field_survives(self):
        p = make_profile()
        q = decode_columnar(encode_columnar(p))
        assert q.to_json_dict() == p.to_json_dict()

    def test_empty_profile(self):
        p = TaskProfile(task="empty", span=TimeSpan(0.0, 0.0), files=[],
                        object_profiles=[], file_sessions=[], io_records=[],
                        dataset_stats=[])
        q = decode_columnar(encode_columnar(p))
        assert q.to_json_dict() == p.to_json_dict()


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


class TestStreaming:
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
