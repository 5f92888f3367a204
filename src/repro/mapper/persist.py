"""Trace persistence: loading saved task profiles for offline analysis.

DaYu's runtime writes one profile per task
(:meth:`DataSemanticMapper.save`) — columnar
(:mod:`repro.mapper.columnar`, ``*.dayuc``) or JSON interchange
(``*.json``); the offline Workflow Analyzer then works from those files —
a different process, usually a different machine.  This module provides
the read side: reconstructing :class:`~repro.mapper.mapper.TaskProfile`
objects (and everything they contain) from either serialized form, so
graphs and diagnostics can be built without re-running the workflow.
Loaders sniff the format from the payload, so directories may mix both.
The retired row-binary format (``DYU1`` magic) is recognized only to be
rejected with :class:`RetiredTraceFormat`.

``with_io_records=False`` skips materializing the per-operation record
list — the dominant trace section, which graph construction and the
diagnostics never read — for an analysis-only fast path.
"""

from __future__ import annotations

import json
from typing import List

from repro.mapper import columnar
from repro.mapper.mapper import TaskProfile
from repro.mapper.stats import DatasetIoStats
from repro.posix.simfs import SimFS
from repro.simclock import TimeSpan
from repro.vfd.base import IoClass
from repro.vfd.tracing import FileSession, VfdIoRecord
from repro.vol.tracer import DataObjectProfile

__all__ = [
    "profile_from_json_dict",
    "UnknownTraceFormat",
    "RetiredTraceFormat",
    "TRACE_READ_ERRORS",
    "sniff_trace_format",
    "sniff_trace_format_path",
    "load_profile",
    "load_profiles_path",
    "load_profiles_from_dir",
    "load_profiles_from_host_dir",
]

#: Extensions recognized as saved task profiles.  ``.dayuc`` files may be
#: single-profile traces or multi-profile compacted runs; the
#: ``load_profiles*`` loaders flatten either.
TRACE_SUFFIXES = (".json", columnar.COLUMNAR_TRACE_SUFFIX)

#: Magic and suffix of the retired row-binary trace format, kept only so
#: such traces are rejected by name (:class:`RetiredTraceFormat`) rather
#: than silently skipped.
RETIRED_MAGIC = b"DYU1"
RETIRED_SUFFIX = ".dayu"


def _object_profile_from(d: dict) -> DataObjectProfile:
    return DataObjectProfile(
        task=d.get("task"),
        file=d["file"],
        object_name=d["object"],
        acquired=d["acquired"],
        released=d.get("released"),
        open_count=d.get("open_count", 0),
        shape=tuple(d.get("shape", ())),
        dtype=d.get("dtype", ""),
        layout=d.get("layout", ""),
        nbytes=d.get("nbytes", 0),
        reads=d.get("reads", 0),
        writes=d.get("writes", 0),
        elements_read=d.get("elements_read", 0),
        elements_written=d.get("elements_written", 0),
    )


def _session_from(d: dict) -> FileSession:
    session = FileSession(
        task=d.get("task"),
        file=d["file"],
        open_time=d["open_time"],
        close_time=d.get("close_time"),
        read_ops=d.get("read_ops", 0),
        write_ops=d.get("write_ops", 0),
        read_bytes=d.get("read_bytes", 0),
        write_bytes=d.get("write_bytes", 0),
        sequential_ops=d.get("sequential_ops", 0),
        sequential_raw_ops=d.get("sequential_raw_ops", 0),
        metadata_ops=d.get("metadata_ops", 0),
        raw_ops=d.get("raw_ops", 0),
        data_objects=list(d.get("data_objects", [])),
    )
    return session


def _record_from(d: dict) -> VfdIoRecord:
    return VfdIoRecord(
        task=d.get("task"),
        file=d["file"],
        op=d["op"],
        offset=d["offset"],
        nbytes=d["nbytes"],
        start=d["start"],
        duration=d["duration"],
        access_type=IoClass(d["access_type"]),
        data_object=d.get("data_object"),
    )


def _stats_from(d: dict) -> DatasetIoStats:
    stats = DatasetIoStats(
        task=d.get("task"),
        file=d["file"],
        data_object=d["data_object"],
        reads=d.get("reads", 0),
        writes=d.get("writes", 0),
        bytes_read=d.get("bytes_read", 0),
        bytes_written=d.get("bytes_written", 0),
        data_ops=d.get("data_ops", 0),
        data_bytes=d.get("data_bytes", 0),
        metadata_ops=d.get("metadata_ops", 0),
        metadata_bytes=d.get("metadata_bytes", 0),
        io_time=d.get("io_time", 0.0),
        first_start=d.get("first_start"),
        last_end=d.get("last_end"),
        first_raw_op=d.get("first_raw_op"),
    )
    stats.regions = {int(k): v for k, v in d.get("regions", {}).items()}
    return stats


def profile_from_json_dict(payload: dict,
                           with_io_records: bool = True) -> TaskProfile:
    """Reconstruct a :class:`TaskProfile` from its serialized form.

    Inverse of :meth:`TaskProfile.to_json_dict`; round-trips everything the
    Analyzer and Diagnostics consume.
    """
    records = payload.get("io_records", []) if with_io_records else []
    return TaskProfile(
        task=payload["task"],
        span=TimeSpan(payload["start"], payload["end"]),
        files=list(payload.get("files", [])),
        object_profiles=[
            _object_profile_from(d) for d in payload.get("object_profiles", [])
        ],
        file_sessions=[
            _session_from(d) for d in payload.get("file_sessions", [])
        ],
        io_records=[_record_from(d) for d in records],
        dataset_stats=[_stats_from(d) for d in payload.get("dataset_stats", [])],
    )


def load_profile(data: bytes | str, with_io_records: bool = True,
                 source: str = "<memory>") -> TaskProfile:
    """Parse one serialized profile — columnar or JSON, sniffed from the
    payload.  A multi-profile columnar run file is an error here; use
    :func:`load_profiles_path` to flatten those."""
    if isinstance(data, bytes) and data[:4] == RETIRED_MAGIC:
        raise RetiredTraceFormat(source)
    if isinstance(data, bytes) and columnar.is_columnar_trace(data):
        return columnar.decode_columnar(data,
                                        with_io_records=with_io_records,
                                        source=source)
    if isinstance(data, bytes):
        data = data.decode()
    return profile_from_json_dict(json.loads(data),
                                  with_io_records=with_io_records)


def load_profiles_path(path, with_io_records: bool = True) -> List[TaskProfile]:
    """Load every profile a host trace file holds (any format).

    JSON traces hold exactly one; a columnar ``.dayuc`` file may be a
    compacted run holding many.  Raises one of
    :data:`TRACE_READ_ERRORS` — each naming the path — on files too
    short to carry the magic, in the retired row-binary format, or
    failing to decode as columnar.
    """
    from pathlib import Path

    data = Path(path).read_bytes()
    if len(data) < 4:
        raise UnknownTraceFormat(str(path), len(data))
    return _decode_all(data, with_io_records, str(path))


def _decode_all(data, with_io_records: bool, source: str) -> List[TaskProfile]:
    """Every profile of one serialized trace: a columnar run flattens."""
    if isinstance(data, bytes) and columnar.is_columnar_trace(data):
        return columnar.decode_run(data, with_io_records=with_io_records,
                                   source=source)
    return [load_profile(data, with_io_records=with_io_records,
                         source=source)]


class UnknownTraceFormat(ValueError):
    """A trace payload too short to classify (no room for magic bytes).

    Carries the offending ``path`` ("<memory>" for in-memory payloads)
    so batch loaders and the CLI can name the file instead of
    misreporting a truncated trace as malformed JSON.
    """

    def __init__(self, path: str, size: int) -> None:
        self.path = path
        self.size = size
        super().__init__(
            f"{path}: {size} byte(s) is too short to be a DaYu trace "
            "(need at least 4 bytes of magic; empty or truncated file?)")


class RetiredTraceFormat(ValueError):
    """A trace in the retired row-binary format (``DYU1`` magic).

    Carries the offending ``path`` ("<memory>" for in-memory payloads).
    No reader for the format remains; the trace has to be recorded again
    as JSON or columnar.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        super().__init__(
            f"{path}: row-binary DaYu trace (DYU1) is a retired format; "
            "record it again with --trace-format json or columnar")


#: Every typed error a trace read can raise, each naming its source; the
#: CLIs report any of them as a one-line diagnosis with exit status 2.
TRACE_READ_ERRORS = (UnknownTraceFormat, RetiredTraceFormat,
                     columnar.CorruptTrace)


def sniff_trace_format(head: bytes, source: str = "<memory>") -> str:
    """Classify a trace payload by its magic bytes.

    ``"columnar"`` for the column-chunk form (``DYC1``), ``"json"``
    otherwise.  Four bytes of the payload suffice; fewer raise
    :class:`UnknownTraceFormat` and the retired row-binary magic
    (``DYU1``) raises :class:`RetiredTraceFormat`, both naming ``source``.
    """
    if len(head) < 4:
        raise UnknownTraceFormat(source, len(head))
    if head[:4] == RETIRED_MAGIC:
        raise RetiredTraceFormat(source)
    if columnar.is_columnar_trace(head):
        return "columnar"
    return "json"


def sniff_trace_format_path(path) -> str:
    """Classify a saved trace file by reading only its magic bytes.

    Raises :class:`UnknownTraceFormat` (naming the path) on files
    shorter than the four magic bytes — zero-length droppings from an
    interrupted writer in particular."""
    with open(path, "rb") as fh:
        return sniff_trace_format(fh.read(4), source=str(path))


def trace_paths(directory: str, trace_format: str = "auto") -> List[str]:
    """Saved profile paths (any format) under a host directory, sorted.

    ``trace_format`` restricts to one on-disk format, classified by magic
    bytes — not by suffix — so mislabelled files are filtered correctly;
    the default ``"auto"`` accepts everything, retired ``.dayu`` files
    included so that loading them fails by name.  A missing directory
    yields no paths (callers report "no profiles" rather than a
    traceback)."""
    from pathlib import Path

    if trace_format not in ("auto", "json", "columnar"):
        raise ValueError(f"bad trace_format {trace_format!r}: use 'auto', "
                         "'json' or 'columnar'")
    base = Path(directory)
    if not base.is_dir():
        return []
    paths = sorted(
        str(p) for p in base.iterdir()
        if p.suffix in TRACE_SUFFIXES or p.suffix == RETIRED_SUFFIX
    )
    if trace_format == "auto":
        return paths
    return [p for p in paths if sniff_trace_format_path(p) == trace_format]


def load_profiles_from_host_dir(
    directory: str, with_io_records: bool = True
) -> List[TaskProfile]:
    """Load every saved profile (``*.json`` / ``*.dayuc``)
    from a real (host) directory, ordered by task start time.  This is
    what the ``dayu-analyze`` CLI consumes; compacted run files are
    flattened."""
    profiles = [p for path in trace_paths(directory)
                for p in load_profiles_path(
                    path, with_io_records=with_io_records)]
    profiles.sort(key=lambda p: p.span.start)
    return profiles


def load_profiles_from_dir(fs: SimFS, directory: str,
                           with_io_records: bool = True) -> List[TaskProfile]:
    """Load every saved profile under ``directory`` of a simulated FS,
    ordered by task start time (execution order)."""
    profiles = []
    for path in fs.listdir(directory):
        if not path.endswith(TRACE_SUFFIXES):
            continue
        fd = fs.open(path, "r")
        raw = fs.read(fd, fs.file_size(fd))
        fs.close(fd)
        profiles.extend(_decode_all(raw, with_io_records, path))
    profiles.sort(key=lambda p: p.span.start)
    return profiles
