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
rejected with :class:`RetiredTraceFormat`; a JSON trace that fails to
decode or has ill-typed keys raises :class:`MalformedJsonTrace`.

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
    "MalformedJsonTrace",
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


class MalformedJsonTrace(ValueError):
    """A JSON trace that fails to decode: bad UTF-8, bad JSON, a payload
    that is not an object, a missing or ill-typed key, or an unknown
    ``access_type``.

    Carries the offending ``source`` (a path, or "<memory>") so batch
    loaders and the CLIs can name the file instead of dying with a
    traceback from deep inside the decoder.
    """

    def __init__(self, source: str, detail: str) -> None:
        self.source = source
        self.detail = detail
        super().__init__(f"{source}: malformed JSON trace ({detail})")

    def __reduce__(self):
        return (type(self), (self.source, self.detail))


class _BadField(Exception):
    """One key of a JSON trace failed validation (the detail text)."""


_REQUIRED = object()
_INT = (int,)
_NUM = (int, float)
_STR = (str,)
_OPT_NUM = (int, float, type(None))
_OPT_STR = (str, type(None))


def _get(d: dict, key: str, kinds: tuple, default=_REQUIRED):
    """``d[key]`` checked against ``kinds`` (JSON booleans never pass)."""
    if key not in d:
        if default is _REQUIRED:
            raise _BadField(f"missing key {key!r}")
        return default
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise _BadField(f"key {key!r} holds {type(value).__name__}")
    return value


def _list(d: dict, key: str, kinds: tuple) -> list:
    """An optional list under ``key`` whose entries are all ``kinds``."""
    items = _get(d, key, (list,), [])
    for item in items:
        if isinstance(item, bool) or not isinstance(item, kinds):
            raise _BadField(f"key {key!r} holds a {type(item).__name__} "
                            "entry")
    return items


def _object_profile_from(d: dict) -> DataObjectProfile:
    return DataObjectProfile(
        task=_get(d, "task", _OPT_STR, None),
        file=_get(d, "file", _STR),
        object_name=_get(d, "object", _STR),
        acquired=_get(d, "acquired", _NUM),
        released=_get(d, "released", _OPT_NUM, None),
        open_count=_get(d, "open_count", _INT, 0),
        shape=tuple(_list(d, "shape", _INT)),
        dtype=_get(d, "dtype", _STR, ""),
        layout=_get(d, "layout", _STR, ""),
        nbytes=_get(d, "nbytes", _INT, 0),
        reads=_get(d, "reads", _INT, 0),
        writes=_get(d, "writes", _INT, 0),
        elements_read=_get(d, "elements_read", _INT, 0),
        elements_written=_get(d, "elements_written", _INT, 0),
    )


def _session_from(d: dict) -> FileSession:
    return FileSession(
        task=_get(d, "task", _OPT_STR, None),
        file=_get(d, "file", _STR),
        open_time=_get(d, "open_time", _NUM),
        close_time=_get(d, "close_time", _OPT_NUM, None),
        read_ops=_get(d, "read_ops", _INT, 0),
        write_ops=_get(d, "write_ops", _INT, 0),
        read_bytes=_get(d, "read_bytes", _INT, 0),
        write_bytes=_get(d, "write_bytes", _INT, 0),
        sequential_ops=_get(d, "sequential_ops", _INT, 0),
        sequential_raw_ops=_get(d, "sequential_raw_ops", _INT, 0),
        metadata_ops=_get(d, "metadata_ops", _INT, 0),
        raw_ops=_get(d, "raw_ops", _INT, 0),
        data_objects=list(_list(d, "data_objects", _STR)),
    )


_IO_CLASSES = {c.value: c for c in IoClass}
_OPS = frozenset(("read", "write"))

#: An I/O record's keys in :class:`VfdIoRecord` field order, each with
#: the JSON value types it accepts (an absent optional key reads as None).
_RECORD_SCHEMA = (
    ("task", frozenset((str, type(None)))),
    ("file", frozenset((str,))),
    ("op", frozenset((str,))),
    ("offset", frozenset((int,))),
    ("nbytes", frozenset((int,))),
    ("start", frozenset((int, float))),
    ("duration", frozenset((int, float))),
    ("access_type", frozenset((str,))),
    ("data_object", frozenset((str, type(None)))),
)
_RECORD_KEYS = tuple(key for key, _ in _RECORD_SCHEMA)
_RECORD_KINDS = tuple(kinds for _, kinds in _RECORD_SCHEMA)


def _record_values(d: dict) -> list:
    """The :class:`VfdIoRecord` fields of ``d``, checked against
    :data:`_RECORD_SCHEMA` (one pass over the thousands of records a
    trace holds; the schema walk below only names the bad key)."""
    values = list(map(d.get, _RECORD_KEYS))
    if (all(map(frozenset.__contains__, _RECORD_KINDS, map(type, values)))
            and values[2] in _OPS and values[7] in _IO_CLASSES):
        values[7] = _IO_CLASSES[values[7]]
        return values
    for (key, kinds), value in zip(_RECORD_SCHEMA, values):
        if type(value) not in kinds:
            raise _BadField(f"missing key {key!r}" if key not in d
                            else f"key {key!r} holds {type(value).__name__}")
    if values[2] not in _OPS:
        raise _BadField(f"unknown op {values[2]!r}")
    raise _BadField(f"unknown access_type {values[7]!r}")


def _stats_from(d: dict) -> DatasetIoStats:
    stats = DatasetIoStats(
        task=_get(d, "task", _OPT_STR, None),
        file=_get(d, "file", _STR),
        data_object=_get(d, "data_object", _STR),
        reads=_get(d, "reads", _INT, 0),
        writes=_get(d, "writes", _INT, 0),
        bytes_read=_get(d, "bytes_read", _INT, 0),
        bytes_written=_get(d, "bytes_written", _INT, 0),
        data_ops=_get(d, "data_ops", _INT, 0),
        data_bytes=_get(d, "data_bytes", _INT, 0),
        metadata_ops=_get(d, "metadata_ops", _INT, 0),
        metadata_bytes=_get(d, "metadata_bytes", _INT, 0),
        io_time=_get(d, "io_time", _NUM, 0.0),
        first_start=_get(d, "first_start", _OPT_NUM, None),
        last_end=_get(d, "last_end", _OPT_NUM, None),
        first_raw_op=_get(d, "first_raw_op", _OPT_STR, None),
    )
    regions = {}
    for page, count in _get(d, "regions", (dict,), {}).items():
        try:
            regions[int(page)] = count
        except ValueError:
            raise _BadField(f"region page {page!r} is not an integer") \
                from None
        if isinstance(count, bool) or not isinstance(count, int):
            raise _BadField(f"region count {count!r} is not an integer")
    stats.regions = regions
    return stats


def _validated(records: list) -> list:
    """Check skipped records too, so a trace is valid or not whatever
    the load mode; returns the empty record list."""
    for d in records:
        _record_values(d)
    return []


def profile_from_json_dict(payload: dict, with_io_records: bool = True,
                           source: str = "<memory>") -> TaskProfile:
    """Reconstruct a :class:`TaskProfile` from its serialized form.

    Inverse of :meth:`TaskProfile.to_json_dict`; round-trips everything the
    Analyzer and Diagnostics consume.  Raises :class:`MalformedJsonTrace`
    naming ``source`` when the payload does not have that form.
    """
    if not isinstance(payload, dict):
        raise MalformedJsonTrace(
            source, f"top level is {type(payload).__name__}, not an object")
    try:
        records = _list(payload, "io_records", (dict,))
        return TaskProfile(
            task=_get(payload, "task", _OPT_STR),
            span=TimeSpan(_get(payload, "start", _NUM),
                          _get(payload, "end", _NUM)),
            files=list(_list(payload, "files", _STR)),
            object_profiles=[_object_profile_from(d) for d in
                             _list(payload, "object_profiles", (dict,))],
            file_sessions=[_session_from(d) for d in
                           _list(payload, "file_sessions", (dict,))],
            io_records=[VfdIoRecord(*_record_values(d)) for d in records]
            if with_io_records else _validated(records),
            dataset_stats=[_stats_from(d) for d in
                           _list(payload, "dataset_stats", (dict,))],
        )
    except _BadField as exc:
        raise MalformedJsonTrace(source, str(exc)) from None


def load_profile(data: bytes | str, with_io_records: bool = True,
                 source: str = "<memory>") -> TaskProfile:
    """Parse one serialized profile — columnar or JSON, sniffed from the
    payload.  A multi-profile columnar run file is an error here; use
    :func:`load_profiles_path` to flatten those.  A JSON payload that
    fails to decode raises :class:`MalformedJsonTrace` naming ``source``.
    """
    if isinstance(data, bytes) and data[:4] == RETIRED_MAGIC:
        raise RetiredTraceFormat(source)
    if isinstance(data, bytes) and columnar.is_columnar_trace(data):
        return columnar.decode_columnar(data,
                                        with_io_records=with_io_records,
                                        source=source)
    try:
        if isinstance(data, bytes):
            data = data.decode()
        payload = json.loads(data)
    except UnicodeDecodeError as exc:
        raise MalformedJsonTrace(
            source, f"not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except (ValueError, RecursionError) as exc:
        raise MalformedJsonTrace(source, f"invalid JSON: {exc}") from None
    return profile_from_json_dict(payload, with_io_records=with_io_records,
                                  source=source)


def load_profiles_path(path, with_io_records: bool = True) -> List[TaskProfile]:
    """Load every profile a host trace file holds (any format).

    JSON traces hold exactly one; a columnar ``.dayuc`` file may be a
    compacted run holding many.  Raises one of
    :data:`TRACE_READ_ERRORS` — each naming the path — on files too
    short to carry the magic, in the retired row-binary format, or
    failing to decode as columnar or as JSON.
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
                     columnar.CorruptTrace, MalformedJsonTrace)


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
