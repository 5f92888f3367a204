"""Columnar trace storage — the ``.dayuc`` binary form of task profiles.

JSON is the human-readable interchange form; this module is the only
binary one, built for the offline reader that touches a run once per
question: every :class:`~repro.mapper.mapper.TaskProfile` field family — VFD per-op
records, file sessions, VOL object profiles, joined dataset stats — is
stored as struct-packed per-field **column chunks** behind a footer
index, parquet-style::

    MAGIC "DYC1"
    column chunk bytes ...        -- concatenated, addressed by the footer
    footer                        -- string dictionary + per-group,
                                     per-family, per-column chunk index
                                     with page statistics
    u64 footer length
    MAGIC "DYC1"

A reader parses the footer first, then seeks directly to the columns a
query needs; columns it never touches (the dominant per-operation record
arrays, say) cost nothing.
One file may hold many profiles (**groups**): ``dayu-compact`` merges a
run's per-task traces into a single sorted, footer-indexed run file so
opening an entire run is one ``open``/``mmap``.

Column encodings (chosen per chunk, recorded in the footer):

- ``FIXED``: width byte (1/2/4/8) + packed little-endian unsigned ints —
  bulk-decodable via ``numpy.frombuffer``.
- ``VARINT``: LEB128 stream, for chunks holding values ≥ 2**64.
- ``DELTA``: zigzag varint deltas from the previous value — run-friendly
  ids and monotonic offsets collapse to near-zero bytes.
- ``F64`` / ``OPTF64``: packed IEEE doubles (exact round-trip); the
  optional variant prefixes a presence bitmap.
- ``BYTES``: raw ``u8`` payload (operation/class flag columns).

Strings are interned once per *file* in a shared dictionary (id 0 is
``None``), so a compacted run stores each task/file/dataset name exactly
once no matter how many groups mention it.

**Page statistics.**  Every chunk's footer entry carries summary stats —
``min``/``max``/``sum``/``count`` for numeric columns, the distinct id
set for dictionary columns (capped; an overflow marker means "unknown")
— decoded with the footer as :class:`ColumnStats`.  They are part of
the file format; readers decode the chunks they need rather than prune
on them.

**Bulk aggregation.**  :func:`build_graph_from_groups` feeds
:meth:`~repro.analyzer.graphs.GraphBuilder.add_stats_columns` straight
from the decoded stats columns — no :class:`DatasetIoStats` objects are
materialized — and produces graphs byte-identical to the row path's.
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass, field
from io import BytesIO
from itertools import accumulate
from typing import (
    BinaryIO,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.mapper.stats import DatasetIoStats
from repro.vfd.base import IoClass
from repro.vfd.tracing import FileSession, VfdIoRecord
from repro.vol.tracer import DataObjectProfile

__all__ = [
    "COLUMNAR_MAGIC",
    "COLUMNAR_TRACE_SUFFIX",
    "CorruptTrace",
    "is_columnar_trace",
    "encode_columnar",
    "decode_columnar",
    "write_run",
    "encode_run",
    "decode_run",
    "compact_profiles",
    "RunReader",
    "GroupReader",
    "StatsColumns",
    "ColumnStats",
    "build_graph_from_groups",
]

COLUMNAR_MAGIC = b"DYC1"
#: File suffix used for columnar task-profile traces and compacted runs.
COLUMNAR_TRACE_SUFFIX = ".dayuc"

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")

# -- column encodings (footer `enc` byte) ------------------------------
_ENC_FIXED = 0
_ENC_VARINT = 1
_ENC_DELTA = 2
_ENC_F64 = 3
_ENC_OPTF64 = 4
_ENC_BYTES = 5

# -- page-stat kinds (footer `stat` byte) ------------------------------
_STAT_NONE = 0
_STAT_INT = 1
_STAT_FLOAT = 2
_STAT_OPTFLOAT = 3
_STAT_DISTINCT = 4
_STAT_DISTINCT_OVERFLOW = 5

#: Distinct-set page stats above this cardinality degrade to "unknown".
_DISTINCT_CAP = 512

_FIXED_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}

# -- code tables of the byte columns -----------------------------------
_OP_CODES = {"read": 0, "write": 1}
_OP_NAMES = {0: "read", 1: "write"}
_IOCLASS_CODES = {IoClass.METADATA: 0, IoClass.RAW: 1}
_IOCLASS_VALUES = {0: IoClass.METADATA, 1: IoClass.RAW}
_RAW_OP_CODES = {None: 0, "read": 1, "write": 2}
_RAW_OP_NAMES = {0: None, 1: "read", 2: "write"}

#: Column layout per field family.  Order is the wire order; the kind
#: selects extraction, encoding, and page-stat flavor.  ``*_flat``
#: columns hold the concatenation of per-row variable-length lists whose
#: lengths live in the preceding ``*_len`` column.
_COLUMNS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "objprofs": (
        ("task", "strid"),
        ("file", "strid"),
        ("object_name", "strid"),
        ("acquired", "f64"),
        ("released", "optf64"),
        ("open_count", "int"),
        ("shape_len", "int"),
        ("shape", "int_flat"),
        ("dtype", "strid"),
        ("layout", "strid"),
        ("nbytes", "int"),
        ("reads", "int"),
        ("writes", "int"),
        ("elements_read", "int"),
        ("elements_written", "int"),
    ),
    "sessions": (
        ("task", "strid"),
        ("file", "strid"),
        ("open_time", "f64"),
        ("close_time", "optf64"),
        ("read_ops", "int"),
        ("write_ops", "int"),
        ("read_bytes", "int"),
        ("write_bytes", "int"),
        ("sequential_ops", "int"),
        ("sequential_raw_ops", "int"),
        ("metadata_ops", "int"),
        ("raw_ops", "int"),
        ("data_objects_len", "int"),
        ("data_objects", "strid_flat"),
    ),
    "stats": (
        ("task", "strid"),
        ("file", "strid"),
        ("data_object", "strid"),
        ("reads", "int"),
        ("writes", "int"),
        ("bytes_read", "int"),
        ("bytes_written", "int"),
        ("data_ops", "int"),
        ("data_bytes", "int"),
        ("metadata_ops", "int"),
        ("metadata_bytes", "int"),
        ("io_time", "f64"),
        ("first_start", "optf64"),
        ("last_end", "optf64"),
        ("first_raw_op", "byte"),
        ("run_len", "int"),
        ("run_first", "int_delta"),
        ("run_span", "int_flat"),
        ("run_count", "int_flat"),
    ),
    "records": (
        ("task", "strid_delta"),
        ("file", "strid_delta"),
        ("data_object", "strid_delta"),
        ("flags", "byte"),
        ("offset", "int_delta"),
        ("nbytes", "int"),
        ("start", "f64"),
        ("duration", "f64"),
    ),
}

_FAMILY_ORDER = ("objprofs", "sessions", "stats", "records")
_COLUMN_INDEX = {
    family: {name: i for i, (name, _) in enumerate(cols)}
    for family, cols in _COLUMNS.items()
}
_COLUMN_KIND = {family: dict(cols) for family, cols in _COLUMNS.items()}
#: Per family, the flattened columns: their length is the sum of a
#: ``*_len`` column, not the family's row count.
_FLAT_COLUMNS = {
    "objprofs": frozenset({"shape"}),
    "sessions": frozenset({"data_objects"}),
    "stats": frozenset({"run_first", "run_span", "run_count"}),
    "records": frozenset(),
}


def is_columnar_trace(data: bytes) -> bool:
    """True when ``data`` starts with the columnar trace magic."""
    return data[:4] == COLUMNAR_MAGIC


class CorruptTrace(ValueError):
    """Columnar bytes that fail to decode.

    Carries the offending ``source`` (a path, or "<memory>") so batch
    loaders and the CLIs can name the file instead of dying with a
    traceback from deep inside a column decoder.
    """

    def __init__(self, source: str, detail: str) -> None:
        self.source = source
        super().__init__(f"{source}: corrupt columnar trace ({detail})")


#: What a mutated payload can raise from the decoders below; the reader
#: boundaries turn any of these into :class:`CorruptTrace`.
_DECODE_ERRORS = (IndexError, KeyError, StopIteration, ValueError,
                  struct.error)


# ----------------------------------------------------------------------
# Primitive encoders
# ----------------------------------------------------------------------
def _vu(out: bytearray, n: int) -> None:
    if n < 0:
        raise ValueError(f"cannot varint-encode negative value {n}")
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_vu(buf, pos: int) -> Tuple[int, int]:
    shift = n = 0
    while True:
        b = buf[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        if not b & 0x80:
            return n, pos
        shift += 7


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def _unzigzag(z: int) -> int:
    return (z >> 1) if not (z & 1) else -((z + 1) >> 1)


def _encode_ints(values: Sequence[int]) -> Tuple[int, bytes]:
    """FIXED when every value fits u64 (width chosen by the max), else
    a VARINT stream — the only encoding with unbounded range."""
    if not values:
        return _ENC_FIXED, b"\x01"
    m = max(values)
    if min(values) < 0:
        raise ValueError("int columns are unsigned")
    if m < 1 << 8:
        w = 1
    elif m < 1 << 16:
        w = 2
    elif m < 1 << 32:
        w = 4
    elif m < 1 << 64:
        w = 8
    else:
        out = bytearray()
        for v in values:
            _vu(out, v)
        return _ENC_VARINT, bytes(out)
    return _ENC_FIXED, bytes([w]) + np.asarray(
        values, dtype=_FIXED_DTYPES[w]).tobytes()


def _encode_delta(values: Sequence[int]) -> bytes:
    out = bytearray()
    prev = 0
    for v in values:
        _vu(out, _zigzag(v - prev))
        prev = v
    return bytes(out)


def _encode_optf64(values: Sequence[Optional[float]]) -> bytes:
    bitmap = bytearray((len(values) + 7) // 8)
    present: List[float] = []
    for i, v in enumerate(values):
        if v is not None:
            bitmap[i >> 3] |= 1 << (i & 7)
            present.append(v)
    return bytes(bitmap) + np.asarray(present, dtype="<f8").tobytes()


def _decode_ints(enc: int, buf: bytes, count: int) -> List[int]:
    if count == 0:
        return []
    if enc == _ENC_FIXED:
        w = buf[0]
        return np.frombuffer(buf, dtype=_FIXED_DTYPES[w], count=count,
                             offset=1).tolist()
    if enc == _ENC_VARINT:
        out, pos = [], 0
        for _ in range(count):
            v, pos = _read_vu(buf, pos)
            out.append(v)
        return out
    if enc == _ENC_DELTA:
        deltas, pos = [], 0
        for _ in range(count):
            z, pos = _read_vu(buf, pos)
            deltas.append(_unzigzag(z))
        return list(accumulate(deltas))
    raise ValueError(f"int column encoding {enc}")


def _decode_f64(buf: bytes, count: int) -> List[float]:
    return np.frombuffer(buf, dtype="<f8", count=count).tolist()


def _decode_optf64(buf: bytes, count: int) -> List[Optional[float]]:
    nbits = (count + 7) // 8
    bitmap = buf[:nbits]
    values = iter(np.frombuffer(buf, dtype="<f8",
                                offset=nbits,
                                count=(len(buf) - nbits) // 8).tolist())
    return [next(values) if bitmap[i >> 3] & (1 << (i & 7)) else None
            for i in range(count)]


# ----------------------------------------------------------------------
# Page statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnStats:
    """Footer page statistics of one column chunk.

    ``kind`` selects which fields are meaningful.
    """

    kind: int
    count: int = 0
    imin: int = 0
    imax: int = 0
    isum: int = 0
    fmin: float = 0.0
    fmax: float = 0.0
    fsum: float = 0.0
    n_present: int = 0
    distinct_ids: Optional[Tuple[int, ...]] = None


def _stats_for(kind: str, values) -> ColumnStats:
    n = len(values)
    if kind.startswith("strid"):
        ids = sorted(set(values))
        if len(ids) > _DISTINCT_CAP:
            return ColumnStats(kind=_STAT_DISTINCT_OVERFLOW, count=n)
        return ColumnStats(kind=_STAT_DISTINCT, count=n,
                           distinct_ids=tuple(ids))
    if kind in ("int", "int_flat", "int_delta", "byte"):
        if not n:
            return ColumnStats(kind=_STAT_INT, count=0)
        return ColumnStats(kind=_STAT_INT, count=n, imin=min(values),
                           imax=max(values), isum=sum(values))
    if kind == "f64":
        if not n:
            return ColumnStats(kind=_STAT_FLOAT, count=0)
        return ColumnStats(kind=_STAT_FLOAT, count=n, fmin=min(values),
                           fmax=max(values), fsum=float(sum(values)))
    if kind == "optf64":
        present = [v for v in values if v is not None]
        if not present:
            return ColumnStats(kind=_STAT_OPTFLOAT, count=n, n_present=0)
        return ColumnStats(kind=_STAT_OPTFLOAT, count=n,
                           n_present=len(present), fmin=min(present),
                           fmax=max(present), fsum=float(sum(present)))
    raise ValueError(f"unknown column kind {kind!r}")


def _write_stats(out: bytearray, s: ColumnStats) -> None:
    out.append(s.kind)
    if s.kind == _STAT_INT:
        _vu(out, _zigzag(s.imin))
        _vu(out, _zigzag(s.imax))
        _vu(out, s.isum)
    elif s.kind == _STAT_FLOAT:
        out += _F64.pack(s.fmin) + _F64.pack(s.fmax) + _F64.pack(s.fsum)
    elif s.kind == _STAT_OPTFLOAT:
        _vu(out, s.n_present)
        out += _F64.pack(s.fmin) + _F64.pack(s.fmax) + _F64.pack(s.fsum)
    elif s.kind == _STAT_DISTINCT:
        ids = s.distinct_ids or ()
        _vu(out, len(ids))
        for i in ids:
            _vu(out, i)
    # _STAT_NONE / _STAT_DISTINCT_OVERFLOW carry no payload.


def _read_stats(buf, pos: int, count: int) -> Tuple[ColumnStats, int]:
    kind = buf[pos]
    pos += 1
    if kind == _STAT_INT:
        zmin, pos = _read_vu(buf, pos)
        zmax, pos = _read_vu(buf, pos)
        isum, pos = _read_vu(buf, pos)
        return ColumnStats(kind=kind, count=count, imin=_unzigzag(zmin),
                           imax=_unzigzag(zmax), isum=isum), pos
    if kind in (_STAT_FLOAT, _STAT_OPTFLOAT):
        n_present = count
        if kind == _STAT_OPTFLOAT:
            n_present, pos = _read_vu(buf, pos)
        fmin = _F64.unpack_from(buf, pos)[0]
        fmax = _F64.unpack_from(buf, pos + 8)[0]
        fsum = _F64.unpack_from(buf, pos + 16)[0]
        return ColumnStats(kind=kind, count=count, n_present=n_present,
                           fmin=fmin, fmax=fmax, fsum=fsum), pos + 24
    if kind == _STAT_DISTINCT:
        n, pos = _read_vu(buf, pos)
        ids = []
        for _ in range(n):
            i, pos = _read_vu(buf, pos)
            ids.append(i)
        return ColumnStats(kind=kind, count=count,
                           distinct_ids=tuple(ids)), pos
    return ColumnStats(kind=kind, count=count), pos


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
@dataclass
class _ColumnMeta:
    enc: int
    offset: int
    length: int
    count: int
    stats: ColumnStats


@dataclass
class _GroupMeta:
    task_id: int
    start: float
    end: float
    file_ids: List[int]
    #: family -> (n_rows, per-column metadata in _COLUMNS order)
    families: Dict[str, Tuple[int, List[_ColumnMeta]]]


class _RunWriter:
    """Accumulate profiles into column chunks + footer metadata."""

    def __init__(self) -> None:
        self._payload = BytesIO()
        self._payload_pos = 4  # chunks are addressed past the magic
        self._strings: Dict[str, int] = {}
        self._groups: List[_GroupMeta] = []

    def _sid(self, s: Optional[str]) -> int:
        if s is None:
            return 0
        sid = self._strings.get(s)
        if sid is None:
            sid = len(self._strings) + 1
            self._strings[s] = sid
        return sid

    def _append_chunk(self, kind: str, values) -> _ColumnMeta:
        if kind in ("strid", "strid_flat", "int", "int_flat"):
            enc, payload = _encode_ints(values)
        elif kind in ("strid_delta", "int_delta"):
            enc, payload = _ENC_DELTA, _encode_delta(values)
        elif kind == "f64":
            enc = _ENC_F64
            payload = np.asarray(values, dtype="<f8").tobytes()
        elif kind == "optf64":
            enc, payload = _ENC_OPTF64, _encode_optf64(values)
        elif kind == "byte":
            enc, payload = _ENC_BYTES, bytes(values)
        else:
            raise ValueError(f"unknown column kind {kind!r}")
        meta = _ColumnMeta(enc=enc, offset=self._payload_pos,
                           length=len(payload), count=len(values),
                           stats=_stats_for(kind, values))
        self._payload.write(payload)
        self._payload_pos += len(payload)
        return meta

    # -- per-family column extraction ----------------------------------
    def _objprof_columns(self, items: List[DataObjectProfile]) -> Dict[str, list]:
        sid = self._sid
        return {
            "task": [sid(p.task) for p in items],
            "file": [sid(p.file) for p in items],
            "object_name": [sid(p.object_name) for p in items],
            "acquired": [p.acquired for p in items],
            "released": [p.released for p in items],
            "open_count": [p.open_count for p in items],
            "shape_len": [len(p.shape) for p in items],
            "shape": [d for p in items for d in p.shape],
            "dtype": [sid(p.dtype or None) for p in items],
            "layout": [sid(p.layout or None) for p in items],
            "nbytes": [p.nbytes for p in items],
            "reads": [p.reads for p in items],
            "writes": [p.writes for p in items],
            "elements_read": [p.elements_read for p in items],
            "elements_written": [p.elements_written for p in items],
        }

    def _session_columns(self, items: List[FileSession]) -> Dict[str, list]:
        sid = self._sid
        return {
            "task": [sid(s.task) for s in items],
            "file": [sid(s.file) for s in items],
            "open_time": [s.open_time for s in items],
            "close_time": [s.close_time for s in items],
            "read_ops": [s.read_ops for s in items],
            "write_ops": [s.write_ops for s in items],
            "read_bytes": [s.read_bytes for s in items],
            "write_bytes": [s.write_bytes for s in items],
            "sequential_ops": [s.sequential_ops for s in items],
            "sequential_raw_ops": [s.sequential_raw_ops for s in items],
            "metadata_ops": [s.metadata_ops for s in items],
            "raw_ops": [s.raw_ops for s in items],
            "data_objects_len": [len(s.data_objects) for s in items],
            "data_objects": [sid(o) for s in items for o in s.data_objects],
        }

    def _stats_columns(self, items: List[DatasetIoStats]) -> Dict[str, list]:
        sid = self._sid
        runs_per_row = [s.region_runs() for s in items]
        flat = [run for row in runs_per_row for run in row]
        return {
            "task": [sid(s.task) for s in items],
            "file": [sid(s.file) for s in items],
            "data_object": [sid(s.data_object) for s in items],
            "reads": [s.reads for s in items],
            "writes": [s.writes for s in items],
            "bytes_read": [s.bytes_read for s in items],
            "bytes_written": [s.bytes_written for s in items],
            "data_ops": [s.data_ops for s in items],
            "data_bytes": [s.data_bytes for s in items],
            "metadata_ops": [s.metadata_ops for s in items],
            "metadata_bytes": [s.metadata_bytes for s in items],
            "io_time": [s.io_time for s in items],
            "first_start": [s.first_start for s in items],
            "last_end": [s.last_end for s in items],
            "first_raw_op": [_RAW_OP_CODES[s.first_raw_op]
                             for s in items],
            "run_len": [len(row) for row in runs_per_row],
            "run_first": [first for first, _, _ in flat],
            "run_span": [last - first for first, last, _ in flat],
            "run_count": [count for _, _, count in flat],
        }

    def _record_columns(self, items: List[VfdIoRecord]) -> Dict[str, list]:
        sid = self._sid
        return {
            "task": [sid(r.task) for r in items],
            "file": [sid(r.file) for r in items],
            "data_object": [sid(r.data_object) for r in items],
            "flags": [_OP_CODES[r.op]
                      | (_IOCLASS_CODES[r.access_type] << 1)
                      for r in items],
            "offset": [r.offset for r in items],
            "nbytes": [r.nbytes for r in items],
            "start": [r.start for r in items],
            "duration": [r.duration for r in items],
        }

    def add_profile(self, profile) -> None:
        families: Dict[str, Tuple[int, List[_ColumnMeta]]] = {}
        extracted = {
            "objprofs": (len(profile.object_profiles),
                         self._objprof_columns(profile.object_profiles)),
            "sessions": (len(profile.file_sessions),
                         self._session_columns(profile.file_sessions)),
            "stats": (len(profile.dataset_stats),
                      self._stats_columns(profile.dataset_stats)),
            "records": (len(profile.io_records),
                        self._record_columns(profile.io_records)),
        }
        for family in _FAMILY_ORDER:
            n_rows, cols = extracted[family]
            metas = [self._append_chunk(kind, cols[name])
                     for name, kind in _COLUMNS[family]]
            families[family] = (n_rows, metas)
        self._groups.append(_GroupMeta(
            task_id=self._sid(profile.task),
            start=profile.span.start,
            end=profile.span.end,
            file_ids=[self._sid(f) for f in profile.files],
            families=families,
        ))

    def _footer(self) -> bytes:
        out = bytearray()
        _vu(out, len(self._strings))
        for s in self._strings:  # insertion order == id order
            raw = s.encode("utf-8")
            _vu(out, len(raw))
            out += raw
        _vu(out, len(self._groups))
        for g in self._groups:
            _vu(out, g.task_id)
            out += _F64.pack(g.start) + _F64.pack(g.end)
            _vu(out, len(g.file_ids))
            for fid in g.file_ids:
                _vu(out, fid)
            for family in _FAMILY_ORDER:
                n_rows, metas = g.families[family]
                _vu(out, n_rows)
                _vu(out, len(metas))
                for m in metas:
                    out.append(m.enc)
                    _vu(out, m.offset)
                    _vu(out, m.length)
                    _vu(out, m.count)
                    _write_stats(out, m.stats)
        return bytes(out)

    def write(self, fp: BinaryIO) -> None:
        footer = self._footer()
        fp.write(COLUMNAR_MAGIC)
        fp.write(self._payload.getvalue())
        fp.write(footer)
        fp.write(_U64.pack(len(footer)))
        fp.write(COLUMNAR_MAGIC)


def write_run(fp: BinaryIO, profiles: Iterable) -> None:
    """Stream-encode task profiles into one columnar run file."""
    writer = _RunWriter()
    for p in profiles:
        writer.add_profile(p)
    writer.write(fp)


def encode_run(profiles: Iterable) -> bytes:
    """Encode task profiles to one columnar run file, in memory."""
    buf = BytesIO()
    write_run(buf, profiles)
    return buf.getvalue()


def encode_columnar(profile) -> bytes:
    """Encode one :class:`TaskProfile` as a single-group columnar file."""
    return encode_run([profile])


def compact_profiles(profiles: Sequence, out_path: str) -> int:
    """Merge profiles into one sorted run file; returns bytes written.

    Groups are ordered by task start time with ties keeping the input
    order — the exact sequence :meth:`ParallelAnalyzer.load` produces
    for the same profiles, so row and compacted analyses see identical
    profile sequences (and therefore build identical graphs).
    """
    ordered = sorted(profiles, key=lambda p: p.span.start)
    data = encode_run(ordered)
    from repro.ioutil import atomic_write_bytes

    atomic_write_bytes(out_path, data)
    return len(data)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
@dataclass
class StatsColumns:
    """The joined-stats family of one group, as parallel column lists.

    Exactly the fields :meth:`GraphBuilder.add_stats_columns` consumes;
    ``region_runs`` is decoded only when region wiring asks for it.
    """

    file: List[str]
    data_object: List[str]
    reads: List[int]
    writes: List[int]
    bytes_read: List[int]
    bytes_written: List[int]
    data_ops: List[int]
    data_bytes: List[int]
    metadata_ops: List[int]
    metadata_bytes: List[int]
    io_time: List[float]
    first_start: List[Optional[float]]
    last_end: List[Optional[float]]
    region_runs: Optional[List[List[Tuple[int, int, int]]]] = None

    def __len__(self) -> int:
        return len(self.file)


class GroupReader:
    """Lazy column access to one profile (group) of a columnar file."""

    def __init__(self, reader: "RunReader", meta: _GroupMeta) -> None:
        self._reader = reader
        self._meta = meta
        self._cache: Dict[Tuple[str, str], list] = {}

    # -- identity ------------------------------------------------------
    @property
    def task(self) -> Optional[str]:
        return self._reader.strings[self._meta.task_id]

    @property
    def start(self) -> float:
        return self._meta.start

    @property
    def end(self) -> float:
        return self._meta.end

    @property
    def files(self) -> List[str]:
        strings = self._reader.strings
        return [strings[i] for i in self._meta.file_ids]

    def n_rows(self, family: str) -> int:
        return self._meta.families[family][0]

    # -- columns -------------------------------------------------------
    def column_meta(self, family: str, name: str) -> Optional[_ColumnMeta]:
        idx = _COLUMN_INDEX[family].get(name)
        if idx is None:
            return None
        metas = self._meta.families[family][1]
        return metas[idx] if idx < len(metas) else None

    def column(self, family: str, name: str) -> list:
        """Decode one column chunk (cached)."""
        key = (family, name)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        meta = self.column_meta(family, name)
        if meta is None:
            raise KeyError(f"no column {family}.{name}")
        kind = _COLUMN_KIND[family][name]
        buf = self._reader.slice(meta.offset, meta.length)
        if kind == "f64":
            values = _decode_f64(buf, meta.count)
        elif kind == "optf64":
            values = _decode_optf64(buf, meta.count)
        elif kind == "byte":
            values = list(buf[:meta.count])
        else:
            values = _decode_ints(meta.enc, buf, meta.count)
        if (name not in _FLAT_COLUMNS[family]
                and len(values) != self.n_rows(family)):
            raise ValueError(f"column {family}.{name} holds {len(values)} "
                             f"values for {self.n_rows(family)} rows")
        self._cache[key] = values
        return values

    def strid_column(self, family: str, name: str) -> list:
        strings = self._reader.strings
        return [strings[i] for i in self.column(family, name)]

    def _split(self, lens: List[int], flat: list) -> List[list]:
        if sum(lens) != len(flat):
            raise ValueError(f"flattened column holds {len(flat)} values, "
                             f"its lengths sum to {sum(lens)}")
        out, pos = [], 0
        for n in lens:
            out.append(flat[pos:pos + n])
            pos += n
        return out

    def region_runs_rows(self) -> List[List[Tuple[int, int, int]]]:
        """Per-stats-row coalesced page runs, rebuilt from the flat
        ``run_*`` columns."""
        lens = self.column("stats", "run_len")
        firsts = self.column("stats", "run_first")
        spans = self.column("stats", "run_span")
        counts = self.column("stats", "run_count")
        flat = [(f, f + s, c)
                for f, s, c in zip(firsts, spans, counts, strict=True)]
        return self._split(lens, flat)

    def stats_columns(self, with_region_runs: bool = False) -> StatsColumns:
        """The stats family as parallel lists, strings resolved.

        Raises :class:`CorruptTrace` when the chunks do not decode."""
        try:
            return self._stats_columns(with_region_runs)
        except _DECODE_ERRORS as exc:
            raise self._reader._corrupt(exc) from exc

    def _stats_columns(self, with_region_runs: bool) -> StatsColumns:
        col = self.column
        return StatsColumns(
            file=self.strid_column("stats", "file"),
            data_object=self.strid_column("stats", "data_object"),
            reads=col("stats", "reads"),
            writes=col("stats", "writes"),
            bytes_read=col("stats", "bytes_read"),
            bytes_written=col("stats", "bytes_written"),
            data_ops=col("stats", "data_ops"),
            data_bytes=col("stats", "data_bytes"),
            metadata_ops=col("stats", "metadata_ops"),
            metadata_bytes=col("stats", "metadata_bytes"),
            io_time=col("stats", "io_time"),
            first_start=col("stats", "first_start"),
            last_end=col("stats", "last_end"),
            region_runs=self.region_runs_rows() if with_region_runs else None,
        )

    # -- row materialization -------------------------------------------
    def object_profiles(self) -> List[DataObjectProfile]:
        col, scol = self.column, self.strid_column
        shapes = self._split(col("objprofs", "shape_len"),
                             col("objprofs", "shape"))
        return [
            DataObjectProfile(
                task=task, file=file, object_name=obj, acquired=acq,
                released=rel, open_count=oc, shape=tuple(shape),
                dtype=dtype or "", layout=layout or "", nbytes=nb,
                reads=rd, writes=wr, elements_read=er, elements_written=ew,
            )
            for task, file, obj, acq, rel, oc, shape, dtype, layout, nb,
                rd, wr, er, ew in zip(
                scol("objprofs", "task"), scol("objprofs", "file"),
                scol("objprofs", "object_name"), col("objprofs", "acquired"),
                col("objprofs", "released"), col("objprofs", "open_count"),
                shapes, scol("objprofs", "dtype"), scol("objprofs", "layout"),
                col("objprofs", "nbytes"), col("objprofs", "reads"),
                col("objprofs", "writes"), col("objprofs", "elements_read"),
                col("objprofs", "elements_written"))
        ]

    def file_sessions(self) -> List[FileSession]:
        col, scol = self.column, self.strid_column
        strings = self._reader.strings
        objects = self._split(
            col("sessions", "data_objects_len"),
            [strings[i] for i in col("sessions", "data_objects")])
        return [
            FileSession(
                task=task, file=file, open_time=ot, close_time=ct,
                read_ops=ro, write_ops=wo, read_bytes=rb, write_bytes=wb,
                sequential_ops=so, sequential_raw_ops=sro,
                metadata_ops=mo, raw_ops=rawo, data_objects=objs,
            )
            for task, file, ot, ct, ro, wo, rb, wb, so, sro, mo, rawo,
                objs in zip(
                scol("sessions", "task"), scol("sessions", "file"),
                col("sessions", "open_time"), col("sessions", "close_time"),
                col("sessions", "read_ops"), col("sessions", "write_ops"),
                col("sessions", "read_bytes"), col("sessions", "write_bytes"),
                col("sessions", "sequential_ops"),
                col("sessions", "sequential_raw_ops"),
                col("sessions", "metadata_ops"), col("sessions", "raw_ops"),
                objects)
        ]

    def dataset_stats(self) -> List[DatasetIoStats]:
        col, scol = self.column, self.strid_column
        out = []
        for (task, file, obj, rd, wr, br, bw, dops, dbytes, mops, mbytes,
                io_time, first, last, raw_op, runs) in zip(
                scol("stats", "task"), scol("stats", "file"),
                scol("stats", "data_object"), col("stats", "reads"),
                col("stats", "writes"), col("stats", "bytes_read"),
                col("stats", "bytes_written"), col("stats", "data_ops"),
                col("stats", "data_bytes"), col("stats", "metadata_ops"),
                col("stats", "metadata_bytes"), col("stats", "io_time"),
                col("stats", "first_start"), col("stats", "last_end"),
                col("stats", "first_raw_op"), self.region_runs_rows()):
            s = DatasetIoStats(
                task=task, file=file, data_object=obj, reads=rd, writes=wr,
                bytes_read=br, bytes_written=bw, data_ops=dops,
                data_bytes=dbytes, metadata_ops=mops,
                metadata_bytes=mbytes, io_time=io_time, first_start=first,
                last_end=last, first_raw_op=_RAW_OP_NAMES[raw_op],
            )
            s.set_region_runs(runs)
            out.append(s)
        return out

    def io_records(self) -> List[VfdIoRecord]:
        col, scol = self.column, self.strid_column
        return [
            VfdIoRecord(task, file, _OP_NAMES[flags & 1], offset, nbytes,
                        start, dur, _IOCLASS_VALUES[(flags >> 1) & 1], obj)
            for task, file, obj, flags, offset, nbytes, start, dur in zip(
                scol("records", "task"), scol("records", "file"),
                scol("records", "data_object"), col("records", "flags"),
                col("records", "offset"), col("records", "nbytes"),
                col("records", "start"), col("records", "duration"))
        ]

    def to_profile(self, with_io_records: bool = True):
        """Materialize the full row-form :class:`TaskProfile`.

        With ``with_io_records=False`` the per-operation record columns
        are never touched — they cost nothing.  Raises
        :class:`CorruptTrace` when the chunks do not decode.
        """
        from repro.mapper.mapper import TaskProfile
        from repro.simclock import TimeSpan

        try:
            return TaskProfile(
                task=self.task,
                span=TimeSpan(self.start, self.end),
                files=self.files,
                object_profiles=self.object_profiles(),
                file_sessions=self.file_sessions(),
                io_records=self.io_records() if with_io_records else [],
                dataset_stats=self.dataset_stats(),
            )
        except _DECODE_ERRORS as exc:
            raise self._reader._corrupt(exc) from exc


class RunReader:
    """Footer-indexed reader over a columnar trace or compacted run.

    Opens in O(footer): the payload is only touched column-by-column as
    queries ask for it.  :meth:`open` maps the file with ``mmap`` so a
    many-GB run costs address space, not resident memory.

    Every failure to decode — at open time or on a later column read
    through :meth:`GroupReader.to_profile` /
    :meth:`GroupReader.stats_columns` — raises :class:`CorruptTrace`
    naming ``source``.
    """

    def __init__(self, data, mapped=None, fileobj=None,
                 source: str = "<memory>") -> None:
        if (len(data) < 16 or data[:4] != COLUMNAR_MAGIC
                or data[-4:] != COLUMNAR_MAGIC):
            raise CorruptTrace(source, "bad magic")
        self.source = source
        self._data = data
        self._mapped = mapped
        self._fileobj = fileobj
        footer_len = _U64.unpack(bytes(data[-12:-4]))[0]
        footer_end = len(data) - 12
        footer_start = footer_end - footer_len
        if footer_start < 4:
            raise CorruptTrace(source, "bad footer length")
        self._parse_footer(bytes(data[footer_start:footer_end]))

    def _corrupt(self, exc: BaseException) -> CorruptTrace:
        """The :class:`CorruptTrace` for a decoder failure ``exc``."""
        return CorruptTrace(self.source, f"{type(exc).__name__}: {exc}")

    @classmethod
    def from_bytes(cls, data: bytes, source: str = "<memory>") -> "RunReader":
        return cls(data, source=source)

    @classmethod
    def open(cls, path: str) -> "RunReader":
        fp = open(path, "rb")
        try:
            mapped = mmap.mmap(fp.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            # Zero-length or unmappable file: fall back to a plain read.
            data = fp.read()
            fp.close()
            return cls(data, source=str(path))
        try:
            return cls(mapped, mapped=mapped, fileobj=fp, source=str(path))
        except CorruptTrace:
            mapped.close()
            fp.close()
            raise

    def close(self) -> None:
        if self._mapped is not None:
            self._mapped.close()
            self._mapped = None
        if self._fileobj is not None:
            self._fileobj.close()
            self._fileobj = None

    def __enter__(self) -> "RunReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __iter__(self) -> Iterator[GroupReader]:
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def slice(self, offset: int, length: int) -> bytes:
        return bytes(self._data[offset:offset + length])

    def _parse_footer(self, buf: bytes) -> None:
        try:
            pos = 0
            n_strings, pos = _read_vu(buf, pos)
            strings: List[Optional[str]] = [None]
            for _ in range(n_strings):
                n, pos = _read_vu(buf, pos)
                strings.append(buf[pos:pos + n].decode("utf-8"))
                pos += n
            self.strings = strings
            n_ids = len(strings)
            n_groups, pos = _read_vu(buf, pos)
            self.groups: List[GroupReader] = []
            for _ in range(n_groups):
                task_id, pos = _read_vu(buf, pos)
                start = _F64.unpack_from(buf, pos)[0]
                end = _F64.unpack_from(buf, pos + 8)[0]
                pos += 16
                n_files, pos = _read_vu(buf, pos)
                file_ids = []
                for _ in range(n_files):
                    fid, pos = _read_vu(buf, pos)
                    file_ids.append(fid)
                # Footer-only accessors (task, files, distinct page stats)
                # resolve ids without a decode boundary: check them here.
                if max(file_ids + [task_id]) >= n_ids:
                    raise IndexError("string id out of range")
                families: Dict[str, Tuple[int, List[_ColumnMeta]]] = {}
                for family in _FAMILY_ORDER:
                    n_rows, pos = _read_vu(buf, pos)
                    n_cols, pos = _read_vu(buf, pos)
                    metas = []
                    for _ in range(n_cols):
                        enc = buf[pos]
                        pos += 1
                        offset, pos = _read_vu(buf, pos)
                        length, pos = _read_vu(buf, pos)
                        count, pos = _read_vu(buf, pos)
                        stats, pos = _read_stats(buf, pos, count)
                        if max(stats.distinct_ids or (0,)) >= n_ids:
                            raise IndexError("string id out of range")
                        metas.append(_ColumnMeta(
                            enc=enc, offset=offset, length=length,
                            count=count, stats=stats))
                    for (name, _), m in zip(_COLUMNS[family], metas):
                        if (m.count != n_rows
                                and name not in _FLAT_COLUMNS[family]):
                            raise ValueError(
                                f"column {family}.{name} counts {m.count} "
                                f"values for {n_rows} rows")
                    families[family] = (n_rows, metas)
                self.groups.append(GroupReader(self, _GroupMeta(
                    task_id=task_id, start=start, end=end,
                    file_ids=file_ids, families=families)))
        except _DECODE_ERRORS as exc:
            raise self._corrupt(exc) from exc

    def profiles(self, with_io_records: bool = True) -> List:
        """Materialize every group as a row-form :class:`TaskProfile`."""
        return [g.to_profile(with_io_records=with_io_records)
                for g in self.groups]


def decode_run(data: bytes, with_io_records: bool = True,
               source: str = "<memory>") -> List:
    """Decode every profile of a columnar file (single- or multi-group).

    Raises :class:`CorruptTrace` naming ``source`` when ``data`` does not
    decode."""
    return RunReader.from_bytes(data, source=source).profiles(
        with_io_records=with_io_records)


def decode_columnar(data: bytes, with_io_records: bool = True,
                    source: str = "<memory>"):
    """Decode a single-profile columnar trace (inverse of
    :func:`encode_columnar`)."""
    profiles = decode_run(data, with_io_records=with_io_records,
                          source=source)
    if len(profiles) != 1:
        raise ValueError(
            f"expected a single-profile columnar trace, found "
            f"{len(profiles)} groups (use decode_run for run files)")
    return profiles[0]


# ----------------------------------------------------------------------
# Bulk graph construction
# ----------------------------------------------------------------------
def build_graph_from_groups(
    kind: str,
    groups: Sequence[GroupReader],
    with_regions: bool = False,
    region_bytes: int = 65536,
    page_size: int = 4096,
):
    """Build an FTG/SDG straight from column chunks.

    Groups are fed in start-time order (stable, like the loaders sort),
    through :meth:`GraphBuilder.add_stats_columns` — byte-identical
    output to the row path over the same profiles, without materializing
    a single per-record object.
    """
    from repro.analyzer.graphs import GraphBuilder

    builder = GraphBuilder(kind, with_regions=with_regions,
                           region_bytes=region_bytes, page_size=page_size)
    for g in sorted(groups, key=lambda g: g.start):
        builder.add_stats_columns(
            g.task or "", g.start, g.end,
            g.stats_columns(with_region_runs=builder.with_regions))
    return builder.build(copy=False)
