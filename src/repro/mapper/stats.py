"""The Characteristic Mapper: joining VOL semantics with VFD I/O.

This is the step HDF5's abstraction obscures and DaYu's shared-memory
channel makes possible: every VFD record already carries the name of the
data object the VOL announced, so the join groups low-level operations by
``(file, data_object)`` and splits them into metadata vs. raw-data classes.

Low-level operations that happen outside any object scope (superblock,
root-group headers, heap directory flushes at file close) belong to the
file itself; they are grouped under the pseudo-object
:data:`FILE_METADATA_OBJECT` — the "File-Metadata" node the paper's SDG
figures show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.vfd.base import IoClass
from repro.vfd.tracing import VfdIoRecord

_METADATA = IoClass.METADATA

__all__ = ["DatasetIoStats", "map_characteristics", "FILE_METADATA_OBJECT"]

#: Pseudo data-object name for file-level metadata I/O.
FILE_METADATA_OBJECT = "File-Metadata"


def _coalesce_runs(raw: List[Tuple[int, int, int]]) -> List[Tuple[int, int, int]]:
    """Merge raw ``(first_page, last_page, count)`` increments into sorted,
    disjoint, maximal runs of uniform count.

    A boundary sweep over the run endpoints: O(R log R) in the number of
    raw increments, independent of how many pages each increment spans —
    the property that makes recording a 1 GB write O(1) instead of one
    dict update per 4 KiB page.
    """
    if not raw:
        return []
    deltas: Dict[int, int] = {}
    for first, last, count in raw:
        deltas[first] = deltas.get(first, 0) + count
        deltas[last + 1] = deltas.get(last + 1, 0) - count
    out: List[Tuple[int, int, int]] = []
    level = 0
    prev: Optional[int] = None
    for boundary in sorted(deltas):
        if level > 0 and prev is not None and boundary > prev:
            if out and out[-1][2] == level and out[-1][1] + 1 == prev:
                out[-1] = (out[-1][0], boundary - 1, level)
            else:
                out.append((prev, boundary - 1, level))
        level += deltas[boundary]
        prev = boundary
    return out


@dataclass
class DatasetIoStats:
    """Joined I/O statistics for one data object in one file in one task.

    These are the quantities the paper's Figure 7 pop-up reports (access
    volume/count, average sizes split by HDF5 data vs. metadata, operation
    kind, bandwidth), plus the page-region histogram the SDG's address
    nodes are built from.
    """

    task: Optional[str]
    file: str
    data_object: str
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    data_ops: int = 0
    data_bytes: int = 0
    metadata_ops: int = 0
    metadata_bytes: int = 0
    io_time: float = 0.0
    first_start: Optional[float] = None
    last_end: Optional[float] = None
    #: Operation kind ("read"/"write") of the first raw-data access —
    #: distinguishes read-after-write from write-after-read patterns.
    first_raw_op: Optional[str] = None
    #: Page-run increments ``(first_page, last_page, count)``; coalesced
    #: lazily (see :meth:`region_runs`).  Appending one run per record keeps
    #: :meth:`observe` O(1) regardless of how many pages an access spans.
    _region_runs: List[Tuple[int, int, int]] = field(
        default_factory=list, init=False, repr=False, compare=False)
    _runs_coalesced: bool = field(
        default=True, init=False, repr=False, compare=False)
    _regions_cache: Optional[Dict[int, int]] = field(
        default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def access_count(self) -> int:
        return self.reads + self.writes

    @property
    def access_volume(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def average_access_size(self) -> float:
        return self.access_volume / self.access_count if self.access_count else 0.0

    @property
    def average_data_size(self) -> float:
        return self.data_bytes / self.data_ops if self.data_ops else 0.0

    @property
    def average_metadata_size(self) -> float:
        return self.metadata_bytes / self.metadata_ops if self.metadata_ops else 0.0

    @property
    def operation(self) -> str:
        """``"read_only"`` / ``"write_only"`` / ``"read_write"`` / ``"none"``."""
        if self.reads and self.writes:
            return "read_write"
        if self.reads:
            return "read_only"
        if self.writes:
            return "write_only"
        return "none"

    @property
    def bandwidth(self) -> float:
        """Achieved bytes/second over the object's active I/O time."""
        return self.access_volume / self.io_time if self.io_time > 0 else 0.0

    @property
    def metadata_only(self) -> bool:
        """True when the object was touched but its data never moved —
        the tell-tale the paper uses to show DDMD's training task reads
        only the contact_map's metadata."""
        return self.access_count > 0 and self.data_ops == 0

    def observe(self, record: VfdIoRecord, page_size: int) -> None:
        """Fold one VFD record into the statistics."""
        nbytes = record.nbytes
        if record.op == "read":
            self.reads += 1
            self.bytes_read += nbytes
        else:
            self.writes += 1
            self.bytes_written += nbytes
        if record.access_type is _METADATA:
            self.metadata_ops += 1
            self.metadata_bytes += nbytes
        else:
            if self.first_raw_op is None:
                self.first_raw_op = record.op
            self.data_ops += 1
            self.data_bytes += nbytes
        start = record.start
        self.io_time += record.duration
        if self.first_start is None or start < self.first_start:
            self.first_start = start
        end = start + record.duration  # VfdIoRecord.end
        if self.last_end is None or end > self.last_end:
            self.last_end = end
        # VfdIoRecord.region(page_size), with page_size checked once per
        # fold by map_characteristics.
        offset = record.offset
        self._region_runs.append((offset // page_size,
                                  max(offset, offset + nbytes - 1) // page_size,
                                  1))
        self._runs_coalesced = False
        self._regions_cache = None

    # ------------------------------------------------------------------
    # Page-region histogram
    # ------------------------------------------------------------------
    def region_runs(self) -> List[Tuple[int, int, int]]:
        """The page histogram as sorted, disjoint ``(first_page, last_page,
        count)`` runs — the compact form the columnar trace stores and the
        SDG region wiring consumes."""
        if not self._runs_coalesced:
            self._region_runs = _coalesce_runs(self._region_runs)
            self._runs_coalesced = True
        return list(self._region_runs)

    def set_region_runs(self, runs: Iterable[Tuple[int, int, int]]) -> None:
        """Replace the histogram with already-coalesced runs (trace decode)."""
        self._region_runs = list(runs)
        self._runs_coalesced = True
        self._regions_cache = None

    @property
    def regions(self) -> Dict[int, int]:
        """Per-page view of the histogram: page index -> op count.

        Materialized lazily from the run representation; prefer
        :meth:`region_runs` in code that can work with intervals.
        """
        if self._regions_cache is None:
            out: Dict[int, int] = {}
            for first, last, count in self.region_runs():
                for page in range(first, last + 1):
                    out[page] = count
            self._regions_cache = out
        return self._regions_cache

    @regions.setter
    def regions(self, mapping: Mapping[int, int]) -> None:
        self._region_runs = [(p, p, c) for p, c in sorted(mapping.items())]
        self._runs_coalesced = False  # sweep merges adjacent equal counts
        self._regions_cache = None

    def to_json_dict(self) -> dict:
        return {
            "task": self.task,
            "file": self.file,
            "data_object": self.data_object,
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "data_ops": self.data_ops,
            "data_bytes": self.data_bytes,
            "metadata_ops": self.metadata_ops,
            "metadata_bytes": self.metadata_bytes,
            "io_time": self.io_time,
            "first_start": self.first_start,
            "last_end": self.last_end,
            "first_raw_op": self.first_raw_op,
            "operation": self.operation,
            "bandwidth": self.bandwidth,
            "regions": {str(k): v for k, v in sorted(self.regions.items())},
        }


def map_characteristics(
    records: Iterable[VfdIoRecord], page_size: int
) -> List[DatasetIoStats]:
    """Group VFD records by (file, data object) into joined statistics.

    Records without an object scope are attributed to
    :data:`FILE_METADATA_OBJECT` of their file.  Results are ordered by
    first touch.
    """
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    by_key: Dict[Tuple[str, str], DatasetIoStats] = {}
    for record in records:
        obj = record.data_object or FILE_METADATA_OBJECT
        key = (record.file, obj)
        stats = by_key.get(key)
        if stats is None:
            stats = DatasetIoStats(task=record.task, file=record.file, data_object=obj)
            by_key[key] = stats
        stats.observe(record, page_size)
    return list(by_key.values())
