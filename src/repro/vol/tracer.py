"""DaYu's VOL profiler: object-level semantic tracing.

Records the high-level semantics of the paper's Table I for every data
object a task touches:

1. task name;
2. file name(s) the task interacted with;
3. object lifetimes (``T_release - T_acquire``);
4. object descriptions (shape, type, layout, size);
5. object accesses (reads/writes with element counts and volumes).

Profiles accumulate in a hash table per (file, object) pair — *including
for closed datasets*, so a dataset reopened many times keeps one profile —
and are emitted to the finished-record list only when the owning file
closes.  That deferred logging is exactly the behaviour the paper credits
for the corner-case overhead of frequent object open/close cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.simclock import SimClock
from repro.vfd.channel import VolVfdChannel

__all__ = ["VolCosts", "DataObjectProfile", "VolTracer"]

#: Account name for VOL tracking overhead on the simulated clock.
VOL_TRACKER_ACCOUNT = "dayu.vol.access_tracker"


@dataclass(frozen=True)
class VolCosts:
    """Modeled per-event cost of the VOL profiler, in simulated seconds.

    ``per_event_growth`` models the cost of walking an ever-larger live
    profile table on each object event — the reason the paper's corner
    case ("repeated reads of the same datasets within the same task")
    shows elevated VOL overhead.
    """

    per_object_event: float = 1.5e-6  # dataset/group open or close
    per_access_event: float = 0.8e-6  # dataset read or write
    per_file_event: float = 2.5e-6    # file open / close (incl. deferred log)
    per_event_growth: float = 4.0e-9


@dataclass
class DataObjectProfile:
    """Accumulated semantics for one data object within one file (Table I).

    The compact on-disk form is produced by :mod:`repro.mapper.columnar`.
    """

    task: Optional[str]
    file: str
    object_name: str
    acquired: float
    released: Optional[float] = None
    open_count: int = 0
    shape: Tuple[int, ...] = ()
    dtype: str = ""
    layout: str = ""
    nbytes: int = 0
    reads: int = 0
    writes: int = 0
    elements_read: int = 0
    elements_written: int = 0

    @property
    def lifetime(self) -> Optional[float]:
        """``T_release - T_acquire`` of the most recent open span."""
        if self.released is None:
            return None
        return self.released - self.acquired

    @property
    def accessed(self) -> bool:
        return (self.reads + self.writes) > 0

    @property
    def access_kind(self) -> str:
        """``"read_only"`` / ``"write_only"`` / ``"read_write"`` / ``"none"``."""
        if self.reads and self.writes:
            return "read_write"
        if self.reads:
            return "read_only"
        if self.writes:
            return "write_only"
        return "none"

    def to_json_dict(self) -> dict:
        return {
            "task": self.task,
            "file": self.file,
            "object": self.object_name,
            "acquired": self.acquired,
            "released": self.released,
            "lifetime": self.lifetime,
            "open_count": self.open_count,
            "shape": list(self.shape),
            "dtype": self.dtype,
            "layout": self.layout,
            "nbytes": self.nbytes,
            "reads": self.reads,
            "writes": self.writes,
            "elements_read": self.elements_read,
            "elements_written": self.elements_written,
            "access_kind": self.access_kind,
        }


class VolTracer:
    """Collector of object-level semantics for one task.

    Args:
        clock: Simulated clock tracker overhead is charged to.
        channel: The VOL↔VFD shared channel (this tracer reads the task
            name from it so VOL and VFD traces agree).
        costs: Modeled profiler costs.
        emit: Optional live-event sink (``repro.monitor`` bus publish);
            when set, every file/object lifecycle event and access is
            also published as a typed monitor event.
    """

    def __init__(
        self,
        clock: SimClock,
        channel: VolVfdChannel,
        costs: VolCosts = VolCosts(),
        emit: Optional[Callable] = None,
    ) -> None:
        self.clock = clock
        self.channel = channel
        self.costs = costs
        self.emit = emit
        self._events = None
        if emit is not None:
            # Safe only at runtime with a live sink (the monitor package
            # is fully imported by whoever built the sink); a module-level
            # import would cycle back through repro.monitor.  Bound once
            # here to keep the per-event path free of import-system
            # lookups.
            from repro.monitor import events as monitor_events

            self._events = monitor_events
        #: Live profiles per (file, object) — the in-memory hash table.
        self._live: Dict[Tuple[str, str], DataObjectProfile] = {}
        #: Emitted profiles (appended when the owning file closes).
        self.profiles: List[DataObjectProfile] = []
        #: Files the current task has interacted with, in first-touch order.
        self.files_touched: List[str] = []

    # ------------------------------------------------------------------
    # File lifecycle
    # ------------------------------------------------------------------
    def on_file_open(self, path: str) -> None:
        if path not in self.files_touched:
            self.files_touched.append(path)
        self.clock.advance(self.costs.per_file_event, VOL_TRACKER_ACCOUNT)
        if self.emit is not None:
            self.emit(self._events.FileOpened(time=self.clock.now,
                                 task=self.channel.current_task, file=path))

    def on_file_close(self, path: str) -> None:
        """Emit (deferred-log) every profile belonging to ``path``."""
        now = self.clock.now
        emitted = [key for key in self._live if key[0] == path]
        for key in emitted:
            profile = self._live.pop(key)
            if profile.released is None:
                profile.released = now
            self.profiles.append(profile)
        # Deferred logging cost is proportional to the emitted profiles.
        self.clock.advance(
            self.costs.per_file_event + self.costs.per_object_event * len(emitted),
            VOL_TRACKER_ACCOUNT,
        )
        if self.emit is not None:
            self.emit(self._events.FileClosed(time=self.clock.now,
                                 task=self.channel.current_task, file=path))

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------
    def _profile(self, file: str, object_name: str) -> DataObjectProfile:
        key = (file, object_name)
        profile = self._live.get(key)
        if profile is None:
            profile = DataObjectProfile(
                task=self.channel.current_task,
                file=file,
                object_name=object_name,
                acquired=self.clock.now,
            )
            self._live[key] = profile
        return profile

    def on_object_open(
        self,
        file: str,
        object_name: str,
        shape: Tuple[int, ...] = (),
        dtype: str = "",
        layout: str = "",
        nbytes: int = 0,
    ) -> None:
        profile = self._profile(file, object_name)
        profile.open_count += 1
        profile.shape = shape
        profile.dtype = dtype
        profile.layout = layout
        profile.nbytes = nbytes
        if profile.open_count > 1:
            # Reopened: extend the lifetime span rather than reset it.
            profile.released = None
        now = self.clock.advance(self._event_cost(self.costs.per_object_event),
                                 VOL_TRACKER_ACCOUNT)
        if self.emit is not None:
            # Fields in declaration order: time, task, file, data_object,
            # shape, dtype, layout, nbytes (one event per dataset open).
            self.emit(self._events.DatasetOpened(
                now, self.channel.current_task, file, object_name,
                tuple(shape), dtype, layout, nbytes))

    def on_object_close(self, file: str, object_name: str) -> None:
        profile = self._profile(file, object_name)
        profile.released = self.clock.now
        self.clock.advance(self._event_cost(self.costs.per_object_event),
                           VOL_TRACKER_ACCOUNT)
        if self.emit is not None:
            self.emit(self._events.DatasetClosed(
                time=self.clock.now, task=self.channel.current_task,
                file=file, data_object=object_name))

    def _event_cost(self, base: float) -> float:
        """Base cost plus the growing-profile-table walk component."""
        return base + len(self._live) * self.costs.per_event_growth

    # ------------------------------------------------------------------
    # Object access
    # ------------------------------------------------------------------
    def on_access(
        self, file: str, object_name: str, op: str, elements: int, nbytes: int
    ) -> None:
        profile = self._profile(file, object_name)
        if op == "read":
            profile.reads += 1
            profile.elements_read += elements
        elif op == "write":
            profile.writes += 1
            profile.elements_written += elements
        else:
            raise ValueError(f"unknown access op {op!r}")
        now = self.clock.advance(self._event_cost(self.costs.per_access_event),
                                 VOL_TRACKER_ACCOUNT)
        if self.emit is not None:
            # Fields in declaration order: time, task, file, data_object,
            # op, elements, nbytes (one event per dataset access).
            self.emit(self._events.DatasetAccess(
                now, self.channel.current_task, file, object_name, op,
                elements, nbytes))

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def all_profiles(self) -> List[DataObjectProfile]:
        """Emitted plus still-live profiles (for mid-run inspection)."""
        return self.profiles + list(self._live.values())

    def serialize(self) -> bytes:
        """Trace as JSON bytes — the unit of the VOL storage overhead."""
        payload = {
            "files": self.files_touched,
            "profiles": [p.to_json_dict() for p in self.all_profiles()],
        }
        return json.dumps(payload).encode()

    @property
    def storage_bytes(self) -> int:
        return len(self.serialize())
