"""Per-task orchestration of DaYu's profiling stack.

:class:`DataSemanticMapper` is what a workflow runner (or a user script)
interacts with: it scopes tasks, hands out instrumented file handles, and
at each task's end runs the Characteristic Mapper join to produce a
:class:`TaskProfile` — the self-contained unit of trace data the offline
Workflow Analyzer consumes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional

from repro.mapper import columnar
from repro.mapper.config import DaYuConfig
from repro.mapper.stats import DatasetIoStats, map_characteristics
from repro.posix.simfs import SimFS
from repro.simclock import SimClock, TimeSpan
from repro.vfd.channel import VolVfdChannel
from repro.vfd.tracing import FileSession, VfdIoRecord, VfdTracer
from repro.vol.objects import VolFile
from repro.vol.tracer import DataObjectProfile, VolTracer

__all__ = ["DataSemanticMapper", "TaskContext", "TaskProfile"]

CHARACTERISTIC_MAPPER_ACCOUNT = "dayu.characteristic_mapper"


@dataclass
class TaskProfile:
    """Everything DaYu recorded about one task's data interactions."""

    task: str
    span: TimeSpan
    files: List[str]
    object_profiles: List[DataObjectProfile]
    file_sessions: List[FileSession]
    io_records: List[VfdIoRecord]
    dataset_stats: List[DatasetIoStats]

    @property
    def duration(self) -> float:
        return self.span.duration

    def stats_for(self, data_object: str) -> List[DatasetIoStats]:
        """All joined stats rows for a given data object name (O(1) via a
        lazily built index over the Characteristic Mapper output)."""
        index = self.__dict__.get("_stats_index")
        if index is None:
            index = {}
            for s in self.dataset_stats:
                index.setdefault(s.data_object, []).append(s)
            self.__dict__["_stats_index"] = index
        return list(index.get(data_object, ()))

    def to_json_dict(self) -> dict:
        return {
            "task": self.task,
            "start": self.span.start,
            "end": self.span.end,
            "files": self.files,
            "object_profiles": [p.to_json_dict() for p in self.object_profiles],
            "file_sessions": [s.to_json_dict() for s in self.file_sessions],
            "io_records": [r.to_json_dict() for r in self.io_records],
            "dataset_stats": [s.to_json_dict() for s in self.dataset_stats],
        }

    def serialize(self) -> bytes:
        """The JSON interchange form of the profile."""
        return json.dumps(self.to_json_dict()).encode()

    def serialize_columnar(self) -> bytes:
        """The columnar binary form (:mod:`repro.mapper.columnar`)."""
        return columnar.encode_columnar(self)

    @property
    def storage_bytes(self) -> int:
        """Size of the persisted JSON trace."""
        return len(self.serialize())

    def _columnar_bytes_of(self, **families) -> int:
        """Columnar bytes the given field families add to an otherwise
        empty trace — the fixed container (magic, footer skeleton of the
        empty column chunks) is not charged to any family."""
        bare = TaskProfile(task=None, span=self.span, files=[],
                           object_profiles=[], file_sessions=[],
                           io_records=[], dataset_stats=[])
        return (len(columnar.encode_columnar(replace(bare, **families)))
                - len(columnar.encode_columnar(bare)))

    @property
    def vfd_binary_bytes(self) -> int:
        """Real encoded size of the VFD trace (per-op records + sessions)
        in the columnar format — the paper's Figure 9d numerator."""
        return self._columnar_bytes_of(io_records=self.io_records,
                                       file_sessions=self.file_sessions)

    @property
    def vol_binary_bytes(self) -> int:
        """Real encoded size of the VOL trace (per-object profiles) in
        the columnar format."""
        return self._columnar_bytes_of(object_profiles=self.object_profiles)


class TaskContext:
    """The live profiling context of one executing task.

    Obtained from :meth:`DataSemanticMapper.task`; provides :meth:`open`
    to create instrumented file handles.
    """

    def __init__(self, mapper: "DataSemanticMapper", task: str) -> None:
        self.mapper = mapper
        self.task = task
        self.channel = VolVfdChannel()
        self.channel.set_task(task)
        config = mapper.config
        emit = mapper.monitor.publish if mapper.monitor is not None else None
        self.vol = VolTracer(mapper.clock, self.channel,
                             costs=config.vol_costs, emit=emit)
        self.vfd = VfdTracer(
            mapper.clock,
            self.channel,
            trace_io=config.trace_io,
            skip_ops=config.skip_ops,
            costs=config.vfd_costs,
            emit=emit,
        )
        self._open_files: List[VolFile] = []

    def open(self, fs: SimFS, path: str, mode: str = "r", **h5_kwargs) -> VolFile:
        """Open an instrumented HDF5-like file within this task."""
        f = VolFile(fs, path, mode, vol=self.vol, vfd_tracer=self.vfd, **h5_kwargs)
        self._open_files.append(f)
        return f

    def open_netcdf(self, fs: SimFS, path: str, mode: str = "r"):
        """Open an instrumented netCDF-like file within this task.

        Both formats feed the same trackers, so a task may freely mix them
        and the joined profile covers both.
        """
        from repro.netcdf.vol import NcVolFile

        f = NcVolFile(fs, path, mode, vol=self.vol, vfd_tracer=self.vfd)
        self._open_files.append(f)
        return f

    def close_all(self) -> None:
        """Close any files the task left open (tasks should close their own).

        Every file gets a close attempt even when an earlier one fails
        (a dead device must not leak the remaining handles); the first
        error is re-raised afterwards."""
        first_error: Optional[BaseException] = None
        for f in self._open_files:
            try:
                f.close()
            except OSError as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error


class DataSemanticMapper:
    """DaYu's runtime component: scopes tasks and produces their profiles.

    Example::

        mapper = DataSemanticMapper(clock, DaYuConfig(page_size=4096))
        with mapper.task("stage1") as ctx:
            f = ctx.open(fs, "/pfs/out.h5", "w")
            f.create_dataset("d", shape=(100,), data=np.zeros(100))
            f.close()
        profile = mapper.profiles["stage1"]
    """

    def __init__(self, clock: SimClock, config: DaYuConfig | None = None,
                 monitor=None) -> None:
        self.clock = clock
        self.config = config or DaYuConfig()
        self.profiles: Dict[str, TaskProfile] = {}
        #: Optional :class:`repro.monitor.monitor.WorkflowMonitor`; when
        #: attached, the mapper and its tracers publish live events to it.
        self.monitor = monitor

    @contextmanager
    def task(self, name: str) -> Iterator[TaskContext]:
        """Scope a task: the launcher informing DaYu of the current task.

        A task body that raises produces *no* profile: the partial trace
        of the failed attempt is discarded (and no ``TaskFinished`` event
        is published), so FTG/SDG builds — live and post-hoc — only ever
        see completed attempts and a retried task contributes exactly one
        profile.  The runner publishes the matching ``TaskFailed`` event.
        """
        if name in self.profiles:
            raise ValueError(f"task {name!r} already profiled by this mapper")
        ctx = TaskContext(self, name)
        start = self.clock.now
        if self.monitor is not None:
            from repro.monitor.events import TaskStarted

            self.monitor.publish(TaskStarted(time=start, task=name))
        try:
            yield ctx
        except BaseException:
            try:
                ctx.close_all()
            except OSError:
                # Closing may flush to the very device that just failed;
                # never let that mask the task's own failure.
                pass
            raise
        else:
            ctx.close_all()
            profile = self._finish(ctx, start)
            self.profiles[name] = profile
            if self.monitor is not None:
                from repro.monitor.events import TaskFinished

                self.monitor.publish(TaskFinished(
                    time=self.clock.now, task=name, profile=profile))

    def discard(self, name: str) -> bool:
        """Drop a stored profile (rarely needed; failed attempts already
        never store one).  Returns True when a profile was removed."""
        return self.profiles.pop(name, None) is not None

    def _finish(self, ctx: TaskContext, start: float) -> TaskProfile:
        # Characteristic Mapper join: group VFD records by data object.
        records = ctx.vfd.records
        stats = map_characteristics(records, self.config.page_size)
        # The join walks every record once; charge its modeled cost.
        self.clock.charge(
            CHARACTERISTIC_MAPPER_ACCOUNT,
            self.config.mapper_cost_per_record * max(len(records), 1),
        )
        return TaskProfile(
            task=ctx.task,
            span=TimeSpan(start, self.clock.now),
            files=list(ctx.vol.files_touched),
            object_profiles=ctx.vol.all_profiles(),
            file_sessions=list(ctx.vfd.sessions),
            io_records=list(records),
            dataset_stats=stats,
        )

    # ------------------------------------------------------------------
    # Persistence / accounting
    # ------------------------------------------------------------------
    def _serialized(self, profile: TaskProfile, trace_format: str | None):
        fmt = trace_format or self.config.trace_format
        if fmt == "columnar":
            return (columnar.COLUMNAR_TRACE_SUFFIX,
                    profile.serialize_columnar())
        if fmt == "json":
            return ".json", profile.serialize()
        raise ValueError(f"trace_format must be 'json' or 'columnar', "
                         f"got {fmt!r}")

    def save(self, fs: SimFS, trace_format: str | None = None) -> List[str]:
        """Write each task profile into ``config.output_dir``.

        Returns the written paths.  This is the "recorded statistics"
        storage whose footprint the paper's Figure 9d measures.  The
        format defaults to ``config.trace_format`` (``"json"`` interchange
        or the ``"columnar"`` binary form).
        """
        written = []
        for name, profile in self.profiles.items():
            suffix, payload = self._serialized(profile, trace_format)
            path = f"{self.config.output_dir.rstrip('/')}/{name}{suffix}"
            fd = fs.open(path, "w")
            fs.write(fd, payload)
            fs.close(fd)
            written.append(path)
        return written

    def save_to_host_dir(self, directory: str,
                         trace_format: str | None = None) -> List[str]:
        """Write each task profile into a real (host) directory — the
        hand-off format the ``dayu-analyze`` CLI consumes.  Format as in
        :meth:`save`."""
        from pathlib import Path

        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for name, profile in self.profiles.items():
            suffix, payload = self._serialized(profile, trace_format)
            path = out / f"{name}{suffix}"
            path.write_bytes(payload)
            written.append(str(path))
        return written

    @property
    def storage_bytes(self) -> int:
        """Total serialized trace bytes across all finished tasks."""
        return sum(p.storage_bytes for p in self.profiles.values())

    def data_volume(self) -> int:
        """Total application data bytes moved (for overhead denominators)."""
        return sum(
            s.access_volume for p in self.profiles.values() for s in p.dataset_stats
        )
