"""A simulated POSIX filesystem with device-accurate operation costs.

:class:`SimFS` is the substrate every simulated file driver (VFD) runs on.
It provides a mount table, a flat path namespace per mount, file descriptors
with independent offsets, and positional I/O (``pread``/``pwrite``).  Every
data operation:

1. moves bytes in the file's :class:`~repro.storage.blockstore.BlockStore`;
2. charges the owning device's modeled cost to the shared
   :class:`~repro.simclock.SimClock` (account ``"posix_io"``); and
3. appends an :class:`OpRecord` to the filesystem's operation log.

The operation log is *ground truth* for the experiments: the paper's
Figure 13 reports "I/O times (sum of POSIX operations)", which is exactly
``sum(rec.cost for rec in fs.op_log)`` filtered by file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.simclock import SimClock
from repro.storage.blockstore import BlockStore
from repro.storage.devices import StorageDevice
from repro.storage.mount import Mount

__all__ = ["SimFS", "FileStat", "OpRecord", "FsError"]


class FsError(OSError):
    """Raised for simulated filesystem errors (missing files, bad fds...)."""


@dataclass(frozen=True)
class FileStat:
    """Subset of ``stat(2)`` results relevant to I/O analysis."""

    path: str
    size: int
    device: str
    #: Simulated time of the last content change (creation, write,
    #: truncate).  Lets caching layers revalidate replicas the way real
    #: middleware revalidates against ``st_mtime``.
    mtime: float = 0.0


@dataclass(frozen=True, slots=True)
class OpRecord:
    """One logged POSIX-level operation (slotted: one per logged op).

    Attributes:
        op: ``"read"`` or ``"write"``.
        path: File the operation targeted.
        offset: Starting byte offset.
        nbytes: Bytes transferred.
        start: Simulated start time.
        cost: Modeled duration in seconds.
        device: Name of the serving device.
    """

    op: str
    path: str
    offset: int
    nbytes: int
    start: float
    cost: float
    device: str


@dataclass
class _OpenFile:
    path: str
    store: BlockStore
    device: StorageDevice
    offset: int = 0
    writable: bool = False


class SimFS:
    """Mount-aware simulated filesystem.

    Args:
        clock: Shared simulated clock all I/O costs are charged to.
        mounts: Initial mount table (more can be added with :meth:`add_mount`).
        log_ops: When False, the per-op log is suppressed (counters and
            timing still accrue) — used by overhead experiments that disable
            time-sensitive tracing.
    """

    IO_ACCOUNT = "posix_io"

    def __init__(
        self,
        clock: SimClock,
        mounts: Iterable[Mount] = (),
        log_ops: bool = True,
    ) -> None:
        self.clock = clock
        self.log_ops = log_ops
        self._mounts: List[Mount] = []
        self._files: Dict[str, BlockStore] = {}
        self._mtimes: Dict[str, float] = {}
        self._fds: Dict[int, _OpenFile] = {}
        self._next_fd = 3  # reserve 0-2 like a real process
        self.op_log: List[OpRecord] = []
        #: Mount prefixes whose backing hardware is gone (node failure);
        #: opens and I/O under them raise :class:`FsError`.
        self._failed_prefixes: List[str] = []
        #: Optional :class:`repro.faults.FaultInjector`-shaped hook; when
        #: set, every ``pread``/``pwrite`` consults it *before* any bytes
        #: move, so injected failures never half-apply an operation.
        self.fault_injector = None
        for m in mounts:
            self.add_mount(m)

    # ------------------------------------------------------------------
    # Mount table
    # ------------------------------------------------------------------
    def add_mount(self, mount: Mount) -> None:
        """Register a mount; longest-prefix match wins on lookup."""
        if any(m.prefix == mount.prefix for m in self._mounts):
            raise ValueError(f"mount prefix {mount.prefix!r} already registered")
        self._mounts.append(mount)
        self._mounts.sort(key=lambda m: len(m.prefix), reverse=True)

    def mount_for(self, path: str) -> Mount:
        """The mount serving ``path`` (longest matching prefix)."""
        for m in self._mounts:
            if m.matches(path):
                return m
        raise FsError(f"no mount serves path {path!r}")

    @property
    def mounts(self) -> List[Mount]:
        return list(self._mounts)

    # ------------------------------------------------------------------
    # Mount failure (node loss)
    # ------------------------------------------------------------------
    def fail_mount(self, prefix: str) -> None:
        """Mark every path under ``prefix`` as unreachable.

        Models a node-local tier dying with its node: the namespace keeps
        the entries (so post-mortem ``stat``/``exists`` still answer, like
        a cached inode), but opens and data operations raise
        :class:`FsError`.  Idempotent."""
        if prefix not in self._failed_prefixes:
            self._failed_prefixes.append(prefix)

    def mount_failed(self, path: str) -> bool:
        """True when ``path`` lives under a failed mount prefix."""
        return any(
            path == p or path.startswith(p.rstrip("/") + "/")
            for p in self._failed_prefixes
        )

    def _check_reachable(self, path: str) -> None:
        if self._failed_prefixes and self.mount_failed(path):
            raise FsError(f"I/O error: {path!r} is on a failed mount "
                          "(node down)")

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def listdir(self, prefix: str) -> List[str]:
        """All file paths under ``prefix`` (sorted)."""
        if not prefix.endswith("/"):
            prefix = prefix + "/"
        return sorted(p for p in self._files if p.startswith(prefix))

    def unlink(self, path: str) -> None:
        """Remove a file; open descriptors keep their store alive."""
        if path not in self._files:
            raise FsError(f"unlink: no such file {path!r}")
        del self._files[path]
        self._mtimes.pop(path, None)

    def rename(self, src: str, dst: str) -> None:
        """Atomically move ``src`` to ``dst`` within the namespace."""
        if src not in self._files:
            raise FsError(f"rename: no such file {src!r}")
        self._files[dst] = self._files.pop(src)
        self._mtimes[dst] = self._mtimes.pop(src, 0.0)

    def stat(self, path: str) -> FileStat:
        store = self._files.get(path)
        if store is None:
            raise FsError(f"stat: no such file {path!r}")
        return FileStat(
            path=path,
            size=store.size,
            device=self.mount_for(path).device.spec.name,
            mtime=self._mtimes.get(path, 0.0),
        )

    def store_of(self, path: str) -> BlockStore:
        """Direct access to a file's backing store (for layout assertions)."""
        store = self._files.get(path)
        if store is None:
            raise FsError(f"no such file {path!r}")
        return store

    # ------------------------------------------------------------------
    # Descriptors
    # ------------------------------------------------------------------
    def open(self, path: str, mode: str = "r") -> int:
        """Open ``path`` and return a file descriptor.

        Modes: ``"r"`` read-only (file must exist), ``"r+"`` read/write
        (must exist), ``"w"`` create-or-truncate read/write, ``"x"``
        exclusive-create read/write, ``"a"`` append read/write.
        """
        mount = self.mount_for(path)
        self._check_reachable(path)
        store = self._files.get(path)
        if mode in ("r", "r+"):
            if store is None:
                raise FsError(f"open({mode}): no such file {path!r}")
        elif mode == "w":
            store = BlockStore()
            self._files[path] = store
            self._mtimes[path] = self.clock.now
        elif mode == "x":
            if store is not None:
                raise FsError(f"open(x): file exists {path!r}")
            store = BlockStore()
            self._files[path] = store
            self._mtimes[path] = self.clock.now
        elif mode == "a":
            if store is None:
                store = BlockStore()
                self._files[path] = store
                self._mtimes[path] = self.clock.now
        else:
            raise ValueError(f"unsupported mode {mode!r}")
        fd = self._next_fd
        self._next_fd += 1
        writable = mode != "r"
        offset = store.size if mode == "a" else 0
        self._fds[fd] = _OpenFile(
            path=path, store=store, device=mount.device, offset=offset, writable=writable
        )
        return fd

    def close(self, fd: int) -> None:
        of = self._fd(fd)
        of.device.forget_stream(of.path)
        del self._fds[fd]

    def _fd(self, fd: int) -> _OpenFile:
        of = self._fds.get(fd)
        if of is None:
            raise FsError(f"bad file descriptor {fd}")
        return of

    def fd_path(self, fd: int) -> str:
        return self._fd(fd).path

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def pread(self, fd: int, nbytes: int, offset: int) -> bytes:
        """Positional read; charges device cost and logs the operation."""
        of = self._fds.get(fd)
        if of is None:
            of = self._fd(fd)  # raises
        if self._failed_prefixes:
            self._check_reachable(of.path)
        if self.fault_injector is not None:
            self.fault_injector.on_io("read", of.path, offset, nbytes)
        data = of.store.read(offset, nbytes)
        self._account("read", of, offset, len(data))
        return data

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        """Positional write; charges device cost and logs the operation."""
        of = self._fds.get(fd)
        if of is None:
            of = self._fd(fd)  # raises
        if not of.writable:
            raise FsError(f"fd {fd} not opened for writing")
        if self._failed_prefixes:
            self._check_reachable(of.path)
        if self.fault_injector is not None:
            self.fault_injector.on_io("write", of.path, offset, len(data))
        of.store.write(offset, data)
        self._account("write", of, offset, len(data))
        self._mtimes[of.path] = self.clock.now
        return len(data)

    def read(self, fd: int, nbytes: int) -> bytes:
        """Sequential read from the descriptor's current offset."""
        of = self._fd(fd)
        data = self.pread(fd, nbytes, of.offset)
        of.offset += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        """Sequential write at the descriptor's current offset."""
        of = self._fd(fd)
        n = self.pwrite(fd, data, of.offset)
        of.offset += n
        return n

    def lseek(self, fd: int, offset: int) -> int:
        of = self._fd(fd)
        if offset < 0:
            raise FsError("cannot seek before start of file")
        of.offset = offset
        return offset

    def truncate(self, fd: int, size: int) -> None:
        of = self._fd(fd)
        if not of.writable:
            raise FsError(f"fd {fd} not opened for writing")
        self._check_reachable(of.path)
        of.store.truncate(size)
        self._mtimes[of.path] = self.clock.now

    def file_size(self, fd: int) -> int:
        return self._fd(fd).store.size

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _account(self, op: str, of: _OpenFile, offset: int, nbytes: int) -> None:
        clock, device = self.clock, of.device
        start = clock.now
        if op == "read":
            cost = device.read_cost(of.path, offset, nbytes)
        else:
            cost = device.write_cost(of.path, offset, nbytes)
        clock.advance(cost, self.IO_ACCOUNT)
        if self.log_ops:
            self.op_log.append(OpRecord(op, of.path, offset, nbytes, start,
                                        cost, device.spec.name))

    def io_time(self, path: str | None = None) -> float:
        """Sum of logged POSIX operation costs, optionally for one file."""
        return sum(r.cost for r in self.op_log if path is None or r.path == path)

    def op_count(self, path: str | None = None, op: str | None = None) -> int:
        """Number of logged operations, filterable by file and kind."""
        return sum(
            1
            for r in self.op_log
            if (path is None or r.path == path) and (op is None or r.op == op)
        )

    def clear_log(self) -> None:
        self.op_log.clear()
