"""The file object: superblock, object registry, and header persistence.

:class:`H5File` owns the pieces every other format module plugs into — the
VFD, the free-space allocator, the metadata cache, and the global heap —
and manages the life cycle of object headers:

- creation writes the header immediately (so the file is structurally valid
  and header blocks cluster near the start of the address space, the
  "default location for metadata" visible in the paper's Figure 8);
- mutations (new links, attributes, layout updates) only mark the header
  dirty;
- :meth:`flush` rewrites dirty headers, *relocating* any that outgrew their
  block — freeing the old block and re-pointing the parent's link, the
  format-level mechanism behind metadata fragmentation.

A :class:`TracingVFD <repro.vfd.tracing.TracingVFD>` can be interposed via
``vfd_wrap`` — that is exactly where DaYu's VFD profiler plugs in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.hdf5.dataset import Dataset, DatasetDescriptor
from repro.hdf5.errors import H5FormatError, H5NameError, H5StateError
from repro.hdf5.format import SUPERBLOCK_SIZE, UNDEF_ADDR, Superblock
from repro.hdf5.freespace import FreeSpaceManager
from repro.hdf5.group import Group
from repro.hdf5.heap import GlobalHeap
from repro.hdf5.meta_cache import MetadataCache
from repro.hdf5.metaio import MetaIO
from repro.hdf5.oheader import (
    OHDR_PREFIX_SIZE,
    Message,
    MessageType,
    ObjectHeader,
    ObjectKind,
)
from repro.posix.simfs import SimFS
from repro.vfd.base import IoClass, VirtualFileDriver
from repro.vfd.sec2 import Sec2VFD

__all__ = ["H5File"]


@dataclass
class _ObjectRecord:
    oid: int
    addr: int
    kind: ObjectKind
    header: ObjectHeader
    parent_oid: Optional[int]
    name: str  # link name within the parent ("" for the root)
    dirty: bool = False
    # Datasets only: decoded on first open, shared by every handle.
    descriptor: Optional[DatasetDescriptor] = None


class H5File:
    """An open container file.

    Args:
        fs: The simulated filesystem the file lives on.
        path: File path.
        mode: ``"r"`` read-only, ``"r+"`` read/write, ``"w"``
            create-or-truncate, ``"x"`` exclusive create.
        vfd_wrap: Optional callable wrapping the base driver — pass
            ``lambda v: TracingVFD(v, tracer)`` to attach DaYu's profiler.
        cache_enabled: Toggle the metadata cache.
        heap_data_capacity: Data bytes per standard global-heap collection.
    """

    def __init__(
        self,
        fs: SimFS,
        path: str,
        mode: str = "r",
        *,
        vfd_wrap: Optional[Callable[[VirtualFileDriver], VirtualFileDriver]] = None,
        cache_enabled: bool = True,
        heap_data_capacity: int = 4096,
    ) -> None:
        if mode not in ("r", "r+", "w", "x"):
            raise ValueError(f"unsupported file mode {mode!r}")
        self._path = path
        self._mode = mode
        base: VirtualFileDriver = Sec2VFD(fs, path, mode)
        self.vfd: VirtualFileDriver = vfd_wrap(base) if vfd_wrap else base
        self.cache = MetadataCache(enabled=cache_enabled)
        self._objects: Dict[int, _ObjectRecord] = {}
        self._by_addr: Dict[int, int] = {}
        self._next_oid = 1
        self._closed = False

        if mode in ("w", "x"):
            self.allocator = FreeSpaceManager()
            self.metaio = MetaIO(self.vfd, self.allocator, self.cache)
            self.heap = GlobalHeap(self.metaio, data_capacity=heap_data_capacity)
            self._superblock = Superblock()
            self._write_superblock()
            root_oid = self.new_object(ObjectKind.GROUP, None, "", [])
            self._superblock.root_addr = self._objects[root_oid].addr
            self._root_oid = root_oid
            self._write_superblock()
        else:
            raw = self.vfd.read(0, SUPERBLOCK_SIZE, IoClass.METADATA)
            self._superblock = Superblock.decode(raw)
            if self._superblock.root_addr == UNDEF_ADDR:
                raise H5FormatError(f"{path!r} has no root group")
            self.allocator = FreeSpaceManager(eof=self._superblock.eof_addr)
            self.metaio = MetaIO(self.vfd, self.allocator, self.cache)
            self.heap = GlobalHeap(self.metaio, data_capacity=heap_data_capacity)
            self._root_oid = self.adopt(
                self._superblock.root_addr, parent_oid=None, name="",
                kind=ObjectKind.GROUP,
            )

    # ------------------------------------------------------------------
    # Identity / state
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        return self._path

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def writable(self) -> bool:
        return self._mode != "r"

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise H5StateError(f"file {self._path!r} is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if not self.writable:
            raise H5StateError(f"file {self._path!r} is read-only")

    # ------------------------------------------------------------------
    # Object registry
    # ------------------------------------------------------------------
    def _record(self, oid: int) -> _ObjectRecord:
        if self._closed:
            self._check_open()  # raises
        rec = self._objects.get(oid)
        if rec is None:
            raise H5StateError(f"stale object id {oid}")
        return rec

    def new_object(
        self,
        kind: ObjectKind,
        parent_oid: Optional[int],
        name: str,
        messages: List[Message],
    ) -> int:
        """Create a new object header, write it, and register it."""
        self._check_writable()
        header = ObjectHeader(kind=kind, messages=messages)
        header.capacity = ObjectHeader.capacity_for(header.used)
        addr = self.allocator.allocate(header.capacity)
        self.metaio.write(addr, header.encode())
        oid = self._next_oid
        self._next_oid += 1
        rec = _ObjectRecord(
            oid=oid, addr=addr, kind=kind, header=header,
            parent_oid=parent_oid, name=name,
        )
        self._objects[oid] = rec
        self._by_addr[addr] = oid
        return oid

    def adopt(
        self,
        addr: int,
        parent_oid: Optional[int],
        name: str,
        kind: Optional[ObjectKind] = None,
    ) -> int:
        """Register (or find) the object whose header lives at ``addr``."""
        if self._closed:
            self._check_open()  # raises
        existing = self._by_addr.get(addr)
        if existing is not None:
            return existing
        # Peek the prefix to learn the block size, then read it whole.
        capacity = ObjectHeader.peek_capacity(self.metaio.read(addr, OHDR_PREFIX_SIZE))
        header = ObjectHeader.decode(self.metaio.read(addr, capacity))
        if kind is not None and header.kind != kind:
            raise H5FormatError(
                f"object at {addr} is a {header.kind.name}, expected {kind.name}"
            )
        oid = self._next_oid
        self._next_oid += 1
        rec = _ObjectRecord(
            oid=oid, addr=addr, kind=header.kind, header=header,
            parent_oid=parent_oid, name=name,
        )
        self._objects[oid] = rec
        self._by_addr[addr] = oid
        return oid

    def mark_dirty(self, oid: int) -> None:
        self._check_writable()
        self._record(oid).dirty = True

    def reclaim_object(self, oid: int) -> None:
        """Free an object's storage and drop it from the registry.

        Datasets release their raw-data extents and chunk-index nodes;
        groups recurse through their children first.  The caller (the
        parent group) removes the link message.
        """
        self._check_writable()
        rec = self._record(oid)
        header = rec.header
        if rec.kind == ObjectKind.GROUP:
            for name, kind, child_addr in header.links():
                child_oid = self.adopt(child_addr, parent_oid=oid,
                                       name=name, kind=kind)
                self.reclaim_object(child_oid)
        else:
            self._reclaim_dataset_storage(header)
        self.metaio.free(rec.addr, header.capacity)
        del self._objects[oid]
        self._by_addr.pop(rec.addr, None)

    def _reclaim_dataset_storage(self, header: ObjectHeader) -> None:
        from repro.hdf5.btree import ChunkBTree, node_capacity
        from repro.hdf5.layout import (
            ChunkedLayout,
            ContiguousLayout,
            decode_layout,
        )

        msg = header.find(MessageType.LAYOUT)
        if msg is None:
            return
        layout = decode_layout(msg.payload)
        if isinstance(layout, ContiguousLayout) and layout.allocated:
            self.allocator.free(layout.addr, layout.size)
        elif isinstance(layout, ChunkedLayout) and layout.indexed:
            tree = ChunkBTree(self.metaio, len(layout.chunk_shape),
                              layout.btree_addr)
            for _, addr, size in tree.items():
                if size:
                    self.allocator.free(addr, size)
            cap = node_capacity(len(layout.chunk_shape))
            for node_addr in tree.node_addrs():
                self.metaio.free(node_addr, cap)

    # ------------------------------------------------------------------
    # Root access and h5py-style conveniences
    # ------------------------------------------------------------------
    @property
    def root(self) -> Group:
        self._check_open()
        return Group(self, self._root_oid, "/")

    def __getitem__(self, path: str):
        return self.root[path]

    def __contains__(self, path: str) -> bool:
        return path.strip("/") in self.root

    def create_group(self, path: str) -> Group:
        return self.root.create_group(path)

    def require_group(self, path: str) -> Group:
        return self.root.require_group(path)

    def create_dataset(self, path: str, shape, dtype="f8", **kwargs) -> Dataset:
        return self.root.create_dataset(path, shape, dtype, **kwargs)

    def keys(self) -> List[str]:
        return self.root.keys()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _write_superblock(self) -> None:
        self.vfd.write(0, self._superblock.encode(), IoClass.METADATA)

    def _repoint_parent_link(self, rec: _ObjectRecord, new_addr: int) -> None:
        if rec.parent_oid is None:
            self._superblock.root_addr = new_addr
            return
        parent = self._record(rec.parent_oid)
        try:
            parent.header.repoint_link(rec.name, new_addr)
        except H5NameError:
            raise H5FormatError(
                f"parent of {rec.name!r} has no link to it (corrupt registry)"
            ) from None
        parent.dirty = True

    def flush(self) -> None:
        """Write all pending state: heap directories, dirty headers, superblock."""
        self._check_open()
        if not self.writable:
            return
        self.heap.flush()
        # Dirty headers may dirty their parents (relocation), so iterate.
        while True:
            dirty = [rec for rec in self._objects.values() if rec.dirty]
            if not dirty:
                break
            for rec in dirty:
                if rec.header.used > rec.header.capacity:
                    old_addr, old_cap = rec.addr, rec.header.capacity
                    rec.header.capacity = ObjectHeader.capacity_for(rec.header.used)
                    new_addr = self.allocator.allocate(rec.header.capacity)
                    del self._by_addr[old_addr]
                    self._by_addr[new_addr] = rec.oid
                    rec.addr = new_addr
                    self.metaio.free(old_addr, old_cap)
                    self._repoint_parent_link(rec, new_addr)
                self.metaio.write(rec.addr, rec.header.encode())
                rec.dirty = False
        self._superblock.eof_addr = self.allocator.eof
        self._write_superblock()

    def close(self) -> None:
        """Flush and release the file.  Idempotent."""
        if self._closed:
            return
        if self.writable:
            self.flush()
        self._closed = True
        self.vfd.close()

    def __enter__(self) -> "H5File":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else self._mode
        return f"<H5File {self._path!r} ({state})>"
