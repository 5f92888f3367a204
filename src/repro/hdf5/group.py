"""Groups: the hierarchical namespace.

A group is an object header whose LINK messages name its children.  Links
carry the child's kind and header address; traversing a path therefore
reads one header per component (metadata I/O, cached after first touch).
Finding a name within a header is an O(1) lookup in the header's link
index (:meth:`~repro.hdf5.oheader.ObjectHeader.link`): CPU work over bytes
already read, which does no I/O and never appears in the VFD trace.

``create_dataset`` accepts nested paths (``"a/b/dset"``), creating
intermediate groups like h5py.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, Union

from repro.hdf5.dataset import Dataset
from repro.hdf5.dataspace import Dataspace
from repro.hdf5.datatype import Datatype
from repro.hdf5.errors import H5LayoutError, H5NameError, H5TypeError
from repro.hdf5.attribute import AttributeManager
from repro.hdf5.layout import (
    ChunkedLayout,
    CompactLayout,
    ContiguousLayout,
    encode_layout,
)
from repro.hdf5.oheader import Message, MessageType, ObjectKind

__all__ = ["Group"]


class Group:
    """A container of named children (groups and datasets)."""

    def __init__(self, file, oid: int, path: str) -> None:
        self._file = file
        self._oid = oid
        self._path = path

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Full path, e.g. ``"/"`` or ``"/results"``."""
        return self._path

    @property
    def attrs(self) -> AttributeManager:
        return AttributeManager(self)

    @property
    def _header(self):
        return self._file._record(self._oid).header

    def _touch(self) -> None:
        self._file.mark_dirty(self._oid)

    def _child_path(self, name: str) -> str:
        return (self._path.rstrip("/") + "/" + name) if name else self._path

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        """Child names in link order."""
        return [name for name, _, _ in self._header.links()]

    def __contains__(self, name: str) -> bool:
        head, _, rest = name.strip("/").partition("/")
        if self._header.link(head) is None:
            return False
        if not rest:
            return True
        child = self._open_child(head)
        return isinstance(child, Group) and rest in child

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self.keys())

    def _add_link(self, name: str, kind: ObjectKind, addr: int) -> None:
        self._header.add_link(name, kind, addr)
        self._touch()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _open_child(self, name: str) -> Union["Group", Dataset]:
        found = self._header.link(name)
        if found is None:
            raise H5NameError(f"no object named {name!r} in {self._path!r}")
        kind, addr = found
        oid = self._file.adopt(addr, parent_oid=self._oid, name=name, kind=kind)
        path = self._child_path(name)
        if kind == ObjectKind.GROUP:
            return Group(self._file, oid, path)
        return Dataset(self._file, oid, path)

    def __getitem__(self, path: str) -> Union["Group", Dataset]:
        obj: Union[Group, Dataset] = self
        for part in path.strip("/").split("/"):
            if not part:
                continue
            if not isinstance(obj, Group):
                raise H5NameError(f"{obj.name!r} is not a group")
            obj = obj._open_child(part)
        return obj

    def get(self, path: str, default=None):
        try:
            return self[path]
        except H5NameError:
            return default

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    def create_group(self, path: str) -> "Group":
        """Create (and return) a sub-group; intermediate groups are made."""
        parent, leaf = self._descend_for_create(path)
        if parent._header.link(leaf) is not None:
            raise H5NameError(f"name {leaf!r} already exists in {parent.name!r}")
        oid = self._file.new_object(
            ObjectKind.GROUP, parent_oid=parent._oid, name=leaf, messages=[]
        )
        parent._add_link(leaf, ObjectKind.GROUP, self._file._record(oid).addr)
        return Group(self._file, oid, parent._child_path(leaf))

    def require_group(self, path: str) -> "Group":
        """Return the group at ``path``, creating it if absent."""
        existing = self.get(path)
        if existing is not None:
            if not isinstance(existing, Group):
                raise H5NameError(f"{path!r} exists and is not a group")
            return existing
        return self.create_group(path)

    def create_dataset(
        self,
        path: str,
        shape: Tuple[int, ...] | int,
        dtype="f8",
        layout: str = "contiguous",
        chunks: Optional[Tuple[int, ...] | int] = None,
        data=None,
        compression: Optional[str] = None,
        compression_level: int = 4,
    ) -> Dataset:
        """Create a dataset.

        Args:
            path: Name, possibly nested (``"grp/dset"``).
            shape: Dataspace shape (an int means a 1-D shape).
            dtype: Anything :meth:`Datatype.of` accepts.
            layout: ``"contiguous"``, ``"chunked"``, or ``"compact"``.
            chunks: Chunk shape; required when ``layout="chunked"``.
            data: Optional initial contents, written immediately.
            compression: ``"zlib"`` to filter chunks (chunked fixed-dtype
                datasets only, like HDF5's filter pipeline).
            compression_level: zlib level 1-9.
        """
        parent, leaf = self._descend_for_create(path)
        if parent._header.link(leaf) is not None:
            raise H5NameError(f"name {leaf!r} already exists in {parent.name!r}")
        if isinstance(shape, int):
            shape = (shape,)
        space = Dataspace(tuple(int(d) for d in shape))
        dt = Datatype.of(dtype)

        if compression is not None and (layout != "chunked" or dt.is_vlen):
            raise H5LayoutError(
                "compression requires a chunked, fixed-dtype dataset"
            )
        if layout == "contiguous":
            lay = ContiguousLayout()
        elif layout == "compact":
            if dt.is_vlen:
                raise H5LayoutError("compact layout cannot hold variable-length data")
            lay = CompactLayout()
        elif layout == "chunked":
            if chunks is None:
                raise H5LayoutError("chunked layout requires a chunk shape")
            if isinstance(chunks, int):
                chunks = (chunks,)
            if len(chunks) != space.ndim:
                raise H5LayoutError(
                    f"chunk rank {len(chunks)} != dataspace rank {space.ndim}"
                )
            lay = ChunkedLayout(
                tuple(int(c) for c in chunks),
                compression=compression,
                compression_level=compression_level,
            )
        else:
            raise H5LayoutError(f"unknown layout {layout!r}")

        messages = [
            Message(MessageType.DATASPACE, space.encode()),
            Message(MessageType.DATATYPE, dt.encode()),
            Message(MessageType.LAYOUT, encode_layout(lay)),
        ]
        oid = self._file.new_object(
            ObjectKind.DATASET, parent_oid=parent._oid, name=leaf, messages=messages
        )
        parent._add_link(leaf, ObjectKind.DATASET, self._file._record(oid).addr)
        ds = Dataset(self._file, oid, parent._child_path(leaf))
        if data is not None:
            ds.write(data)
        return ds

    def _descend_for_create(self, path: str) -> Tuple["Group", str]:
        """Resolve intermediate groups of ``path`` (creating them) and
        return (parent_group, leaf_name)."""
        parts = [p for p in path.strip("/").split("/") if p]
        if not parts:
            raise H5NameError("empty object name")
        group: Group = self
        for part in parts[:-1]:
            group = group.require_group(part)
        return group, parts[-1]

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, name: str) -> None:
        """Unlink and reclaim a direct child (groups delete recursively).

        Frees the child's header block, raw-data extents, and chunk-index
        nodes back to the file's free-space manager.  Global-heap
        collections referenced by variable-length data are *not* reclaimed
        (collections may be shared), matching HDF5's default behaviour —
        deletion is a fragmentation source, not a compaction.
        """
        if self._header.link(name) is None:
            raise H5NameError(f"no object named {name!r} in {self._path!r}")
        child = self._open_child(name)
        self._file.reclaim_object(child._oid)
        self._header.remove_link(name)
        self._touch()

    def __delitem__(self, name: str) -> None:
        self.delete(name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def datasets(self) -> List[Dataset]:
        """All immediate child datasets (in link order)."""
        return [
            self._open_child(name)
            for name, kind, _ in self._header.links()
            if kind == ObjectKind.DATASET
        ]

    def visit(self, func) -> None:
        """Call ``func(path, object)`` for every descendant, depth-first."""
        for name, _, _ in self._header.links():
            child = self._open_child(name)
            func(child.name, child)
            if isinstance(child, Group):
                child.visit(func)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Group {self._path!r} ({len(self)} members)>"
