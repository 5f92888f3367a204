"""VOL wrapper objects: the instrumented public API applications use.

These wrappers form the full DaYu-instrumented stack::

    application
      → VolFile / VolGroup / VolDataset   (this module: VOL profiler)
        → repro.hdf5                      (the format library)
          → TracingVFD                    (VFD profiler)
            → Sec2VFD → SimFS             (POSIX + devices)

Every dataset read/write is wrapped in a
:meth:`~repro.vfd.channel.VolVfdChannel.object_scope`, which is how the VFD
profiler learns which data object each low-level operation belongs to — the
paper's shared-memory VOL→VFD mapping.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.hdf5 import Dataset, Group, H5File, Selection
from repro.hdf5.attribute import AttributeManager
from repro.posix.simfs import SimFS
from repro.vfd.channel import VolVfdChannel
from repro.vfd.tracing import TracingVFD, VfdTracer
from repro.vol.tracer import VolTracer

__all__ = ["VolFile", "VolGroup", "VolDataset"]


class VolDataset:
    """Instrumented dataset handle."""

    def __init__(self, inner: Dataset, file: "VolFile") -> None:
        self._inner = inner
        self._file = file
        desc = inner._desc
        space, dtype = desc.space, desc.dtype
        file.vol.on_object_open(
            file.path,
            inner.name,
            shape=space.shape,
            dtype=dtype.code,
            layout=desc.layout.name,
            nbytes=space.npoints * dtype.itemsize,
        )

    # -- delegation --------------------------------------------------
    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._inner.shape

    @property
    def dtype(self):
        return self._inner.dtype

    @property
    def layout_name(self) -> str:
        return self._inner.layout_name

    @property
    def chunks(self):
        return self._inner.chunks

    @property
    def size(self) -> int:
        return self._inner.size

    @property
    def nbytes(self) -> int:
        return self._inner.nbytes

    @property
    def attrs(self) -> AttributeManager:
        return self._inner.attrs

    # -- instrumented data path --------------------------------------
    def write(self, data, selection: Optional[Selection] = None) -> None:
        inner, file = self._inner, self._file
        desc = inner._desc
        elements = (selection or Selection.all()).npoints(desc.space)
        with file.channel.object_scope(inner.name):
            inner.write(data, selection)
        file.vol.on_access(file.path, inner.name, "write",
                           elements, elements * desc.dtype.itemsize)

    def read(self, selection: Optional[Selection] = None):
        inner, file = self._inner, self._file
        desc = inner._desc
        elements = (selection or Selection.all()).npoints(desc.space)
        with file.channel.object_scope(inner.name):
            result = inner.read(selection)
        file.vol.on_access(file.path, inner.name, "read",
                           elements, elements * desc.dtype.itemsize)
        return result

    def __getitem__(self, key):
        if key is Ellipsis:
            return self.read()
        raise TypeError("only ds[...] full reads are supported; use read()")

    def __setitem__(self, key, value) -> None:
        if key is Ellipsis:
            self.write(value)
            return
        raise TypeError("only ds[...] full writes are supported; use write()")

    def resize(self, new_shape) -> None:
        """Resize a chunked dataset (metadata operation)."""
        # Flush pending state first, then flush again inside the scope:
        # the second flush writes only what the resize itself dirtied,
        # so the shape-message update lands in the VFD trace tagged
        # with this object (a concurrent reader races exactly that
        # write — the DY503 subject) instead of anonymously at close.
        inner_file = self._file.inner
        inner_file.flush()
        with self._file.channel.object_scope(self._inner.name):
            self._inner.resize(new_shape)
            inner_file.flush()

    def close(self) -> None:
        """Release the handle (optional; file close releases implicitly)."""
        self._file.vol.on_object_close(self._file.path, self._inner.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VolDataset {self.name!r}>"


class VolGroup:
    """Instrumented group handle."""

    def __init__(self, inner: Group, file: "VolFile") -> None:
        self._inner = inner
        self._file = file

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def attrs(self) -> AttributeManager:
        return self._inner.attrs

    def keys(self):
        return self._inner.keys()

    def __contains__(self, name: str) -> bool:
        return name in self._inner

    def __iter__(self):
        return iter(self._inner)

    def __len__(self) -> int:
        return len(self._inner)

    def _wrap(self, obj):
        if isinstance(obj, Dataset):
            return VolDataset(obj, self._file)
        return VolGroup(obj, self._file)

    def _full_path(self, path: str) -> str:
        return self._inner.name.rstrip("/") + "/" + path.strip("/")

    def __getitem__(self, path: str):
        # Scope the lookup so the target's header reads (pure metadata) are
        # tagged with the object — this is how a metadata-only access like
        # the paper's contact_map example becomes visible in the VFD trace.
        with self._file.channel.object_scope(self._full_path(path)):
            obj = self._inner[path]
        return self._wrap(obj)

    def get(self, path: str, default=None):
        try:
            return self[path]
        except KeyError:
            return default

    def create_group(self, path: str) -> "VolGroup":
        return VolGroup(self._inner.create_group(path), self._file)

    def require_group(self, path: str) -> "VolGroup":
        return VolGroup(self._inner.require_group(path), self._file)

    def create_dataset(self, path: str, shape, dtype="f8", **kwargs) -> VolDataset:
        data = kwargs.pop("data", None)
        with self._file.channel.object_scope(self._full_path(path)):
            inner = self._inner.create_dataset(path, shape, dtype, **kwargs)
        ds = VolDataset(inner, self._file)
        if data is not None:
            ds.write(data)
        return ds

    def delete(self, name: str) -> None:
        """Unlink and reclaim a child (recorded as an object release)."""
        full = self._full_path(name)
        with self._file.channel.object_scope(full):
            self._inner.delete(name)
        self._file.vol.on_object_close(self._file.path, full)

    def __delitem__(self, name: str) -> None:
        self.delete(name)

    def datasets(self):
        return [self._wrap(d) for d in self._inner.datasets()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VolGroup {self.name!r}>"


class VolFile:
    """Instrumented file handle: the top of the DaYu-profiled stack.

    Args:
        fs: Simulated filesystem.
        path: File path.
        mode: :class:`~repro.hdf5.H5File` mode.
        vol: The VOL profiler collecting Table I semantics.
        vfd_tracer: The VFD profiler; when given, a
            :class:`~repro.vfd.tracing.TracingVFD` is interposed.
        **h5_kwargs: Forwarded to :class:`~repro.hdf5.H5File`.
    """

    def __init__(
        self,
        fs: SimFS,
        path: str,
        mode: str = "r",
        *,
        vol: VolTracer,
        vfd_tracer: Optional[VfdTracer] = None,
        **h5_kwargs,
    ) -> None:
        self.vol = vol
        self.channel: VolVfdChannel = vol.channel
        wrap = (
            (lambda inner: TracingVFD(inner, vfd_tracer))
            if vfd_tracer is not None
            else None
        )
        self._inner = H5File(fs, path, mode, vfd_wrap=wrap, **h5_kwargs)
        #: File path (read on every traced access, so a plain attribute).
        self.path = path
        vol.on_file_open(path)

    # -- delegation --------------------------------------------------

    @property
    def inner(self) -> H5File:
        """The raw (uninstrumented) file object."""
        return self._inner

    @property
    def root(self) -> VolGroup:
        return VolGroup(self._inner.root, self)

    def __getitem__(self, path: str):
        return VolGroup(self._inner.root, self)[path]

    def __contains__(self, path: str) -> bool:
        return path in self._inner

    def keys(self):
        return self._inner.keys()

    def create_group(self, path: str) -> VolGroup:
        return self.root.create_group(path)

    def require_group(self, path: str) -> VolGroup:
        return self.root.require_group(path)

    def create_dataset(self, path: str, shape, dtype="f8", **kwargs) -> VolDataset:
        return self.root.create_dataset(path, shape, dtype, **kwargs)

    # -- lifecycle ----------------------------------------------------
    def close(self) -> None:
        if not self._inner.closed:
            self._inner.close()
            self.vol.on_file_close(self._inner.path)

    @property
    def closed(self) -> bool:
        return self._inner.closed

    def __enter__(self) -> "VolFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VolFile {self.path!r}>"
