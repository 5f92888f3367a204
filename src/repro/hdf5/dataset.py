"""Datasets: the data path from logical selections to file addresses.

This module performs the format's second translation step: a resolved
selection (contiguous element runs) becomes, depending on the storage
layout,

- an in-header byte splice (**compact**),
- one raw I/O per run against a single extent (**contiguous**), or
- per-chunk raw I/O behind B-tree index lookups (**chunked**),

with variable-length elements adding a hop through the global heap.

The resulting low-level operation stream — how many, how large, how
scattered — is precisely what DaYu's VFD profiler observes and what the
paper's layout experiments (its Figure 13) measure.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hdf5.dataspace import Dataspace, Selection, selection_runs, slab_runs
from repro.hdf5.datatype import Datatype
from repro.hdf5.errors import H5LayoutError, H5StateError, H5TypeError
from repro.hdf5.heap import HeapRef
from repro.hdf5.layout import (
    ChunkedLayout,
    CompactLayout,
    ContiguousLayout,
    Layout,
    decode_layout,
    encode_layout,
)
from repro.hdf5.attribute import AttributeManager
from repro.hdf5.btree import ChunkBTree
from repro.hdf5.oheader import MessageType
from repro.vfd.base import IoClass

__all__ = ["Dataset", "DatasetDescriptor"]


class DatasetDescriptor:
    """A dataset's decoded dataspace, datatype and storage layout.

    Decoded once per open object and kept on the file's object record, so
    every :class:`Dataset` handle on that object shares it: a resize or a
    layout update made through one handle is seen by all of them.
    """

    __slots__ = ("space", "dtype", "layout")

    def __init__(self, space: Dataspace, dtype: Datatype, layout: Layout) -> None:
        self.space = space
        self.dtype = dtype
        self.layout = layout

    @classmethod
    def from_header(cls, header, path: str) -> "DatasetDescriptor":
        space_msg = header.find(MessageType.DATASPACE)
        type_msg = header.find(MessageType.DATATYPE)
        layout_msg = header.find(MessageType.LAYOUT)
        if space_msg is None or type_msg is None or layout_msg is None:
            raise H5StateError(f"object at {path!r} is not a complete dataset")
        space, _ = Dataspace.decode(space_msg.payload)
        dtype, _ = Datatype.decode(type_msg.payload)
        return cls(space, dtype, decode_layout(layout_msg.payload))


class Dataset:
    """A named array object.  Obtain via ``Group.create_dataset`` / lookup."""

    def __init__(self, file, oid: int, path: str) -> None:
        self._file = file
        self._oid = oid
        self._path = path
        rec = file._record(oid)
        if rec.descriptor is None:
            rec.descriptor = DatasetDescriptor.from_header(rec.header, path)
        self._desc: DatasetDescriptor = rec.descriptor
        # Per handle; re-pointed when another handle moves the shared root.
        self._btree: Optional[ChunkBTree] = None

    @property
    def _space(self) -> Dataspace:
        return self._desc.space

    @property
    def _dtype(self) -> Datatype:
        return self._desc.dtype

    @property
    def _layout(self) -> Layout:
        return self._desc.layout

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Full path of the dataset within the file, e.g. ``"/grp/dset"``."""
        return self._path

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._space.shape

    @property
    def dtype(self) -> Datatype:
        return self._dtype

    @property
    def size(self) -> int:
        """Number of elements."""
        return self._space.npoints

    @property
    def nbytes(self) -> int:
        """Inline storage footprint (reference bytes for vlen types)."""
        return self.size * self._dtype.itemsize

    @property
    def layout_name(self) -> str:
        return self._layout.name

    @property
    def chunks(self) -> Optional[Tuple[int, ...]]:
        if isinstance(self._layout, ChunkedLayout):
            return self._layout.chunk_shape
        return None

    @property
    def compression(self) -> Optional[str]:
        """The chunk filter in effect (``"zlib"`` or None)."""
        if isinstance(self._layout, ChunkedLayout):
            return self._layout.compression
        return None

    @property
    def attrs(self) -> AttributeManager:
        return AttributeManager(self)

    @property
    def _header(self):
        return self._file._record(self._oid).header

    def _touch(self) -> None:
        self._file.mark_dirty(self._oid)

    def _sync_layout(self) -> None:
        """Persist the in-memory layout descriptor into the header message."""
        self._header.replace(MessageType.LAYOUT, encode_layout(self._layout))
        self._touch()

    # ------------------------------------------------------------------
    # Chunk helpers
    # ------------------------------------------------------------------
    def _chunk_index(self) -> ChunkBTree:
        layout = self._layout
        if not isinstance(layout, ChunkedLayout):
            raise H5LayoutError("dataset is not chunked")
        if self._btree is None or (
            layout.indexed and self._btree.root_addr != layout.btree_addr
        ):
            if layout.indexed:
                self._btree = ChunkBTree(
                    self._file.metaio, len(layout.chunk_shape), layout.btree_addr
                )
            else:
                self._btree = ChunkBTree(self._file.metaio, len(layout.chunk_shape))
                layout.btree_addr = self._btree.root_addr
                self._sync_layout()
        return self._btree

    def _chunks_overlapping(
        self, slabs: Tuple[Tuple[int, int], ...]
    ) -> List[Tuple[int, ...]]:
        """Grid coordinates of every chunk intersecting the selection."""
        layout = self._layout
        assert isinstance(layout, ChunkedLayout)
        ranges = []
        for (start, count), csize in zip(slabs, layout.chunk_shape):
            if count == 0:
                return []
            first = start // csize
            last = (start + count - 1) // csize
            ranges.append(range(first, last + 1))
        return [tuple(c) for c in itertools.product(*ranges)]

    def _chunk_box(
        self, coords: Tuple[int, ...]
    ) -> Tuple[Tuple[int, int], ...]:
        """The dataset-coordinate box a chunk covers (clipped to the shape)."""
        layout = self._layout
        assert isinstance(layout, ChunkedLayout)
        box = []
        for c, csize, dim in zip(coords, layout.chunk_shape, self.shape):
            lo = c * csize
            hi = min(lo + csize, dim)
            box.append((lo, hi - lo))
        return tuple(box)

    @property
    def _chunk_npoints(self) -> int:
        layout = self._layout
        assert isinstance(layout, ChunkedLayout)
        n = 1
        for c in layout.chunk_shape:
            n *= c
        return n

    # ==================================================================
    # WRITE
    # ==================================================================
    def write(self, data, selection: Selection | None = None) -> None:
        """Write ``data`` into the selected region (default: everything).

        Fixed-type datasets accept anything ``np.asarray`` does; the data
        must match the selection's shape (broadcast of scalars is allowed).
        Variable-length datasets accept a sequence of elements in row-major
        selection order.
        """
        self._file._check_writable()
        self._file._record(self._oid)  # liveness: raises on deleted objects
        selection = selection or Selection.all()
        if self._dtype.is_vlen:
            self._write_vlen(list(data), selection)
        else:
            self._write_fixed(data, selection)

    def _coerce_fixed(self, data, slabs: Tuple[Tuple[int, int], ...]) -> np.ndarray:
        out_shape = tuple(count for _, count in slabs)
        arr = np.asarray(data)
        if self._dtype.code.startswith("S"):
            arr = arr.astype(f"S{self._dtype.itemsize}")
        else:
            arr = arr.astype(self._dtype.numpy_dtype, copy=False)
        if arr.shape == () and out_shape:
            arr = np.broadcast_to(arr, out_shape)
        expected = math.prod(out_shape)
        if arr.size != expected:
            raise H5TypeError(
                f"data of size {arr.size} does not fill selection shape {out_shape}"
            )
        return np.ascontiguousarray(arr).reshape(out_shape)

    def _write_fixed(self, data, selection: Selection) -> None:
        slabs = selection.resolve(self._space)
        arr = self._coerce_fixed(data, slabs)
        layout = self._layout
        if isinstance(layout, CompactLayout):
            self._write_compact(arr, slabs)
        elif isinstance(layout, ContiguousLayout):
            self._write_contiguous(arr, slabs)
        elif isinstance(layout, ChunkedLayout):
            self._write_chunked(arr, slabs)
        else:  # pragma: no cover - exhaustive
            raise H5LayoutError(f"unknown layout {layout!r}")

    # ----------------------------- compact ---------------------------
    def _write_compact(
        self, arr: np.ndarray, slabs: Tuple[Tuple[int, int], ...]
    ) -> None:
        layout = self._layout
        assert isinstance(layout, CompactLayout)
        itemsize = self._dtype.itemsize
        buf = bytearray(layout.data.ljust(self.size * itemsize, b"\x00"))
        flat = arr.reshape(-1).tobytes()
        pos = 0
        for start, length in slab_runs(self._space, slabs):
            buf[start * itemsize : (start + length) * itemsize] = flat[
                pos : pos + length * itemsize
            ]
            pos += length * itemsize
        layout.data = bytes(buf)
        self._sync_layout()

    # --------------------------- contiguous --------------------------
    def _ensure_contiguous_alloc(self) -> ContiguousLayout:
        layout = self._layout
        assert isinstance(layout, ContiguousLayout)
        if not layout.allocated:
            size = max(self.size * self._dtype.itemsize, 1)
            layout.addr = self._file.allocator.allocate_at_eof(size)
            layout.size = size
            self._sync_layout()
        return layout

    def _write_contiguous(
        self, arr: np.ndarray, slabs: Tuple[Tuple[int, int], ...]
    ) -> None:
        layout = self._ensure_contiguous_alloc()
        itemsize = self._dtype.itemsize
        flat = arr.reshape(-1).tobytes()
        pos = 0
        for start, length in slab_runs(self._space, slabs):
            nbytes = length * itemsize
            self._raw_write(layout.addr + start * itemsize, flat[pos : pos + nbytes])
            pos += nbytes

    # --------------------------- filters -----------------------------
    def _encode_chunk(self, raw: bytes) -> bytes:
        """Run the chunk through the filter pipeline on its way to disk."""
        layout = self._layout
        if isinstance(layout, ChunkedLayout) and layout.compression == "zlib":
            import zlib

            return zlib.compress(raw, layout.compression_level)
        return raw

    def _decode_chunk(self, stored: bytes) -> bytes:
        """Undo the filter pipeline on a chunk read from disk."""
        layout = self._layout
        if isinstance(layout, ChunkedLayout) and layout.compression == "zlib":
            import zlib

            return zlib.decompress(stored)
        return stored

    # ---------------------------- chunked ----------------------------
    def _write_chunked(
        self, arr: np.ndarray, slabs: Tuple[Tuple[int, int], ...]
    ) -> None:
        layout = self._layout
        assert isinstance(layout, ChunkedLayout)
        btree = self._chunk_index()
        itemsize = self._dtype.itemsize
        chunk_nbytes = self._chunk_npoints * itemsize
        np_dtype = self._dtype.numpy_dtype
        for coords in self._chunks_overlapping(slabs):
            box = self._chunk_box(coords)
            inter = _intersect(slabs, box)
            if inter is None:
                continue
            # The write covers the whole (shape-clipped) chunk box when the
            # intersection equals the box — no read-modify-write needed.
            full_chunk = inter == box
            found = btree.lookup(coords)
            if found is None or full_chunk:
                chunk_arr = np.zeros(layout.chunk_shape, dtype=np_dtype)
            else:
                addr, stored_size = found
                raw = self._decode_chunk(self._raw_read(addr, stored_size))
                chunk_arr = (
                    np.frombuffer(raw, dtype=np_dtype)
                    .reshape(layout.chunk_shape)
                    .copy()
                )
            chunk_slices = tuple(
                slice(istart - b[0], istart - b[0] + icount)
                for (istart, icount), b in zip(inter, box)
            )
            arr_slices = tuple(
                slice(istart - s[0], istart - s[0] + icount)
                for (istart, icount), s in zip(inter, slabs)
            )
            chunk_arr[chunk_slices] = arr[arr_slices]
            stored = self._encode_chunk(chunk_arr.tobytes())
            if found is not None and len(stored) == found[1]:
                # Same on-disk size: rewrite in place.
                addr = found[0]
            else:
                # New chunk, or a filtered chunk whose size changed — it
                # relocates, leaving the old extent as a hole (the
                # fragmentation cost of filtered datasets).
                addr = self._file.allocator.allocate_at_eof(len(stored))
                if found is not None:
                    self._file.allocator.free(found[0], found[1])
            self._raw_write(addr, stored)
            if found is None or found[0] != addr or found[1] != len(stored):
                btree.insert(coords, addr, len(stored))
        if layout.btree_addr != btree.root_addr:
            layout.btree_addr = btree.root_addr
            self._sync_layout()

    # ------------------------------ vlen -----------------------------
    def _require_vlen_1d(self) -> None:
        if self._space.ndim != 1:
            raise H5LayoutError(
                "variable-length datasets must be one-dimensional "
                f"(got shape {self.shape})"
            )

    def _write_vlen(self, elements: List[object], selection: Selection) -> None:
        self._require_vlen_1d()
        n = selection.npoints(self._space)
        if len(elements) != n:
            raise H5TypeError(
                f"{len(elements)} elements supplied for a selection of {n}"
            )
        encoded = [self._dtype.to_heap_bytes(e) for e in elements]
        layout = self._layout
        if isinstance(layout, ContiguousLayout):
            # Per-element heap insert (one raw write each), then the
            # reference array region for the selection in one write.
            refs = [self._file.heap.insert(e) for e in encoded]
            self._write_refs_contiguous(refs, selection)
        elif isinstance(layout, ChunkedLayout):
            self._write_vlen_chunked(encoded, selection)
        else:
            raise H5LayoutError(
                f"variable-length data unsupported for {layout.name} layout"
            )

    def _write_refs_contiguous(
        self, refs: List[HeapRef], selection: Selection
    ) -> None:
        layout = self._ensure_contiguous_alloc()
        itemsize = self._dtype.itemsize
        blob = b"".join(r.encode() for r in refs)
        pos = 0
        for start, length in selection_runs(self._space, selection):
            nbytes = length * itemsize
            self._raw_write(layout.addr + start * itemsize, blob[pos : pos + nbytes])
            pos += nbytes

    def _write_vlen_chunked(
        self, encoded: List[bytes], selection: Selection
    ) -> None:
        layout = self._layout
        assert isinstance(layout, ChunkedLayout)
        btree = self._chunk_index()
        (sel_start, sel_count) = selection.resolve(self._space)[0]
        csize = layout.chunk_shape[0]
        itemsize = self._dtype.itemsize
        chunk_nbytes = csize * itemsize
        for coords in self._chunks_overlapping(((sel_start, sel_count),)):
            (c,) = coords
            lo = max(c * csize, sel_start)
            hi = min((c + 1) * csize, sel_start + sel_count, self.shape[0])
            batch = encoded[lo - sel_start : hi - sel_start]
            # One heap collection per chunk: single raw write for the data.
            refs = self._file.heap.insert_batch(batch)
            found = btree.lookup(coords)
            if found is None:
                addr = self._file.allocator.allocate_at_eof(chunk_nbytes)
            else:
                addr, _ = found
            ref_blob = bytearray()
            if lo > c * csize or hi < min((c + 1) * csize, self.shape[0]):
                # Partial chunk of references: read-modify-write.
                existing = bytearray(
                    self._raw_read(addr, chunk_nbytes)
                    if found is not None
                    else b"\x00" * chunk_nbytes
                )
                for i, r in enumerate(refs):
                    off = (lo - c * csize + i) * itemsize
                    existing[off : off + itemsize] = r.encode()
                ref_blob = existing
            else:
                ref_blob = bytearray(b"".join(r.encode() for r in refs)).ljust(
                    chunk_nbytes, b"\x00"
                )
            self._raw_write(addr, bytes(ref_blob))
            if found is None:
                btree.insert(coords, addr, chunk_nbytes)
        if layout.btree_addr != btree.root_addr:
            layout.btree_addr = btree.root_addr
            self._sync_layout()

    # ==================================================================
    # READ
    # ==================================================================
    def read(self, selection: Selection | None = None):
        """Read the selected region (default: everything).

        Returns a NumPy array shaped like the selection for fixed types, or
        a list of elements for variable-length types.
        """
        self._file._record(self._oid)  # liveness: raises on deleted objects
        selection = selection or Selection.all()
        if self._desc.dtype.is_vlen:
            return self._read_vlen(selection)
        return self._read_fixed(selection)

    def _read_fixed(self, selection: Selection) -> np.ndarray:
        # One traced read per call: read the shared descriptor once and
        # resolve the selection once.
        desc = self._desc
        layout, space = desc.layout, desc.space
        itemsize = desc.dtype.itemsize
        np_dtype = desc.dtype.numpy_dtype
        slabs = selection.resolve(space)
        out_shape = tuple(count for _, count in slabs)
        if isinstance(layout, ContiguousLayout):
            if not layout.allocated:
                return np.zeros(out_shape, dtype=np_dtype)
            addr = layout.addr
            parts = [
                self._raw_read(addr + start * itemsize, length * itemsize)
                for start, length in slab_runs(space, slabs)
            ]
        elif isinstance(layout, CompactLayout):
            buf = layout.data.ljust(space.npoints * itemsize, b"\x00")
            parts = [
                buf[start * itemsize : (start + length) * itemsize]
                for start, length in slab_runs(space, slabs)
            ]
        elif isinstance(layout, ChunkedLayout):
            return self._read_chunked(slabs, np_dtype)
        else:  # pragma: no cover - exhaustive
            raise H5LayoutError(f"unknown layout {layout!r}")
        flat = parts[0] if len(parts) == 1 else b"".join(parts)
        return np.frombuffer(flat, dtype=np_dtype).reshape(out_shape).copy()

    def _read_chunked(
        self, slabs: Tuple[Tuple[int, int], ...], np_dtype
    ) -> np.ndarray:
        layout = self._layout
        assert isinstance(layout, ChunkedLayout)
        btree = self._chunk_index()
        out = np.zeros(tuple(c for _, c in slabs), dtype=np_dtype)
        for coords in self._chunks_overlapping(slabs):
            found = btree.lookup(coords)
            if found is None:
                continue  # unwritten chunk reads as fill (zeros)
            box = self._chunk_box(coords)
            inter = _intersect(slabs, box)
            if inter is None:
                continue
            addr, stored_size = found
            raw = self._decode_chunk(self._raw_read(addr, stored_size))
            chunk_arr = np.frombuffer(raw, dtype=np_dtype).reshape(layout.chunk_shape)
            chunk_slices = tuple(
                slice(istart - b[0], istart - b[0] + icount)
                for (istart, icount), b in zip(inter, box)
            )
            out_slices = tuple(
                slice(istart - s[0], istart - s[0] + icount)
                for (istart, icount), s in zip(inter, slabs)
            )
            out[out_slices] = chunk_arr[chunk_slices]
        return out

    def _read_vlen(self, selection: Selection) -> List[object]:
        self._require_vlen_1d()
        layout = self._layout
        itemsize = self._dtype.itemsize
        refs: List[HeapRef] = []
        if isinstance(layout, ContiguousLayout):
            if not layout.allocated:
                raise H5LayoutError("variable-length dataset has no data yet")
            for start, length in selection_runs(self._space, selection):
                blob = self._raw_read(layout.addr + start * itemsize, length * itemsize)
                refs.extend(
                    HeapRef.decode(blob, i * itemsize) for i in range(length)
                )
        elif isinstance(layout, ChunkedLayout):
            btree = self._chunk_index()
            (sel_start, sel_count) = selection.resolve(self._space)[0]
            csize = layout.chunk_shape[0]
            chunk_nbytes = csize * itemsize
            for coords in self._chunks_overlapping(((sel_start, sel_count),)):
                (c,) = coords
                found = btree.lookup(coords)
                if found is None:
                    raise H5LayoutError(f"chunk {coords} has no data")
                addr, _ = found
                blob = self._raw_read(addr, chunk_nbytes)
                lo = max(c * csize, sel_start)
                hi = min((c + 1) * csize, sel_start + sel_count, self.shape[0])
                for i in range(lo, hi):
                    refs.append(HeapRef.decode(blob, (i - c * csize) * itemsize))
        else:
            raise H5LayoutError(
                f"variable-length data unsupported for {layout.name} layout"
            )
        return [self._dtype.from_heap_bytes(self._file.heap.read(r)) for r in refs]

    # ------------------------------------------------------------------
    # Raw I/O (classified RAW at the VFD)
    # ------------------------------------------------------------------
    def _raw_write(self, addr: int, data: bytes) -> None:
        self._file.vfd.write(addr, data, IoClass.RAW)

    def _raw_read(self, addr: int, nbytes: int) -> bytes:
        return self._file.vfd.read(addr, nbytes, IoClass.RAW)

    # ------------------------------------------------------------------
    # Resizing (chunked datasets only, like HDF5)
    # ------------------------------------------------------------------
    def resize(self, new_shape: Tuple[int, ...] | int) -> None:
        """Change the dataspace extent of a *chunked* dataset.

        Growing exposes fresh fill-value (zero) elements; new chunks are
        allocated lazily on write.  Shrinking narrows the logical extent —
        like HDF5, chunks falling outside the new shape are *not*
        reclaimed, which is one more way real files accumulate dead space.
        """
        if not isinstance(self._layout, ChunkedLayout):
            raise H5LayoutError(
                f"only chunked datasets are resizable (layout is "
                f"{self.layout_name})"
            )
        if isinstance(new_shape, int):
            new_shape = (new_shape,)
        new_shape = tuple(int(d) for d in new_shape)
        if len(new_shape) != self._space.ndim:
            raise H5TypeError(
                f"resize rank {len(new_shape)} != dataspace rank "
                f"{self._space.ndim}"
            )
        if any(d < 0 for d in new_shape):
            raise H5TypeError(f"negative extent in {new_shape}")
        self._desc.space = Dataspace(new_shape)
        self._header.replace(MessageType.DATASPACE, self._space.encode())
        self._touch()

    # ------------------------------------------------------------------
    # Convenience indexing (full reads/writes only)
    # ------------------------------------------------------------------
    def __getitem__(self, key):
        if key is Ellipsis:
            return self.read()
        raise TypeError("only ds[...] full reads are supported; use read()")

    def __setitem__(self, key, value) -> None:
        if key is Ellipsis:
            self.write(value)
            return
        raise TypeError("only ds[...] full writes are supported; use write()")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Dataset {self._path!r} shape={self.shape} dtype={self._dtype.code} "
            f"layout={self.layout_name}>"
        )


def _intersect(
    a: Tuple[Tuple[int, int], ...], b: Tuple[Tuple[int, int], ...]
) -> Optional[Tuple[Tuple[int, int], ...]]:
    """Intersection of two per-dimension (start, count) boxes, or None."""
    out = []
    for (astart, acount), (bstart, bcount) in zip(a, b):
        lo = max(astart, bstart)
        hi = min(astart + acount, bstart + bcount)
        if hi <= lo:
            return None
        out.append((lo, hi - lo))
    return tuple(out)
