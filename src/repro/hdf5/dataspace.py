"""Dataspaces and selections.

A :class:`Dataspace` is the logical shape of a dataset.  A
:class:`Selection` names a rectangular sub-region (a hyperslab) of that
shape — or the whole of it.  The key service this module provides is
*linearization*: translating a hyperslab into the maximal contiguous
row-major element runs it covers (:func:`selection_runs`).  Those runs are
exactly what the format layer turns into file addresses, i.e. the first of
the paper's two translation steps.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.hdf5.errors import H5FormatError, H5TypeError

__all__ = ["Dataspace", "Selection", "selection_runs", "slab_runs"]


@dataclass(frozen=True)
class Dataspace:
    """The logical, fixed shape of a dataset.

    Immutable (a resize installs a new dataspace), so the derived views
    every access asks for are computed once per instance.
    """

    shape: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.shape):
            raise H5TypeError(f"negative dimension in shape {self.shape}")

    @cached_property
    def ndim(self) -> int:
        return len(self.shape)

    @cached_property
    def npoints(self) -> int:
        """Total number of elements (1 for a scalar dataspace)."""
        n = 1
        for d in self.shape:
            n *= d
        return n

    @cached_property
    def full_slabs(self) -> Tuple[Tuple[int, int], ...]:
        """Per-dimension ``(0, extent)``: the resolved ALL selection."""
        return tuple((0, d) for d in self.shape)

    # ------------------------------------------------------------------
    # Serialization (dataspace message payload)
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        out = struct.pack("<B", self.ndim)
        for d in self.shape:
            out += struct.pack("<Q", d)
        return out

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["Dataspace", int]:
        if offset >= len(data):
            raise H5FormatError("truncated dataspace message")
        (ndim,) = struct.unpack_from("<B", data, offset)
        offset += 1
        dims = []
        for _ in range(ndim):
            (d,) = struct.unpack_from("<Q", data, offset)
            dims.append(d)
            offset += 8
        return cls(tuple(dims)), offset


@dataclass(frozen=True)
class Selection:
    """A hyperslab: per-dimension ``(start, count)`` pairs, or ALL.

    Use :meth:`all` for the full dataspace and :meth:`hyperslab` for a
    sub-region.  ``Selection.hyperslab(((start, count),))`` selects a 1-D
    range; higher dimensions nest naturally.
    """

    slabs: Optional[Tuple[Tuple[int, int], ...]]  # None means ALL

    @classmethod
    def all(cls) -> "Selection":
        """Select every element (one shared immutable instance)."""
        return _ALL

    @classmethod
    def hyperslab(cls, slabs: Sequence[Sequence[int]]) -> "Selection":
        """Select the block with per-dimension (start, count)."""
        norm = tuple((int(s), int(c)) for s, c in slabs)
        for start, count in norm:
            if start < 0 or count < 0:
                raise H5TypeError(f"negative start/count in hyperslab {norm}")
        return cls(norm)

    @property
    def is_all(self) -> bool:
        return self.slabs is None

    def resolve(self, space: Dataspace) -> Tuple[Tuple[int, int], ...]:
        """Concrete per-dimension (start, count) against ``space``.

        Raises:
            H5TypeError: When the slab rank mismatches or overruns the shape.
        """
        if self.slabs is None:
            return space.full_slabs
        if len(self.slabs) != space.ndim:
            raise H5TypeError(
                f"selection rank {len(self.slabs)} != dataspace rank {space.ndim}"
            )
        for (start, count), dim in zip(self.slabs, space.shape):
            if start + count > dim:
                raise H5TypeError(
                    f"selection ({start}, {count}) exceeds dimension {dim}"
                )
        return self.slabs

    def npoints(self, space: Dataspace) -> int:
        """Number of selected elements."""
        if self.slabs is None:
            return space.npoints
        n = 1
        for _, count in self.resolve(space):
            n *= count
        return n

    def out_shape(self, space: Dataspace) -> Tuple[int, ...]:
        """Shape of the array a read of this selection produces."""
        return tuple(count for _, count in self.resolve(space))


_ALL = Selection(None)


def selection_runs(space: Dataspace, selection: Selection) -> List[Tuple[int, int]]:
    """Contiguous row-major element runs covered by ``selection``.

    Returns a list of ``(flat_start, length)`` pairs in increasing order.
    A full selection — or one whose trailing dimensions are fully selected —
    coalesces into a single run; scattered hyperslabs produce one run per
    innermost contiguous block.  This is the translation that determines
    how many I/O operations a logical access costs.
    """
    return slab_runs(space, selection.resolve(space))


def slab_runs(
    space: Dataspace, slabs: Tuple[Tuple[int, int], ...]
) -> List[Tuple[int, int]]:
    """:func:`selection_runs` of an already resolved selection."""
    if space.ndim == 0:
        return [(0, 1)]

    # Find the longest fully-selected suffix: those dims fold into the run.
    split = space.ndim
    while split > 0:
        start, count = slabs[split - 1]
        if start == 0 and count == space.shape[split - 1]:
            split -= 1
        else:
            break
    if split == 0:
        # Everything selected: one run, or none when a dimension is empty.
        npoints = space.npoints
        return [(0, npoints)] if npoints else []
    if any(count == 0 for _, count in slabs):
        return []

    # Row-major strides in elements.
    strides = [1] * space.ndim
    for axis in range(space.ndim - 2, -1, -1):
        strides[axis] = strides[axis + 1] * space.shape[axis + 1]

    # The innermost partially-selected dim bounds each contiguous run: the
    # run covers [inner_start, inner_start + inner_count) on that axis with
    # everything below it fully selected.
    inner_axis = split - 1
    inner_start, inner_count = slabs[inner_axis]
    below = strides[inner_axis]  # elements per step along the inner axis
    run_len = inner_count * below

    runs: List[Tuple[int, int]] = []

    def rec(axis: int, base: int) -> None:
        if axis == inner_axis:
            runs.append((base + inner_start * below, run_len))
            return
        start, count = slabs[axis]
        for i in range(start, start + count):
            rec(axis + 1, base + i * strides[axis])

    rec(0, 0)
    return runs
