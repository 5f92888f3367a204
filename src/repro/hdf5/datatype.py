"""Datatypes: fixed-size scalars, fixed-length strings, variable-length data.

A :class:`Datatype` describes the element type of a dataset or attribute.
Three classes exist:

- **fixed** numeric types, named by NumPy-style codes (``"i1"``..``"i8"``,
  ``"u1"``..``"u8"``, ``"f4"``, ``"f8"``) — stored inline in the dataset's
  raw data blocks;
- **fixed-length strings** ``"S<n>"`` — also stored inline, padded;
- **variable-length** types ``"vlen-bytes"`` / ``"vlen-str"`` — each element
  lives in the file's *global heap* and the dataset stores heap references.
  This is the storage class whose fragmentation behaviour the paper's
  ARLDM study (its Figure 8 / Figure 13c) revolves around.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.hdf5.errors import H5TypeError
from repro.hdf5.format import pack_bytes, unpack_bytes

__all__ = ["Datatype"]

_FIXED_CODES = {
    "i1": 1, "i2": 2, "i4": 4, "i8": 8,
    "u1": 1, "u2": 2, "u4": 4, "u8": 8,
    "f4": 4, "f8": 8,
}
_VLEN_CODES = ("vlen-bytes", "vlen-str")
_FIXED_STR_RE = re.compile(r"^S([1-9][0-9]*)$")

#: Size of one heap reference stored inline for a variable-length element:
#: collection address (u8) + object index (u2) + object size (u4).
VLEN_REF_SIZE = 14


@dataclass(frozen=True)
class Datatype:
    """An element type.  Construct via :meth:`of` (or directly by code).

    A datatype is immutable, so the derived views every data access asks
    for (:attr:`is_vlen`, :attr:`itemsize`, :attr:`numpy_dtype`) are
    computed once per instance and then read from its ``__dict__``;
    equality and hashing still see only :attr:`code`.
    """

    code: str

    def __post_init__(self) -> None:
        if (
            self.code not in _FIXED_CODES
            and self.code not in _VLEN_CODES
            and not _FIXED_STR_RE.match(self.code)
        ):
            raise H5TypeError(f"unknown datatype code {self.code!r}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, spec: "Datatype | str | np.dtype | type") -> "Datatype":
        """Coerce a user-facing spec to a Datatype.

        Accepts an existing Datatype, a code string, a NumPy dtype, or the
        Python types ``bytes`` / ``str`` (meaning variable-length).
        """
        if isinstance(spec, cls):
            return spec
        if spec is bytes:
            return cls("vlen-bytes")
        if spec is str:
            return cls("vlen-str")
        if isinstance(spec, str):
            return cls(spec)
        if isinstance(spec, np.dtype) or isinstance(spec, type):
            dt = np.dtype(spec)
            if dt.kind in "iuf":
                return cls(f"{dt.kind}{dt.itemsize}")
            if dt.kind == "S":
                return cls(f"S{dt.itemsize}")
            raise H5TypeError(f"unsupported numpy dtype {dt!r}")
        raise H5TypeError(f"cannot interpret {spec!r} as a datatype")

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @cached_property
    def is_vlen(self) -> bool:
        """True for variable-length types."""
        return self.code in _VLEN_CODES

    @property
    def is_string(self) -> bool:
        return self.code == "vlen-str" or self.code.startswith("S")

    @cached_property
    def itemsize(self) -> int:
        """Inline bytes per element (heap-reference size for vlen types)."""
        if self.is_vlen:
            return VLEN_REF_SIZE
        if self.code in _FIXED_CODES:
            return _FIXED_CODES[self.code]
        return int(_FIXED_STR_RE.match(self.code).group(1))

    @cached_property
    def numpy_dtype(self) -> np.dtype:
        """The NumPy dtype of in-memory fixed elements (``S<n>`` for
        fixed-length strings).

        Raises:
            H5TypeError: For variable-length types, which have no fixed
                NumPy representation.
        """
        if self.is_vlen:
            raise H5TypeError(f"{self.code} has no fixed numpy dtype")
        return np.dtype(self.code)

    # ------------------------------------------------------------------
    # Element codecs (vlen)
    # ------------------------------------------------------------------
    def to_heap_bytes(self, element: object) -> bytes:
        """Encode one vlen element to the bytes stored in the global heap."""
        if self.code == "vlen-bytes":
            if not isinstance(element, (bytes, bytearray, memoryview)):
                raise H5TypeError(f"vlen-bytes element must be bytes-like, got {type(element).__name__}")
            return bytes(element)
        if self.code == "vlen-str":
            if not isinstance(element, str):
                raise H5TypeError(f"vlen-str element must be str, got {type(element).__name__}")
            return element.encode("utf-8")
        raise H5TypeError(f"{self.code} is not a variable-length type")

    def from_heap_bytes(self, data: bytes) -> object:
        """Decode one vlen element from its heap bytes."""
        if self.code == "vlen-bytes":
            return data
        if self.code == "vlen-str":
            return data.decode("utf-8")
        raise H5TypeError(f"{self.code} is not a variable-length type")

    # ------------------------------------------------------------------
    # Serialization (datatype message payload)
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        return pack_bytes(self.code.encode("ascii"))

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["Datatype", int]:
        raw, end = unpack_bytes(data, offset)
        return cls(raw.decode("ascii")), end

    def __str__(self) -> str:
        return self.code
