"""Binary format primitives: addressing, the superblock, codec helpers.

The file address space is flat and byte-granular.  Addresses are unsigned
64-bit little-endian; :data:`UNDEF_ADDR` marks "no address yet" (HDF5 uses
all-ones the same way).

File anatomy::

    addr 0                superblock (fixed SUPERBLOCK_SIZE bytes)
    addr SUPERBLOCK_SIZE  first allocation (the root group's object header)
    ...                   object headers / B-tree nodes / heap collections /
                          raw data blocks, in allocation order

The superblock holds the format signature, version, the root group header
address, and the end-of-file address recorded at the last clean close.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.hdf5.errors import H5FormatError

__all__ = [
    "UNDEF_ADDR",
    "SIGNATURE",
    "VERSION",
    "SUPERBLOCK_SIZE",
    "Superblock",
    "pack_bytes",
    "unpack_bytes",
]

#: "No address" sentinel (matches HDF5's HADDR_UNDEF convention).
UNDEF_ADDR = 0xFFFF_FFFF_FFFF_FFFF

#: File signature. Deliberately distinct from real HDF5's so files are
#: never mistaken for the real format.
SIGNATURE = b"\x89RH5\r\n\x1a\n"

VERSION = 1

_SB_STRUCT = struct.Struct("<8sIQQI")
#: Fixed superblock allocation; the struct is padded up to this size so the
#: first real allocation lands at a stable address.
SUPERBLOCK_SIZE = 48


def pack_bytes(data: bytes) -> bytes:
    """Length-prefixed (u4) byte string."""
    return struct.pack("<I", len(data)) + data


def unpack_bytes(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Decode a length-prefixed byte string; returns (value, next_offset)."""
    (length,) = struct.unpack_from("<I", data, offset)
    start = offset + 4
    end = start + length
    if end > len(data):
        raise H5FormatError("length-prefixed string overruns buffer")
    return data[start:end], end


@dataclass
class Superblock:
    """The file's anchor block at address 0.

    Attributes:
        root_addr: Address of the root group's object header.
        eof_addr: End-of-file address recorded at last clean close.
    """

    root_addr: int = UNDEF_ADDR
    eof_addr: int = SUPERBLOCK_SIZE

    def encode(self) -> bytes:
        body = _SB_STRUCT.pack(
            SIGNATURE, VERSION, self.root_addr, self.eof_addr, 0
        )
        if len(body) > SUPERBLOCK_SIZE:
            raise H5FormatError("superblock struct exceeds fixed size")
        return body.ljust(SUPERBLOCK_SIZE, b"\x00")

    @classmethod
    def decode(cls, data: bytes) -> "Superblock":
        if len(data) < _SB_STRUCT.size:
            raise H5FormatError("truncated superblock")
        sig, version, root_addr, eof_addr, _reserved = _SB_STRUCT.unpack_from(data)
        if sig != SIGNATURE:
            raise H5FormatError(f"bad file signature {sig!r}")
        if version != VERSION:
            raise H5FormatError(f"unsupported format version {version}")
        return cls(root_addr=root_addr, eof_addr=eof_addr)
