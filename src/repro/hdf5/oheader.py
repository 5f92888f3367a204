"""Object headers and their typed messages.

Every named object (group or dataset) is anchored by an *object header*: a
block of typed messages describing the object — its dataspace, datatype,
storage layout, attributes, and (for groups) links to children.  Object
headers are pure format metadata; every byte read or written here reaches
the VFD flagged :attr:`~repro.vfd.base.IoClass.METADATA`.

A header's LINK messages are also reachable through a name index (see
:meth:`ObjectHeader.link`), so resolving one name within a group does not
grow with the group's size.  The index is CPU state over bytes already
read; it performs no I/O of its own.

Headers are allocated with slack capacity.  When messages outgrow the
capacity the header must *relocate* to a larger block, freeing the old one —
one of the mechanisms by which descriptive formats fragment their files.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hdf5.errors import H5FormatError, H5NameError
from repro.hdf5.format import pack_bytes, unpack_bytes

__all__ = ["MessageType", "Message", "ObjectKind", "ObjectHeader", "OHDR_PREFIX_SIZE"]

_OHDR_SIG = b"OHDR"
_PREFIX = struct.Struct("<4sBBHII")
#: Bytes of fixed prefix before the message stream.
OHDR_PREFIX_SIZE = _PREFIX.size

#: Initial slack: headers are allocated at this minimum so small additions
#: (an attribute, a link) do not immediately force relocation.
DEFAULT_HEADER_CAPACITY = 256


class MessageType(enum.IntEnum):
    """Typed header message tags."""

    DATASPACE = 1
    DATATYPE = 2
    LAYOUT = 3
    ATTRIBUTE = 4
    LINK = 5


class ObjectKind(enum.IntEnum):
    GROUP = 0
    DATASET = 1


@dataclass
class Message:
    """One typed message: a tag and an opaque payload."""

    type: MessageType
    payload: bytes

    def encode(self) -> bytes:
        return struct.pack("<HI", int(self.type), len(self.payload)) + self.payload

    @classmethod
    def decode(cls, data: bytes, offset: int) -> Tuple["Message", int]:
        if offset + 6 > len(data):
            raise H5FormatError("truncated message prefix")
        mtype, length = struct.unpack_from("<HI", data, offset)
        start = offset + 6
        end = start + length
        if end > len(data):
            raise H5FormatError("message payload overruns header block")
        return cls(MessageType(mtype), data[start:end]), end

    @property
    def encoded_size(self) -> int:
        return 6 + len(self.payload)


@dataclass
class ObjectHeader:
    """An object header block: kind + message list + block capacity.

    ``messages`` is the source of truth for :meth:`encode`.  LINK messages
    are read and written only through the link API (:meth:`link`,
    :meth:`links`, :meth:`add_link`, :meth:`repoint_link`,
    :meth:`remove_link`), which keeps a name index over them: built on
    first use from the decoded messages, then updated by every mutation.
    """

    kind: ObjectKind
    messages: List[Message] = field(default_factory=list)
    capacity: int = DEFAULT_HEADER_CAPACITY
    # name -> (kind, addr, LINK message), in message order.
    _link_index: Optional[Dict[str, Tuple[ObjectKind, int, Message]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        """Bytes the prefix plus current messages occupy."""
        return OHDR_PREFIX_SIZE + sum(m.encoded_size for m in self.messages)

    def fits(self) -> bool:
        return self.used <= self.capacity

    @staticmethod
    def capacity_for(size: int) -> int:
        """Smallest power-of-two-ish capacity holding ``size`` bytes."""
        cap = DEFAULT_HEADER_CAPACITY
        while cap < size:
            cap *= 2
        return cap

    # ------------------------------------------------------------------
    # Message access
    # ------------------------------------------------------------------
    def find(self, mtype: MessageType) -> Optional[Message]:
        """First message of the given type, or None."""
        for m in self.messages:
            if m.type == mtype:
                return m
        return None

    def find_all(self, mtype: MessageType) -> List[Message]:
        return [m for m in self.messages if m.type == mtype]

    def replace(self, mtype: MessageType, payload: bytes) -> None:
        """Replace the first message of ``mtype`` (or append if absent)."""
        for m in self.messages:
            if m.type == mtype:
                m.payload = payload
                return
        self.messages.append(Message(mtype, payload))

    def remove(self, predicate) -> int:
        """Remove messages matching ``predicate(message)``; returns count."""
        before = len(self.messages)
        self.messages = [m for m in self.messages if not predicate(m)]
        return before - len(self.messages)

    # ------------------------------------------------------------------
    # Links (name index over the LINK messages)
    # ------------------------------------------------------------------
    def _index(self) -> Dict[str, Tuple[ObjectKind, int, Message]]:
        index = self._link_index
        if index is None:
            index = {}
            for m in self.messages:
                if m.type == MessageType.LINK:
                    name, kind, addr = decode_link(m.payload)
                    if name in index:
                        raise H5FormatError(f"duplicate link name {name!r}")
                    index[name] = (kind, addr, m)
            self._link_index = index
        return index

    def link(self, name: str) -> Optional[Tuple[ObjectKind, int]]:
        """``(kind, addr)`` of the child linked as ``name``, or None."""
        index = self._link_index
        entry = (self._index() if index is None else index).get(name)
        return None if entry is None else entry[:2]

    def links(self) -> List[Tuple[str, ObjectKind, int]]:
        """Every ``(name, kind, addr)`` link, in message order."""
        return [(name, kind, addr)
                for name, (kind, addr, _) in self._index().items()]

    def add_link(self, name: str, kind: ObjectKind, addr: int) -> None:
        """Append a LINK message; ``name`` must be new to this header."""
        index = self._index()
        if name in index:
            raise H5NameError(f"link {name!r} already exists")
        msg = Message(MessageType.LINK, encode_link(name, kind, addr))
        self.messages.append(msg)
        index[name] = (kind, addr, msg)

    def repoint_link(self, name: str, addr: int) -> None:
        """Point the link ``name`` at a new header address."""
        index = self._index()
        if name not in index:
            raise H5NameError(f"no link named {name!r}")
        kind, _, msg = index[name]
        msg.payload = encode_link(name, kind, addr)
        index[name] = (kind, addr, msg)

    def remove_link(self, name: str) -> None:
        """Drop the LINK message for ``name``."""
        entry = self._index().pop(name, None)
        if entry is None:
            raise H5NameError(f"no link named {name!r}")
        msg = entry[2]
        self.messages = [m for m in self.messages if m is not msg]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        body = b"".join(m.encode() for m in self.messages)
        used = OHDR_PREFIX_SIZE + len(body)
        if used > self.capacity:
            raise H5FormatError(
                f"header needs {used} bytes but capacity is {self.capacity}"
            )
        prefix = _PREFIX.pack(
            _OHDR_SIG, 1, int(self.kind), len(self.messages), used, self.capacity
        )
        return (prefix + body).ljust(self.capacity, b"\x00")

    @staticmethod
    def peek_capacity(data: bytes) -> int:
        """Read just the block capacity from a header prefix.

        Lets a reader discover how many bytes to fetch before decoding the
        full message stream.
        """
        if len(data) < OHDR_PREFIX_SIZE:
            raise H5FormatError("truncated object header prefix")
        sig, _version, _kind, _count, _used, capacity = _PREFIX.unpack_from(data)
        if sig != _OHDR_SIG:
            raise H5FormatError(f"bad object header signature {sig!r}")
        return capacity

    @classmethod
    def decode(cls, data: bytes) -> "ObjectHeader":
        if len(data) < OHDR_PREFIX_SIZE:
            raise H5FormatError("truncated object header")
        sig, version, kind, count, used, capacity = _PREFIX.unpack_from(data)
        if sig != _OHDR_SIG:
            raise H5FormatError(f"bad object header signature {sig!r}")
        if version != 1:
            raise H5FormatError(f"unsupported object header version {version}")
        if used > len(data):
            raise H5FormatError("object header 'used' exceeds available bytes")
        messages: List[Message] = []
        offset = OHDR_PREFIX_SIZE
        for _ in range(count):
            msg, offset = Message.decode(data, offset)
            messages.append(msg)
        return cls(kind=ObjectKind(kind), messages=messages, capacity=capacity)


# ----------------------------------------------------------------------
# Link message codec (used by groups)
# ----------------------------------------------------------------------

def encode_link(name: str, kind: ObjectKind, addr: int) -> bytes:
    """Payload of a LINK message: child name, kind, and header address."""
    return pack_bytes(name.encode("utf-8")) + struct.pack("<BQ", int(kind), addr)


def decode_link(payload: bytes) -> Tuple[str, ObjectKind, int]:
    raw, offset = unpack_bytes(payload, 0)
    kind, addr = struct.unpack_from("<BQ", payload, offset)
    return raw.decode("utf-8"), ObjectKind(kind), addr


# ----------------------------------------------------------------------
# Attribute message codec
# ----------------------------------------------------------------------

def encode_attribute(name: str, dtype_code: str, data: bytes) -> bytes:
    """Payload of an ATTRIBUTE message."""
    return (
        pack_bytes(name.encode("utf-8"))
        + pack_bytes(dtype_code.encode("ascii"))
        + pack_bytes(data)
    )


def decode_attribute(payload: bytes) -> Tuple[str, str, bytes]:
    name_raw, offset = unpack_bytes(payload, 0)
    code_raw, offset = unpack_bytes(payload, offset)
    data, _ = unpack_bytes(payload, offset)
    return name_raw.decode("utf-8"), code_raw.decode("ascii"), data
