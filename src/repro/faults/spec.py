"""Declarative fault specifications.

A :class:`FaultSpec` is the complete, serializable description of every
fault a run will see — which devices misbehave, how, when, and which nodes
die.  Together with its ``seed`` it makes a faulty run *replayable*: two
runs of the same workflow under the same spec produce bit-identical
results, which is what lets the CI determinism gate compare two chaos runs
byte-for-byte.

Faults come in two families:

- :class:`DeviceFault` — attached to a path prefix (typically a mount
  prefix such as ``/pfs`` or ``/local/n1/nvme``).  ``kind`` selects the
  behavior:

  - ``"transient"`` — each matching I/O fails with
    :class:`~repro.storage.devices.DeviceError` with probability ``rate``
    (seeded; the classic retryable flaky-device fault);
  - ``"permanent"`` — every matching I/O in the window fails (a dead
    controller; retries on the same path keep failing until the window
    closes);
  - ``"short_io"`` — each matching I/O is cut short with probability
    ``rate`` and surfaces as :class:`~repro.posix.simfs.FsError`, the way
    a short ``read(2)``/``write(2)`` bubbles out of the VFD layer;
  - ``"slowdown"`` — the device's cost model is multiplied by ``factor``
    while the window is open (a straggler / sick disk; no errors).

- :class:`NodeFault` — kills the named node at simulated time ``at``;
  its node-local tiers become unreachable and schedulers stop placing
  tasks on it.

Windows are ``[start, end)`` on the simulated clock; ``end=None`` means
"until the end of the run" (serialized as JSON ``null``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

__all__ = ["DeviceFault", "NodeFault", "FaultSpec"]

DEVICE_FAULT_KINDS = ("transient", "permanent", "short_io", "slowdown")
_OPS = ("read", "write", "both")


def _checked(cls, d) -> dict:
    """``d`` if it is a JSON object whose keys all name fields of
    ``cls``; else ``ValueError`` naming what is wrong, so a misspelled
    spec fails loudly instead of running without its faults."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, "
                         f"got {type(d).__name__}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - set(names))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s) "
                         f"{', '.join(map(repr, unknown))}; expected "
                         f"{', '.join(names)}")
    return d


@dataclass(frozen=True)
class DeviceFault:
    """One misbehaving device (see module docstring for the kinds)."""

    path_prefix: str
    kind: str
    #: Per-operation failure probability (transient / short_io).
    rate: float = 0.0
    #: Cost multiplier (slowdown only).
    factor: float = 1.0
    #: Which operations the fault applies to: "read", "write" or "both".
    ops: str = "both"
    start: float = 0.0
    #: Window end on the sim clock; None = open-ended.
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.path_prefix.startswith("/"):
            raise ValueError(
                f"path_prefix must be absolute, got {self.path_prefix!r}")
        if self.kind not in DEVICE_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{DEVICE_FAULT_KINDS}")
        if self.ops not in _OPS:
            raise ValueError(f"ops must be one of {_OPS}, got {self.ops!r}")
        if self.kind in ("transient", "short_io"):
            if not (0.0 < self.rate <= 1.0):
                raise ValueError(
                    f"{self.kind} fault needs 0 < rate <= 1, got {self.rate!r}")
        if self.kind == "slowdown" and not (self.factor >= 1.0):
            raise ValueError(
                f"slowdown fault needs factor >= 1, got {self.factor!r}")
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.end is not None and self.end <= self.start:
            raise ValueError("end must be after start (or None)")

    def matches_path(self, path: str) -> bool:
        p = self.path_prefix.rstrip("/") or "/"
        return path == p or path.startswith(p + "/" if p != "/" else "/")

    def matches_op(self, op: str) -> bool:
        return self.ops == "both" or self.ops == op

    def active_at(self, now: float) -> bool:
        return self.start <= now and (self.end is None or now < self.end)

    @property
    def window_end(self) -> float:
        return math.inf if self.end is None else self.end

    def to_json_dict(self) -> dict:
        return {
            "path_prefix": self.path_prefix,
            "kind": self.kind,
            "rate": self.rate,
            "factor": self.factor,
            "ops": self.ops,
            "start": self.start,
            "end": self.end,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DeviceFault":
        d = _checked(cls, d)
        return cls(
            path_prefix=d["path_prefix"],
            kind=d["kind"],
            rate=float(d.get("rate", 0.0)),
            factor=float(d.get("factor", 1.0)),
            ops=d.get("ops", "both"),
            start=float(d.get("start", 0.0)),
            end=None if d.get("end") is None else float(d["end"]),
        )


@dataclass(frozen=True)
class NodeFault:
    """Kill ``node`` at simulated time ``at``."""

    node: str
    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("node failure time must be non-negative")

    def to_json_dict(self) -> dict:
        return {"node": self.node, "at": self.at}

    @classmethod
    def from_json_dict(cls, d: dict) -> "NodeFault":
        d = _checked(cls, d)
        return cls(node=d["node"], at=float(d["at"]))


@dataclass(frozen=True)
class FaultSpec:
    """Everything the injector needs for one replayable faulty run."""

    seed: int = 0
    device_faults: Tuple[DeviceFault, ...] = field(default_factory=tuple)
    node_faults: Tuple[NodeFault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Normalize lists to tuples so specs are hashable / frozen-safe.
        object.__setattr__(self, "device_faults", tuple(self.device_faults))
        object.__setattr__(self, "node_faults", tuple(self.node_faults))
        seen = set()
        for nf in self.node_faults:
            if nf.node in seen:
                raise ValueError(
                    f"node {nf.node!r} appears in node_faults twice")
            seen.add(nf.node)

    @property
    def empty(self) -> bool:
        return not self.device_faults and not self.node_faults

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "device_faults": [f.to_json_dict() for f in self.device_faults],
            "node_faults": [f.to_json_dict() for f in self.node_faults],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FaultSpec":
        d = _checked(cls, d)
        return cls(
            seed=int(d.get("seed", 0)),
            device_faults=tuple(
                DeviceFault.from_json_dict(x)
                for x in d.get("device_faults", ())),
            node_faults=tuple(
                NodeFault.from_json_dict(x) for x in d.get("node_faults", ())),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "FaultSpec":
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultSpec":
        """Read a spec from a host-filesystem JSON file (the CLI's
        ``--faults`` argument)."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))
