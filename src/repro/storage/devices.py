"""First-order storage device performance models.

Each device charges a cost per I/O operation::

    cost = base_latency
         + nbytes / bandwidth
         + seek_penalty            (when the access is not sequential)
    cost *= contention(n)          (when n requesters share the device)

The parameters below are calibrated once, from publicly documented device
characteristics, and are used unchanged by *every* experiment in the
repository.  Absolute values are therefore a model, but relative behaviour —
many-small-ops vs. few-large-ops, node-local vs. shared parallel/network
filesystems, HDD seek sensitivity — matches the regimes the paper's
evaluation exercises.

Contention model
----------------
Shared mounts (NFS, BeeGFS, Lustre) serialize a fraction of concurrent
request streams; node-local flash sustains more parallelism.  We model this
with a simple scaling factor ``1 + share * (n - 1)`` where ``share`` is the
serialized fraction.  ``share = 1`` means fully serialized (a single HDD
spindle), ``share = 0`` means perfectly parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

__all__ = [
    "DeviceSpec",
    "DeviceError",
    "StorageDevice",
    "IoCounters",
    "DEVICE_CATALOG",
    "make_device",
    "predicted_cost",
]


class DeviceError(OSError):
    """An injected (or modeled) device-level I/O failure.

    Subclasses ``OSError`` like :class:`~repro.posix.simfs.FsError`, so
    callers that already handle filesystem errors handle device faults
    too; kept separate so fault-injection tests can assert the layer."""

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass(frozen=True)
class DeviceSpec:
    """Static performance parameters of a storage device.

    Attributes:
        name: Catalog name, e.g. ``"nvme"``.
        read_latency: Fixed per-read-op latency in seconds.
        write_latency: Fixed per-write-op latency in seconds.
        read_bandwidth: Sustained read bandwidth in bytes/second.
        write_bandwidth: Sustained write bandwidth in bytes/second.
        seek_penalty: Extra seconds charged when an access does not start
            where the previous access on the same file ended.  Dominant for
            spinning disks; near-zero for flash; models per-RPC overhead on
            network filesystems.
        contention_share: Fraction of concurrent streams that serialize
            (see module docstring).
        shared: True when the device backs a shared (multi-node) mount.
    """

    name: str
    read_latency: float
    write_latency: float
    read_bandwidth: float
    write_bandwidth: float
    seek_penalty: float = 0.0
    contention_share: float = 0.0
    shared: bool = False

    def __post_init__(self) -> None:
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")
        if min(self.read_latency, self.write_latency, self.seek_penalty) < 0:
            raise ValueError(f"{self.name}: latencies must be non-negative")
        if not (0.0 <= self.contention_share <= 1.0):
            raise ValueError(f"{self.name}: contention_share must be in [0, 1]")


#: Calibrated device catalog.  These are the storage options of the paper's
#: Table III plus a RAM tier used by the Hermes-like buffering middleware.
DEVICE_CATALOG: Dict[str, DeviceSpec] = {
    # Memory tier: ~100 ns access, tens of GB/s.
    "ram": DeviceSpec(
        name="ram",
        read_latency=1.0e-7,
        write_latency=1.0e-7,
        read_bandwidth=20.0 * GIB,
        write_bandwidth=16.0 * GIB,
        seek_penalty=0.0,
        contention_share=0.0,
    ),
    # Node-local NVMe SSD: ~80 us latency, ~3 GB/s read / 2 GB/s write.
    "nvme": DeviceSpec(
        name="nvme",
        read_latency=8.0e-5,
        write_latency=2.0e-5,
        read_bandwidth=3.0 * GIB,
        write_bandwidth=2.0 * GIB,
        seek_penalty=5.0e-6,
        contention_share=0.05,
    ),
    # Node-local SATA SSD: ~150 us latency, ~520/480 MB/s.
    "sata_ssd": DeviceSpec(
        name="sata_ssd",
        read_latency=1.5e-4,
        write_latency=6.0e-5,
        read_bandwidth=520.0 * MIB,
        write_bandwidth=480.0 * MIB,
        seek_penalty=2.0e-5,
        contention_share=0.15,
    ),
    # Node-local 7200 RPM HDD: ~4 ms access, ~160 MB/s, heavy seek cost.
    "hdd": DeviceSpec(
        name="hdd",
        read_latency=4.0e-3,
        write_latency=4.0e-3,
        read_bandwidth=160.0 * MIB,
        write_bandwidth=150.0 * MIB,
        seek_penalty=8.0e-3,
        contention_share=1.0,
    ),
    # Shared NFS over GbE: per-RPC ~400 us, ~110 MB/s, serializes badly.
    "nfs": DeviceSpec(
        name="nfs",
        read_latency=4.0e-4,
        write_latency=5.0e-4,
        read_bandwidth=110.0 * MIB,
        write_bandwidth=100.0 * MIB,
        seek_penalty=2.0e-4,
        contention_share=0.7,
        shared=True,
    ),
    # Shared BeeGFS parallel FS: ~250 us per op, ~1 GB/s aggregate,
    # parallel-friendly but still contended.
    "beegfs": DeviceSpec(
        name="beegfs",
        read_latency=2.5e-4,
        write_latency=3.0e-4,
        read_bandwidth=1.0 * GIB,
        write_bandwidth=900.0 * MIB,
        seek_penalty=1.0e-4,
        contention_share=0.35,
        shared=True,
    ),
    # Shared Lustre PFS: similar regime to BeeGFS, higher aggregate BW.
    "lustre": DeviceSpec(
        name="lustre",
        read_latency=2.0e-4,
        write_latency=2.5e-4,
        read_bandwidth=2.0 * GIB,
        write_bandwidth=1.6 * GIB,
        seek_penalty=1.0e-4,
        contention_share=0.3,
        shared=True,
    ),
}


@dataclass
class IoCounters:
    """Mutable per-device I/O statistics."""

    read_ops: int = 0
    write_ops: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    busy_seconds: float = 0.0
    seeks: int = 0

    @property
    def total_ops(self) -> int:
        return self.read_ops + self.write_ops

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def snapshot(self) -> "IoCounters":
        """An independent copy of the current counters."""
        return replace(self)

    def delta(self, earlier: "IoCounters") -> "IoCounters":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return IoCounters(
            read_ops=self.read_ops - earlier.read_ops,
            write_ops=self.write_ops - earlier.write_ops,
            read_bytes=self.read_bytes - earlier.read_bytes,
            write_bytes=self.write_bytes - earlier.write_bytes,
            busy_seconds=self.busy_seconds - earlier.busy_seconds,
            seeks=self.seeks - earlier.seeks,
        )


class StorageDevice:
    """A stateful device instance applying the :class:`DeviceSpec` cost model.

    The device tracks the last byte touched per stream (file) to detect
    sequential access, counts operations and bytes, and applies a concurrency
    multiplier that callers (the workflow runner) may set while several
    processes hammer the device at once.
    """

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.counters = IoCounters()
        self._last_end: Dict[object, int] = {}
        self._concurrency: int = 1
        self._slowdown: float = 1.0

    # ------------------------------------------------------------------
    # Concurrency
    # ------------------------------------------------------------------
    @property
    def concurrency(self) -> int:
        """Number of request streams currently sharing the device."""
        return self._concurrency

    def set_concurrency(self, n: int) -> None:
        """Declare that ``n`` concurrent streams share the device (n >= 1)."""
        if n < 1:
            raise ValueError(f"concurrency must be >= 1, got {n}")
        self._concurrency = n

    def contention_factor(self, n: int | None = None) -> float:
        """Cost multiplier for ``n`` concurrent streams (default: current)."""
        n = self._concurrency if n is None else n
        return 1.0 + self.spec.contention_share * (n - 1)

    # ------------------------------------------------------------------
    # Degradation (fault injection)
    # ------------------------------------------------------------------
    @property
    def slowdown(self) -> float:
        """Extra cost multiplier while the device is degraded (>= 1)."""
        return self._slowdown

    def set_slowdown(self, factor: float) -> None:
        """Degrade (or restore, with 1.0) the device by a cost multiplier.

        Used by :mod:`repro.faults` to model stragglers and sick devices;
        composes multiplicatively with the contention factor."""
        if not (factor >= 1.0):
            raise ValueError(f"slowdown factor must be >= 1, got {factor!r}")
        self._slowdown = factor

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def read_cost(self, stream: object, offset: int, nbytes: int) -> float:
        """Seconds to read ``nbytes`` at ``offset`` on ``stream``; updates counters."""
        spec = self.spec
        cost = self._op_cost(
            stream, offset, nbytes, spec.read_latency, spec.read_bandwidth
        )
        counters = self.counters
        counters.read_ops += 1
        counters.read_bytes += nbytes
        counters.busy_seconds += cost
        return cost

    def write_cost(self, stream: object, offset: int, nbytes: int) -> float:
        """Seconds to write ``nbytes`` at ``offset`` on ``stream``; updates counters."""
        spec = self.spec
        cost = self._op_cost(
            stream, offset, nbytes, spec.write_latency, spec.write_bandwidth
        )
        counters = self.counters
        counters.write_ops += 1
        counters.write_bytes += nbytes
        counters.busy_seconds += cost
        return cost

    def _op_cost(
        self,
        stream: object,
        offset: int,
        nbytes: int,
        latency: float,
        bandwidth: float,
    ) -> float:
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        spec = self.spec
        cost = latency + nbytes / bandwidth
        last = self._last_end.get(stream)
        if last is not None and last != offset:
            cost += spec.seek_penalty
            self.counters.seeks += 1
        self._last_end[stream] = offset + nbytes
        # contention_factor() inlined: the same product, in the same order.
        factor = 1.0 + spec.contention_share * (self._concurrency - 1)
        return cost * factor * self._slowdown

    def forget_stream(self, stream: object) -> None:
        """Drop sequentiality state for a closed stream."""
        self._last_end.pop(stream, None)

    def reset_counters(self) -> None:
        """Zero all accumulated statistics (sequentiality state is kept)."""
        self.counters = IoCounters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StorageDevice({self.spec.name!r}, ops={self.counters.total_ops})"


def predicted_cost(
    spec: DeviceSpec,
    *,
    read_ops: int = 0,
    read_bytes: int = 0,
    write_ops: int = 0,
    write_bytes: int = 0,
    concurrency: int = 1,
) -> float:
    """Stateless cost-model query: predicted seconds for a batch of I/O.

    The pre-run analogue of :meth:`StorageDevice.read_cost` /
    :meth:`write_cost` — same latency + bandwidth + contention math,
    but querying the :class:`DeviceSpec` directly, with no counters and
    no seek modeling (sequentiality is unknowable before a run; leaving
    it out keeps the model linear, which is what makes the cost laws —
    monotonicity in bytes, additivity over serial batches — provable).

    ``concurrency`` is the number of request streams predicted to share
    the device while this batch runs (the runner's per-stage concurrency
    declaration, applied ahead of time).
    """
    if min(read_ops, read_bytes, write_ops, write_bytes) < 0:
        raise ValueError("operation and byte counts must be non-negative")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    cost = (
        read_ops * spec.read_latency
        + read_bytes / spec.read_bandwidth
        + write_ops * spec.write_latency
        + write_bytes / spec.write_bandwidth
    )
    return cost * (1.0 + spec.contention_share * (concurrency - 1))


def make_device(name: str) -> StorageDevice:
    """Instantiate a catalog device by name.

    Raises:
        KeyError: If ``name`` is not in :data:`DEVICE_CATALOG`.
    """
    try:
        spec = DEVICE_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(DEVICE_CATALOG))
        raise KeyError(f"unknown device {name!r}; known devices: {known}") from None
    return StorageDevice(spec)
