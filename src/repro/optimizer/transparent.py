"""Transparent runtime caching — the paper's Hermes-integration vision.

"Integration with I/O middleware like Hermes could enable transparent and
immediate runtime optimization" (paper §IX).  :class:`TransparentCache`
implements that integration point for the simulated stack: installed as a
workflow runner's *path resolver*, it intercepts every read-mode open and
redirects it to a node-local replica — creating the replica on first
access — without any change to task code.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.cluster import Cluster
from repro.middleware.cache import BufferTier, TieredCache

__all__ = ["TransparentCache"]


class TransparentCache:
    """A per-node read cache usable as a ``DataflowRunner`` path resolver.

    Args:
        cluster: The cluster whose node-local tiers back the cache.
        tier: Node-local tier name to buffer into.
        capacity_bytes: Per-node buffer capacity.
        min_bytes: Files smaller than this are not worth replicating.
        place_on_read: Create a replica on first read-mode miss (True) or
            only serve replicas placed explicitly (False).
    """

    def __init__(
        self,
        cluster: Cluster,
        tier: str = "ssd",
        capacity_bytes: int = 1 << 30,
        min_bytes: int = 4096,
        place_on_read: bool = True,
    ) -> None:
        self.cluster = cluster
        self.tier = tier
        self.min_bytes = min_bytes
        self.place_on_read = place_on_read
        self._caches: Dict[str, TieredCache] = {}
        for node in cluster.node_names():
            cluster.local_device(node, tier)  # validates the tier exists
            prefix = Cluster.local_prefix(node, tier)
            self._caches[node] = TieredCache(
                cluster.fs,
                [BufferTier(f"{node}:{tier}", f"{prefix}/xcache", capacity_bytes)],
            )
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # The DataflowRunner path-resolver protocol
    # ------------------------------------------------------------------
    def __call__(self, path: str, mode: str, node: str) -> str:
        """Resolve an open: reads may be served from the node's replica."""
        if mode != "r":
            # A write invalidates any replica everywhere (coherence).
            self.invalidate(path)
            return path
        if self.cluster.owning_node(path) is not None:
            return path  # already node-local
        cache = self._caches[node]
        replica = cache.resolve(path)
        if replica != path:
            self.hits += 1
            return replica
        self.misses += 1
        if not self.place_on_read:
            return path
        if not self.cluster.fs.exists(path):
            return path
        if self.cluster.fs.stat(path).size < self.min_bytes:
            return path
        return cache.place(path)

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------
    def place(self, path: str, node: str) -> str:
        """Eagerly replicate ``path`` on ``node`` (a prefetch)."""
        return self._caches[node].place(path)

    def invalidate(self, path: str) -> None:
        """Drop every node's replica of ``path``."""
        for cache in self._caches.values():
            if cache.is_cached(path):
                cache.evict(path)

    def is_cached(self, path: str, node: str) -> bool:
        return self._caches[node].is_cached(path)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
