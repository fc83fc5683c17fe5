"""Byte-capacity cache with pluggable eviction, plus the two-level stack.

The paper's CDN uses a "multi-level and distributed cache (between the main
memory and the local disk) ... with an LRU replacement policy" (§2).  A
:class:`CacheLevel` is one level (RAM or disk) with a byte capacity; a
:class:`TwoLevelCache` stacks RAM over disk and reports where an object was
found, which is what drives the three server-latency regimes: RAM hit
(sub-millisecond read), disk hit (open-read-retry timer + seek), and miss
(backend fetch).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Hashable, Optional

from .policies import EvictionPolicy, LruPolicy, make_policy

__all__ = ["CacheLevel", "TwoLevelCache", "CacheStatus"]


class CacheStatus(str, Enum):
    """Where a requested chunk was found."""

    HIT_RAM = "hit_ram"
    HIT_DISK = "hit_disk"
    MISS = "miss"

    @property
    def is_hit(self) -> bool:
        return self is not CacheStatus.MISS


class CacheLevel:
    """A single cache level with byte capacity and an eviction policy."""

    def __init__(self, capacity_bytes: int, policy: Optional[EvictionPolicy] = None) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.policy = policy if policy is not None else LruPolicy()
        self.used_bytes = 0
        self._sizes: Dict[Hashable, int] = {}

    def __contains__(self, key: Hashable) -> bool:
        return key in self._sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def lookup(self, key: Hashable) -> bool:
        """Check for *key*, updating the policy's recency on a hit."""
        if key in self._sizes:
            self.policy.on_hit(key)
            return True
        return False

    def peek(self, key: Hashable) -> bool:
        """Check for *key* without touching recency."""
        return key in self._sizes

    def insert(self, key: Hashable, size_bytes: int, fetch_cost: float = 1.0) -> None:
        """Admit *key*; evicts as needed.  Objects larger than the level
        capacity are not admitted (standard cache behaviour)."""
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if key in self._sizes:
            self.policy.on_hit(key)
            return
        if size_bytes > self.capacity_bytes:
            return
        while self.used_bytes + size_bytes > self.capacity_bytes:
            self._evict_one()
        self._sizes[key] = size_bytes
        self.used_bytes += size_bytes
        self.policy.on_insert(key, size_bytes, fetch_cost)

    def invalidate(self, key: Hashable) -> bool:
        """Remove *key* if present; returns whether it was present."""
        size = self._sizes.pop(key, None)
        if size is None:
            return False
        self.used_bytes -= size
        self.policy.on_remove(key)
        return True

    def _evict_one(self) -> None:
        victim = self.policy.select_victim()
        size = self._sizes.pop(victim)
        self.used_bytes -= size
        self.policy.on_remove(victim)


class TwoLevelCache:
    """RAM over disk, with promotion on disk hits and write-through admits.

    * RAM hit: serve from memory.
    * Disk hit: serve from disk, promote the object into RAM.
    * Miss: the caller fetches from the backend and calls :meth:`admit`,
      which writes the object to both levels (ATS stores to disk and the
      object is hot in memory right after serving).
    """

    def __init__(
        self,
        ram_capacity_bytes: int,
        disk_capacity_bytes: int,
        policy_name: str = "lru",
    ) -> None:
        if disk_capacity_bytes < ram_capacity_bytes:
            raise ValueError("disk capacity should be >= RAM capacity")
        self.ram = CacheLevel(ram_capacity_bytes, make_policy(policy_name))
        self.disk = CacheLevel(disk_capacity_bytes, make_policy(policy_name))
        self.policy_name = policy_name

    def lookup(self, key: Hashable, size_bytes: int) -> CacheStatus:
        """Resolve *key*, performing promotion; returns where it was found."""
        if self.ram.lookup(key):
            return CacheStatus.HIT_RAM
        if self.disk.lookup(key):
            self.ram.insert(key, size_bytes)  # promote hot object to memory
            return CacheStatus.HIT_DISK
        return CacheStatus.MISS

    def admit(self, key: Hashable, size_bytes: int, fetch_cost: float = 1.0) -> None:
        """Store a backend-fetched object in both levels."""
        self.disk.insert(key, size_bytes, fetch_cost)
        self.ram.insert(key, size_bytes, fetch_cost)

    def contains(self, key: Hashable) -> bool:
        """True if *key* is resident at any level (recency untouched)."""
        return self.ram.peek(key) or self.disk.peek(key)
