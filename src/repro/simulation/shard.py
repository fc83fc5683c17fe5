"""Deterministic shard assignment for parallel simulation.

A shard is one slice of the session plan that a worker process executes on
its own event loop.  Assignment must be a pure function of stable
identifiers — never of worker count, arrival order, or process identity —
so that the merged telemetry is reproducible and byte-identical to the
serial run.

A session belongs to the shard that owns its assigned CDN server, and
servers are distributed over shards by a stable hash of the server id.
Sessions interact with each other **only** through the server they were
mapped to (its cache, its RNG stream, its load estimate) — the actor,
path, TCP, download-stack and rendering noise are all derived from
per-session :func:`repro.workload.randomness.spawn` substreams.  Keeping
each server's full request stream inside one shard therefore preserves
every cross-session interaction of the serial run, and the merged dataset
equals the serial dataset record-for-record.

The hash is :func:`repro.workload.randomness.stable_hash64`, the same
primitive the traffic-engineering mapping uses, so shard membership is
stable across processes, platforms and Python hash randomization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..workload.randomness import stable_hash64

__all__ = ["ShardSpec", "shard_of_server"]


def shard_of_server(server_id: str, n_shards: int) -> int:
    """Shard index owning *server_id*."""
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    return stable_hash64(f"shard|srv|{server_id}") % n_shards


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity: which slice of the world it simulates.

    ``index`` is this shard's position in ``[0, n_shards)``.  The spec is
    pickled into the worker process and consulted by
    :class:`~repro.simulation.driver.Simulator` when building servers; a
    period runs the session plans mapped to the servers it built.
    """

    index: int
    n_shards: int

    def __post_init__(self) -> None:
        if self.n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if not 0 <= self.index < self.n_shards:
            raise ValueError(f"shard index {self.index} out of range [0, {self.n_shards})")

    def owns_server(self, server_id: str) -> bool:
        """Should this shard instantiate (and warm) *server_id*?"""
        return shard_of_server(server_id, self.n_shards) == self.index


def partition_server_ids(server_ids: Sequence[str], n_shards: int) -> List[List[str]]:
    """Server ids grouped by owning shard (diagnostics / balance checks)."""
    groups: List[List[str]] = [[] for _ in range(n_shards)]
    for server_id in server_ids:
        groups[shard_of_server(server_id, n_shards)].append(server_id)
    return groups
