"""Shared simulated datasets for the experiment suite.

Most experiments analyze the same "collection period", so the suite shares
one simulation per scale (cached in-process).  ``standard_result`` is the
equivalent of the paper's two-week production dataset: sessions from the
full client population against the full CDN fleet, with caches warmed to
steady state and proxies still present (each experiment applies the §3
proxy filter itself, as the paper does).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from ...api import run
from ...core.proxy_filter import filter_proxies
from ...simulation.config import SimulationConfig
from ...simulation.driver import SimulationResult
from ...telemetry.dataset import Dataset
from ...workload.geo import GeoPoint

__all__ = [
    "standard_config",
    "standard_result",
    "filtered_dataset",
    "pop_locations",
    "SCALES",
]

#: (n_sessions, warmup_sessions) per named scale.
SCALES: Dict[str, Tuple[int, int]] = {
    "tiny": (400, 800),
    "small": (1500, 3000),
    "medium": (6000, 10_000),
    "large": (20_000, 25_000),
}


def standard_config(scale: str = "medium", seed: int = 7) -> SimulationConfig:
    """The canonical experiment configuration at a named scale."""
    try:
        n_sessions, warmup = SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}") from None
    return SimulationConfig(
        n_sessions=n_sessions,
        warmup_sessions=warmup,
        seed=seed,
    )


@lru_cache(maxsize=4)
def standard_result(scale: str = "medium", seed: int = 7, workers: int = 1) -> SimulationResult:
    """Run (once per process) and cache the standard simulation.

    ``workers > 1`` shards the simulation across worker processes, which
    produces the same records as the serial run (canonically ordered), so
    every experiment sees identical data.
    """
    return run(standard_config(scale, seed).with_overrides(workers=workers))


@lru_cache(maxsize=4)
def filtered_dataset(scale: str = "medium", seed: int = 7, workers: int = 1) -> Dataset:
    """The standard dataset after §3 proxy filtering."""
    dataset, _ = filter_proxies(standard_result(scale, seed, workers).dataset)
    return dataset


def pop_locations(result: SimulationResult) -> Dict[str, GeoPoint]:
    """pop_id → location map for geography-aware analyses."""
    return {pop.pop_id: pop.location for pop in result.deployment.pops}
