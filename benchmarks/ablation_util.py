"""Helpers for ablation benchmarks: small simulations with one knob varied."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.api import run
from repro.simulation.config import SimulationConfig
from repro.simulation.driver import SimulationResult

ABLATION_SESSIONS = 600
ABLATION_WARMUP = 1200
ABLATION_SEED = 11


def ablation_config(**overrides) -> SimulationConfig:
    """The shared small configuration with the given knob overridden."""
    return SimulationConfig(
        n_sessions=ABLATION_SESSIONS,
        warmup_sessions=ABLATION_WARMUP,
        seed=ABLATION_SEED,
        **overrides,
    )


def miss_ratio(result: SimulationResult) -> float:
    """Measured-window cache miss ratio."""
    chunks = result.dataset.cdn_chunks
    if not chunks:
        return 0.0
    return float(np.mean([c.cache_status == "miss" for c in chunks]))


def later_chunk_miss_ratio(result: SimulationResult) -> float:
    """Miss ratio among chunks after the first (prefetch target)."""
    later = [c for c in result.dataset.cdn_chunks if c.chunk_id > 0]
    if not later:
        return 0.0
    return float(np.mean([c.cache_status == "miss" for c in later]))


def first_chunk_retx_pct(result: SimulationResult) -> float:
    """Mean first-chunk retransmission rate (%), from TCP counters."""
    rates = []
    for session in result.dataset.sessions():
        pairs = session.chunk_retx_counts()
        if not pairs or not session.chunks:
            continue
        chunk_id, retx = pairs[0]
        if chunk_id != 0:
            continue
        segments = max(1, session.chunks[0].cdn.chunk_bytes // 1460)
        rates.append(100.0 * retx / segments)
    return float(np.mean(rates)) if rates else 0.0


def server_load_imbalance(result: SimulationResult) -> float:
    """CV of per-server request counts (lower = better balanced)."""
    counts: Dict[str, int] = {}
    for chunk in result.dataset.cdn_chunks:
        counts[chunk.server_id] = counts.get(chunk.server_id, 0) + 1
    values = np.asarray(list(counts.values()), dtype=float)
    if len(values) < 2 or values.mean() == 0:
        return 0.0
    return float(values.std() / values.mean())


def qoe_tuple(result: SimulationResult):
    """(median bitrate kbps, rebuffer-session fraction, median startup ms)."""
    sessions = result.dataset.sessions()
    bitrates = [s.avg_bitrate_kbps for s in sessions]
    rebuffer = [s.rebuffer_rate > 0 for s in sessions]
    startups = [s.startup_delay_ms for s in sessions if s.startup_delay_ms]
    return (
        float(np.median(bitrates)),
        float(np.mean(rebuffer)),
        float(np.median(startups)) if startups else float("nan"),
    )


_CACHE: Dict[str, SimulationResult] = {}


def run_config(**overrides) -> SimulationResult:
    """Simulate (once per distinct override set, cached for the session).

    Keys by repr so unhashable overrides (nested config dataclasses) work.
    """
    key = repr(sorted(overrides.items(), key=lambda kv: kv[0]))
    if key not in _CACHE:
        _CACHE[key] = run(ablation_config(**overrides))
    return _CACHE[key]
