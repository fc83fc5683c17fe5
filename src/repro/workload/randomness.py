"""Deterministic randomness utilities for workload generation.

Every stochastic component of the simulator draws from a
:class:`numpy.random.Generator` that is derived from a single root seed, so a
simulation run is fully reproducible.  Components that need independent
streams (catalog generation, client sampling, per-session network noise, ...)
obtain child generators via :func:`spawn` with a stable string label; this
prevents a change in how one component consumes randomness from perturbing
every other component.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = [
    "make_rng",
    "spawn",
    "session_rng",
    "bounded_lognormal",
    "bounded_normal",
    "stable_hash64",
]


def stable_hash64(label: str) -> int:
    """Return a stable 64-bit integer hash of *label*.

    Python's builtin ``hash`` is randomized per-process, so it cannot be used
    to derive reproducible seeds.  We use BLAKE2b which is fast and stable.
    """
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def make_rng(seed: int) -> np.random.Generator:
    """Create the root generator for a simulation run."""
    return np.random.default_rng(seed)


def spawn(seed: int, label: str) -> np.random.Generator:
    """Derive an independent generator from (root seed, component label)."""
    return np.random.default_rng(np.random.SeedSequence([seed, stable_hash64(label)]))


def session_rng(seed: int, session_index: int) -> np.random.Generator:
    """Derive the per-session generator used for all in-session noise."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, stable_hash64("session"), session_index])
    )


def bounded_lognormal(
    rng: np.random.Generator,
    mean: float,
    sigma: float,
    low: float = 0.0,
    high: float = float("inf"),
) -> float:
    """Sample a lognormal with given *linear-space* mean, clipped to [low, high].

    ``mean`` is the desired expectation of the distribution (not the mean of
    the underlying normal); ``sigma`` is the shape parameter of the underlying
    normal.  Clipping is by rejection with a deterministic fallback to the
    bound after a few attempts, so extreme sigmas cannot loop forever.
    """
    if mean <= 0:
        return max(low, 0.0)
    # exp(mu + sigma * z) is bit-identical to rng.lognormal(mu, sigma) and
    # consumes the same single draw, but skips numpy's per-call scalar
    # broadcasting overhead on this very hot call site.
    mu = math.log(mean) - 0.5 * sigma * sigma
    for _ in range(8):
        value = math.exp(mu + sigma * float(rng.standard_normal()))
        if low <= value <= high:
            return value
    return float(min(max(mean, low), high))


def bounded_normal(
    rng: np.random.Generator,
    mean: float,
    sigma: float,
    low: float = 0.0,
    high: float = float("inf"),
) -> float:
    """Sample a normal clipped to [low, high] (rejection with fallback)."""
    for _ in range(8):
        value = float(rng.normal(mean, sigma))
        if low <= value <= high:
            return value
    return float(min(max(mean, low), high))

