"""Client download-stack model: OS → browser → Flash runtime → player.

§4.3 identifies three download-stack phenomena, all reproduced here:

1. **Transient buffering** (~0.32% of chunks): the stack buffers a chunk's
   bytes and releases them late, in a burst.  The chunk's D_FB inflates by
   the buffering delay while its D_LB compresses — the player sees an
   impossibly high instantaneous throughput.  (Eq. 4's detection target.)
2. **Persistent per-platform latency** (17.6% of chunks overall): every
   delivery crosses the OS/browser/Flash layers; some platforms (Safari
   off-Mac ≈1 s, Table 5) are chronically slow.
3. **First-chunk setup cost** (~300 ms at the median): progress-event
   listener registration and data-path setup delay the first chunk's
   first byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs.registry import MetricsRegistry
from .browsers import PlatformProfile

__all__ = ["DownloadStackEffect", "DownloadStackModel"]

#: lognormal location of the ever-present copy/poll overhead (3 ms median)
_LOG_POLL_MS = np.log(3.0)


@dataclass(frozen=True)
class DownloadStackEffect:
    """Per-chunk download-stack outcome (ground truth, in ms).

    ``first_byte_delay_ms`` is added to the chunk's D_FB.
    ``last_byte_shift_ms`` is *subtracted* from the network D_LB (bytes
    were accumulating while the first byte was held back), floored so the
    observed D_LB stays positive.
    ``transient`` marks a buffering burst event.
    """

    first_byte_delay_ms: float
    last_byte_shift_ms: float
    transient: bool

    @property
    def total_ms(self) -> float:
        return self.first_byte_delay_ms


class DownloadStackModel:
    """Samples per-chunk download-stack effects for one session's platform,
    counted into ``client.ds_*`` (of a private registry when built without
    one)."""

    def __init__(
        self,
        platform: PlatformProfile,
        rng: np.random.Generator,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.platform = platform
        self.rng = rng
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # lognormal locations of the platform's delays, computed once
        self._ds_mu = np.log(platform.ds_mean_ms) - 0.5 * platform.ds_sigma**2
        self._first_chunk_mu = np.log(platform.first_chunk_extra_ms) - 0.5 * 0.25**2
        # metric handles, bound once: sample() runs on every chunk
        self._m_delay = self.metrics.histogram("client.ds_delay_ms")
        self._m_transients = self.metrics.counter("client.ds_transients_total")

    def _record(self, effect: "DownloadStackEffect") -> "DownloadStackEffect":
        self._m_delay.observe(effect.first_byte_delay_ms)
        if effect.transient:
            self._m_transients.inc()
        return effect

    def sample(self, chunk_index: int, network_dlb_ms: float) -> DownloadStackEffect:
        """Sample the stack's effect on the chunk at *chunk_index*.

        *network_dlb_ms* is the network-side last-byte delay, needed to size
        a transient burst (the stack cannot hold bytes longer than the
        transfer plus its own delay).
        """
        if chunk_index < 0:
            raise ValueError("chunk_index must be non-negative")
        if network_dlb_ms < 0:
            raise ValueError("network_dlb_ms must be non-negative")
        platform = self.platform
        rng = self.rng

        # Transient buffering burst: hold back a large share of the
        # transfer and release it at once.
        if rng.random() < platform.transient_buffer_prob:
            hold_fraction = float(rng.uniform(0.6, 0.95))
            held_ms = hold_fraction * network_dlb_ms + float(rng.uniform(300.0, 1500.0))
            return self._record(
                DownloadStackEffect(
                    first_byte_delay_ms=held_ms,
                    last_byte_shift_ms=min(held_ms, 0.95 * network_dlb_ms),
                    transient=True,
                )
            )

        delay = 0.0
        # Persistent platform latency, per-chunk Bernoulli.
        if rng.random() < platform.ds_chunk_prob:
            delay += float(rng.lognormal(self._ds_mu, platform.ds_sigma))
        # Small ever-present copy/poll overhead through the layers.
        delay += float(rng.lognormal(_LOG_POLL_MS, 0.8))
        # First-chunk event-registration and data-path setup cost.
        if chunk_index == 0:
            delay += float(rng.lognormal(self._first_chunk_mu, 0.5))
        return self._record(
            DownloadStackEffect(
                first_byte_delay_ms=delay, last_byte_shift_ms=0.0, transient=False
            )
        )
