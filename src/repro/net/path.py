"""Wide-area network path model for one video session.

A :class:`NetworkPath` is instantiated per session from the client's prefix
(stable properties: geography, access latency, enterprise path inflation,
jitter shape) and the chosen CDN PoP.  It produces:

* time-varying round-trip samples — a baseline plus *congestion episodes*,
  a two-state regime process.  Episodes are what make CV(SRTT) exceed 1 for
  enterprise sessions (Table 4): smooth i.i.d. jitter would be averaged
  away by TCP's EWMA, but multi-second latency excursions survive it.
* a bottleneck bandwidth (min of access link and path capacity) used by the
  TCP model for self-loading/queueing and buffer-overflow loss.
* a random per-segment loss rate (§4.2-3: ~40% of sessions see no loss at
  all; the rest mostly < 10% retransmission rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # typing only: net must stay importable without faults
    from ..faults.injector import PathFaultState

from ..workload.clients import Prefix
from ..workload.geo import GeoPoint, distance_km, propagation_rtt_ms

__all__ = ["NetworkPath", "build_session_path"]


@dataclass
class NetworkPath:
    """Time-varying path between one client and one CDN server."""

    base_rtt_ms: float
    bottleneck_kbps: float
    loss_rate: float
    jitter_sigma: float
    rng: np.random.Generator = field(repr=False)
    #: mean time between congestion-episode onsets (ms)
    episode_gap_mean_ms: float = 120_000.0
    #: mean episode duration (ms)
    episode_duration_mean_ms: float = 6_000.0
    #: network buffer at the bottleneck, as a multiple of the BDP
    buffer_bdp_multiple: float = 1.5
    #: probability that an episode is a *throughput collapse* — severe
    #: cross-traffic or access-link trouble that crushes the available
    #: bandwidth for seconds (the rebuffering-producing events)
    collapse_probability: float = 0.15
    #: fault-injection overlay (docs/FAULTS.md): a deterministic function
    #: of sim time returning the active network-fault state (or None).
    #: Installed per session by the driver when a FaultSpec targets this
    #: client's path; it consumes no RNG, so an un-faulted run's noise
    #: streams are untouched.
    fault_probe: Optional[Callable[[float], Optional["PathFaultState"]]] = field(
        default=None, repr=False, compare=False
    )

    _episode_until_ms: float = field(default=-1.0, init=False, repr=False)
    _episode_rtt_mult: float = field(default=1.0, init=False, repr=False)
    _episode_bw_div: float = field(default=1.0, init=False, repr=False)
    _next_episode_ms: float = field(default=0.0, init=False, repr=False)
    _episodes_initialized: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.base_rtt_ms <= 0:
            raise ValueError("base_rtt_ms must be positive")
        if self.bottleneck_kbps <= 0:
            raise ValueError("bottleneck_kbps must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        # What the bottleneck holds before it drops: the baseline BDP plus
        # its buffer (a BDP multiple).  Init-time fields only, and the TCP
        # model reads it every round.
        bdp = self.bottleneck_kbps * self.base_rtt_ms / 8.0
        self._capacity_bytes = bdp + self.buffer_bdp_multiple * bdp

    # -- congestion-episode regime process ---------------------------------

    def _advance_episodes(self, now_ms: float) -> None:
        """Advance the two-state (normal/congested) regime to *now_ms*."""
        if not self._episodes_initialized:
            self._next_episode_ms = float(
                self.rng.exponential(self.episode_gap_mean_ms)
            )
            self._episodes_initialized = True
        while now_ms >= self._next_episode_ms:
            onset = self._next_episode_ms
            duration = float(self.rng.exponential(self.episode_duration_mean_ms))
            kind = self.rng.random()
            if kind < self.collapse_probability:
                # Throughput collapse: bandwidth craters for a long, heavy-
                # tailed interval — the events behind deep stalls.  A
                # collapse outlasting the playback buffer is what turns
                # into rebuffering at the player.
                rtt_mult = float(self.rng.uniform(1.5, 3.0))
                bw_div = float(self.rng.uniform(10.0, 80.0))
                duration = float(self.rng.lognormal(np.log(15_000.0) - 0.5, 1.0))
            elif kind < self.collapse_probability + 0.30:
                # Microburst: a short, violent latency spike (a colleague's
                # upload filling the VPN queue, a wifi retrain).  Brief
                # coverage with a huge multiplier is precisely what pushes
                # a session's CV(SRTT) past 1 — the Table 4 signature.
                rtt_mult = 1.0 + float(self.rng.uniform(8.0, 40.0)) * self.jitter_sigma
                bw_div = 2.0
                duration = float(self.rng.uniform(1_000.0, 4_000.0))
            else:
                # Ordinary congestion / bufferbloat: a standing queue adds
                # large latency but the bottleneck still drains at line
                # rate, so bandwidth is only mildly reduced.  Magnitude
                # scales with the prefix's jitter shape (residential sigma
                # ~0.1 -> mild ~1.5x; enterprise ~0.8 -> 5-30x hairpin/VPN
                # spikes, the Table 4 signature).
                extra = float(self.rng.exponential(8.0 * self.jitter_sigma))
                rtt_mult = 1.0 + extra
                bw_div = min(rtt_mult, 2.0)
            if onset + duration > now_ms:
                self._episode_until_ms = onset + duration
                self._episode_rtt_mult = rtt_mult
                self._episode_bw_div = bw_div
            self._next_episode_ms = onset + duration + float(
                self.rng.exponential(self.episode_gap_mean_ms)
            )

    def congestion_multiplier(self, now_ms: float) -> float:
        """Current latency inflation from the episode process (>= 1)."""
        return self.epoch_window(now_ms)[0]

    def epoch_window(self, now_ms: float) -> "Tuple[float, float, float]":
        """(rtt multiplier, bandwidth divisor, valid-until ms) at *now_ms*.

        The returned state is constant until ``valid_until``: the end of the
        active episode, or the next episode's onset when the path is calm.
        This is the per-epoch cache the TCP calm-window planner uses to
        advance many rounds without re-deriving episode state each round.
        The window ignores the fault overlay — callers combining both must
        also consult :attr:`fault_probe` (the TCP planner simply declines
        when a probe is installed).
        """
        self._advance_episodes(now_ms)
        if now_ms < self._episode_until_ms:
            return self._episode_rtt_mult, self._episode_bw_div, self._episode_until_ms
        return 1.0, 1.0, self._next_episode_ms

    def sample_round(
        self, now_ms: float, inflight_bytes: float
    ) -> "Tuple[float, float, float]":
        """One TCP round's (rtt sample, bottleneck kbps, segment loss prob).

        The query the TCP transfer loop issues once per round: one
        episode-state advance and one fault-probe evaluation.

        * The RTT is the baseline times the episode multiplier times
          lognormal measurement noise (what :meth:`sample_rtt` returns).
        * During a congestion episode the bottleneck queue is shared with
          cross traffic, so our share of the link shrinks.
        * The per-segment loss probability is random loss, plus episode
          loss, plus congestion loss.  Collapses (large bandwidth
          divisors) drop aggressively; bufferbloat episodes drop only
          occasionally off a full queue.  Once *inflight_bytes* overruns
          the bottleneck buffer, the tail of each burst is dropped: the
          slow-start overshoot that concentrates losses in the first
          chunk (Fig. 15).
        """
        self._advance_episodes(now_ms)
        if now_ms < self._episode_until_ms:
            rtt_mult = self._episode_rtt_mult
            bw_div = self._episode_bw_div
        else:
            rtt_mult = 1.0
            bw_div = 1.0
        # exp(0.08 * z) consumes and transforms the stream exactly as
        # rng.lognormal(0.0, 0.08) does (one standard normal draw).
        noise = math.exp(0.08 * float(self.rng.standard_normal()))
        rtt = self.base_rtt_ms * rtt_mult * noise
        bandwidth = self.bottleneck_kbps / bw_div
        boost = 0.0
        if bw_div > 1.0:
            boost += 0.012 * (bw_div - 1.0)
        if rtt_mult > 1.0:
            boost += 0.003 * min(rtt_mult - 1.0, 5.0)
        base = self.loss_rate + min(0.06, boost)
        if self.fault_probe is not None:
            fault = self.fault_probe(now_ms)
            if fault is not None:
                rtt *= fault.rtt_mult
                bandwidth /= fault.bw_div
                base += fault.loss_add
        capacity = self._capacity_bytes
        if inflight_bytes <= capacity:
            loss_p = min(0.9, base)
        else:
            overflow_fraction = (inflight_bytes - capacity) / max(inflight_bytes, 1.0)
            loss_p = min(0.9, base + overflow_fraction)
        return rtt, bandwidth, loss_p

    # -- sampling -----------------------------------------------------------

    def sample_rtt(self, now_ms: float) -> float:
        """One propagation+queueing round-trip sample at absolute time *now_ms*.

        Does not include self-induced queueing from our own TCP transfer —
        the TCP model adds that on top (self-loading, §4.2-1's caveat about
        SRTT samples reflecting queueing delay).  It is
        :meth:`sample_round`'s RTT with nothing in flight.
        """
        return self.sample_round(now_ms, 0.0)[0]


def build_session_path(
    prefix: Prefix,
    server_location: GeoPoint,
    bandwidth_kbps: float,
    rng: np.random.Generator,
    backbone_kbps: float = 1_000_000.0,
) -> NetworkPath:
    """Construct the session's path from prefix properties and server location."""
    dist = distance_km(prefix.geo, server_location)
    base_rtt = (
        propagation_rtt_ms(dist)
        + prefix.access_rtt_ms
        + prefix.path_inflation_ms
    )
    # A large share of sessions sees no random loss at all (§4.2-3: 40% of
    # sessions have zero retransmissions — some of the remainder's retx
    # come from self-induced overflow, so the random-loss share is lower).
    if rng.random() < 0.60:
        loss = 0.0
    else:
        loss = float(
            np.clip(rng.exponential(max(prefix.loss_rate_mean, 1e-5)), 0.0, 0.15)
        )
    bottleneck = max(500.0, min(bandwidth_kbps, backbone_kbps))
    # Enterprise episodes are more frequent as well as larger.
    gap_mean = 25_000.0 if prefix.is_enterprise else 150_000.0
    duration_mean = 15_000.0 if prefix.is_enterprise else 4_000.0
    # Bottleneck buffers vary from shallow (overflow-prone) to bloated.
    buffer_multiple = float(rng.uniform(1.5, 4.0))
    return NetworkPath(
        base_rtt_ms=base_rtt,
        bottleneck_kbps=bottleneck,
        loss_rate=loss,
        jitter_sigma=prefix.jitter_sigma,
        rng=rng,
        episode_gap_mean_ms=gap_mean,
        episode_duration_mean_ms=duration_mean,
        buffer_bdp_multiple=buffer_multiple,
    )
