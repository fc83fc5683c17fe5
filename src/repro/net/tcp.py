"""Round-based TCP sender model with kernel-style state variables.

The paper's server-side network view is the Linux ``tcp_info`` struct,
snapshotted every 500 ms: SRTT, RTT variance, congestion window, and
retransmission counters (§2.1).  This module models a TCP Reno-style sender
at *round* granularity — one window of segments per round trip — which is
the right fidelity for chunk-level analysis:

* slow start doubles the window each round until loss or ``ssthresh``;
  congestion avoidance adds one segment per round;
* losses are sampled per segment from the path model, which combines a
  random component with buffer-overflow loss when the window overruns the
  bottleneck (this produces the slow-start burst losses that concentrate
  retransmissions in a session's first chunk, Fig. 15);
* SRTT/RTTVAR follow RFC 6298 exactly, and the retransmission timeout uses
  the paper's footnote formula ``RTO = 200 ms + srtt + 4 * srttvar``;
* self-loading: the serialization time of each window at the bottleneck is
  added to the measured round-trip sample, so SRTT inflates when the
  window exceeds the BDP (§4.2-1's caveat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .path import NetworkPath

__all__ = ["TcpStateSample", "ChunkTransfer", "TcpConnection", "DEFAULT_MSS"]

DEFAULT_MSS = 1460
#: Linux's minimum RTO contribution used in the paper's Eq. 5 bound.
RTO_FLOOR_MS = 200.0
#: Safety cap on the congestion window (segments): ~6 MB of in-flight data.
MAX_CWND_SEGMENTS = 4096

#: RFC 6298 EWMA gains iterated n times collapse to these closed-form
#: factors: after n per-ACK updates with a constant sample,
#: ``srtt_n = sample + (srtt_0 - sample) * 0.875**n`` and
#: ``rttvar_n = 0.75**n * rttvar_0 + 2 * (0.875**n - 0.75**n) * |srtt_0 - sample|``
#: (geometric sum of the decaying |srtt_k - sample| terms).  Convergence
#: saturates, so updates are capped at 16 iterations as before.
_OBSERVE_CAP = 16
_POW_SRTT = tuple(0.875**n for n in range(_OBSERVE_CAP + 1))
_POW_VAR = tuple(0.75**n for n in range(_OBSERVE_CAP + 1))

#: Fast-path guard: per-round RTT noise is exp(0.08 * z); a batch is sized
#: assuming noise <= exp(0.08 * 12) so that it cannot reach the next
#: congestion-episode boundary (P(z > 12) ~ 1.8e-33 — unreachable).
_NOISE_BOUND = math.exp(0.08 * 12.0)


class TcpStateSample(NamedTuple):
    """One snapshot of the sender's ``tcp_info``-visible state.

    A named tuple: the transfer loop builds one every 500 ms of every
    transfer, and a tuple costs a fraction of a frozen dataclass.
    """

    t_ms: float
    cwnd_segments: int
    srtt_ms: float
    rttvar_ms: float
    retx_total: int
    mss: int
    #: retransmission timeout at the sample (the paper's footnote-5
    #: formula, floored at 200 ms); 0.0 in legacy samples from before the
    #: field existed
    rto_ms: float = 0.0

    @property
    def throughput_kbps(self) -> float:
        """Eq. 3: the connection's throughput estimate MSS * CWND / SRTT."""
        if self.srtt_ms <= 0:
            return 0.0
        return self.cwnd_segments * self.mss * 8.0 / self.srtt_ms


@dataclass
class ChunkTransfer:
    """Outcome of transferring one chunk's bytes over the connection."""

    duration_ms: float
    segments_sent: int  # includes retransmissions
    segments_retx: int
    rounds: int
    min_rtt_ms: float
    samples: List[TcpStateSample] = field(default_factory=list)

    @property
    def retx_rate(self) -> float:
        """Retransmission rate: retransmitted / all segments sent."""
        if self.segments_sent == 0:
            return 0.0
        return self.segments_retx / self.segments_sent


class TcpConnection:
    """A persistent TCP connection carrying all chunks of one session."""

    def __init__(
        self,
        path: NetworkPath,
        rng: np.random.Generator,
        mss: int = DEFAULT_MSS,
        initial_cwnd: int = 10,
        initial_ssthresh: int = 512,
        snapshot_interval_ms: float = 500.0,
        restart_after_idle: bool = False,
        slow_start_growth: float = 2.0,
        max_window_segments: int = MAX_CWND_SEGMENTS,
    ) -> None:
        if mss <= 0:
            raise ValueError("mss must be positive")
        if initial_cwnd <= 0:
            raise ValueError("initial_cwnd must be positive")
        if slow_start_growth <= 1.0:
            raise ValueError("slow_start_growth must exceed 1.0")
        if max_window_segments <= 0:
            raise ValueError("max_window_segments must be positive")
        self.path = path
        self.rng = rng
        self.mss = mss
        self.initial_cwnd = initial_cwnd
        self.cwnd = float(initial_cwnd)
        self.ssthresh = float(initial_ssthresh)
        self.srtt_ms: Optional[float] = None
        self.rttvar_ms: float = 0.0
        self.retx_total = 0
        self.segments_sent_total = 0
        self.bytes_acked_total = 0
        self.snapshot_interval_ms = snapshot_interval_ms
        self.restart_after_idle = restart_after_idle
        #: window growth factor per loss-free slow-start round; 2.0 is
        #: standard TCP, lower values model server-side pacing [19]
        self.slow_start_growth = slow_start_growth
        #: receiver-window cap on in-flight segments: sessions whose peers
        #: advertise modest windows never overrun the path and see no loss
        self.max_window_segments = min(max_window_segments, MAX_CWND_SEGMENTS)
        self._next_snapshot_ms: Optional[float] = None
        self._last_send_ms: Optional[float] = None

    # -- RFC 6298 estimator --------------------------------------------------

    def observe_rtt(self, sample_ms: float, n_acks: int = 1) -> None:
        """Feed round-trip measurements into the SRTT/RTTVAR estimator.

        The kernel updates its estimator once per ACK, and a round carries
        roughly one ACK per segment in flight — so a single round moves
        SRTT most of the way to the new value.  *n_acks* replays the RFC
        6298 update that many times (capped: convergence saturates).
        """
        if sample_ms <= 0:
            raise ValueError("rtt sample must be positive")
        if n_acks <= 0:
            raise ValueError("n_acks must be positive")
        if self.srtt_ms is None:
            self.srtt_ms = sample_ms
            self.rttvar_ms = sample_ms / 2.0
            return
        n = n_acks if n_acks < _OBSERVE_CAP else _OBSERVE_CAP
        a = _POW_SRTT[n]
        b = _POW_VAR[n]
        delta = self.srtt_ms - sample_ms
        self.rttvar_ms = b * self.rttvar_ms + 2.0 * (a - b) * abs(delta)
        self.srtt_ms = sample_ms + delta * a

    @property
    def rto_ms(self) -> float:
        """Retransmission timeout, per the paper's footnote 5 (RFC 2988 style)."""
        if self.srtt_ms is None:
            return 1000.0  # RFC 6298 initial RTO
        return RTO_FLOOR_MS + self.srtt_ms + 4.0 * self.rttvar_ms

    # -- snapshots -------------------------------------------------------------

    def state_sample(self, t_ms: float) -> TcpStateSample:
        """Materialize the current kernel-visible state at time *t_ms*."""
        return TcpStateSample(
            t_ms,
            int(self.cwnd),
            self.srtt_ms if self.srtt_ms is not None else 0.0,
            self.rttvar_ms,
            self.retx_total,
            self.mss,
            self.rto_ms,
        )

    def _maybe_snapshot(self, t_ms: float, out: List[TcpStateSample]) -> None:
        """Emit periodic snapshots at the 500 ms sampling grid (§2.1)."""
        while self._next_snapshot_ms is not None and t_ms >= self._next_snapshot_ms:
            out.append(self.state_sample(self._next_snapshot_ms))
            self._next_snapshot_ms += self.snapshot_interval_ms

    # -- data transfer -----------------------------------------------------------

    def transfer(self, nbytes: int, now_ms: float) -> ChunkTransfer:
        """Deliver *nbytes* starting at *now_ms*; return timing and TCP stats.

        The returned duration is the time from the first data segment being
        sent to the last byte arriving at the receiver.

        Rounds inside a calm epoch window go through the calm-window
        planner (:meth:`_advance_calm_rounds`) in batches; the per-round
        loop below takes every other round, and every round of a path
        with a fault probe installed, because the probe's epochs are
        invisible to :meth:`~repro.net.path.NetworkPath.epoch_window`.
        On a zero-loss path the planner is value- and RNG-stream-identical
        to the per-round loop; on a lossy path it samples the same law
        with a different draw discipline (docs/PERFORMANCE.md).
        """
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if self.restart_after_idle and self._last_send_ms is not None:
            if now_ms - self._last_send_ms > self.rto_ms:
                self.cwnd = float(self.initial_cwnd)
        # The 500 ms sampler runs on the connection's own clock; after an
        # idle gap the grid realigns rather than emitting stale samples.
        if self._next_snapshot_ms is None or now_ms > self._next_snapshot_ms:
            self._next_snapshot_ms = now_ms + self.snapshot_interval_ms

        mss = self.mss
        path = self.path
        rng = self.rng
        max_win = self.max_window_segments
        remaining = -(-nbytes // mss)  # integer ceil; same value as np.ceil
        t = now_ms
        samples: List[TcpStateSample] = []
        sent = 0
        retx = 0
        rounds = 0
        min_rtt = float("inf")
        can_plan = path.fault_probe is None

        while remaining > 0:
            if can_plan:
                mult, bw_div, valid_until = path.epoch_window(t)
                if mult == 1.0 and bw_div == 1.0:
                    t, remaining, sent_k, retx_k, rounds_k, batch_min_rtt = (
                        self._advance_calm_rounds(t, remaining, valid_until, samples)
                    )
                    if rounds_k:
                        rounds += rounds_k
                        sent += sent_k
                        retx += retx_k
                        if batch_min_rtt < min_rtt:
                            min_rtt = batch_min_rtt
                        continue
                    # rounds_k == 0: the epoch boundary is too close, or a
                    # zero-loss path's next window overruns the queue —
                    # take one per-round step.

            inflight = min(int(self.cwnd), max_win, remaining)
            if inflight < 1:
                inflight = 1

            rounds += 1
            inflight_bytes = inflight * mss
            base_rtt, bottleneck_kbps, loss_p = path.sample_round(
                t, float(inflight_bytes)
            )
            if base_rtt < min_rtt:
                min_rtt = base_rtt
            # Self-loading: serializing the window at the bottleneck adds
            # queueing delay that the kernel's RTT samples *do* see.
            serialization_ms = inflight_bytes * 8.0 / bottleneck_kbps
            observed_rtt = base_rtt + serialization_ms
            round_time = observed_rtt

            losses = int(rng.binomial(inflight, loss_p)) if loss_p > 0 else 0
            sent += inflight + losses
            if losses > 0:
                retx += losses
                self.retx_total += losses
                # Losing a large share of the window (bursty overflow, or a
                # tiny window losing its few segments) defeats fast
                # retransmit -> retransmission timeout.
                severe = losses >= max(1, int(0.5 * inflight))
                if severe:
                    round_time += self.rto_ms
                    self.ssthresh = max(self.cwnd / 2.0, 2.0)
                    self.cwnd = max(float(self.initial_cwnd) / 2.0, 2.0)
                else:
                    # Fast retransmit / fast recovery: one extra round,
                    # window halves.
                    round_time += path.sample_rtt(t + observed_rtt)
                    self.ssthresh = max(inflight / 2.0, 2.0)
                    self.cwnd = self.ssthresh
            else:
                if self.cwnd < self.ssthresh:
                    self.cwnd = min(
                        self.cwnd * self.slow_start_growth, float(MAX_CWND_SEGMENTS)
                    )
                else:
                    self.cwnd = min(self.cwnd + 1.0, float(MAX_CWND_SEGMENTS))

            self.observe_rtt(observed_rtt, n_acks=inflight)
            remaining -= inflight  # lost segments are recovered within the round
            self.bytes_acked_total += inflight_bytes
            t += round_time
            if self._next_snapshot_ms is not None and t >= self._next_snapshot_ms:
                self._maybe_snapshot(t, samples)

        self.segments_sent_total += sent
        self._last_send_ms = t
        duration = t - now_ms
        return ChunkTransfer(
            duration_ms=duration,
            segments_sent=sent,
            segments_retx=retx,
            rounds=rounds,
            min_rtt_ms=min_rtt,
            samples=samples,
        )

    #: upper bound on rounds planned per batch (bounds the plan-pass work
    #: when the loss rate is tiny or zero and the horizon long)
    _PLAN_MAX_ROUNDS = 256

    def _advance_calm_rounds(
        self,
        t: float,
        remaining: int,
        valid_until: float,
        samples: List[TcpStateSample],
    ) -> Tuple[float, int, int, int, int, float]:
        """Advance a batch of rounds inside one calm epoch window.

        The plan pass replays the deterministic no-loss window trajectory
        (growth, in-flight clamps, serialization) for up to
        ``_PLAN_MAX_ROUNDS`` rounds, budgeting each at the +12σ noise
        bound so that no planned round can reach *valid_until* and no
        congestion-episode RNG draw can be missed.  The apply loop then
        runs the planned rounds in scalar ``math`` with one batched
        RTT-noise draw, the closed-form RFC 6298 update and the 500 ms
        snapshot grid.

        Loss: on a lossy path one uniform from the connection stream,
        inverted through the running no-loss survival product, selects
        the first round with >= 1 lost segment, with ``P(first loss at
        j) = prod_{i<j} surv_i * (1 - surv_j)`` — the law the per-round
        loop's ``binomial(inflight, loss_p)`` sequence induces.  The plan
        stops at that round, so every planned round is applied.  Windows
        above the bottleneck capacity stay in a lossy plan: their
        overflow loss probability is part of the product.  A zero-loss
        path is the case where every survival factor is 1: no uniform is
        drawn, and the plan stops *before* a window that would overrun
        the bottleneck queue, so the per-round loop takes that round with
        its binomial draw.  The zero-loss batch is therefore value- and
        RNG-stream-identical to the per-round loop; the lossy batch
        differs from it draw by draw but follows the same law.

        Returns ``(new_t, new_remaining, segments_sent, segments_retx,
        rounds, min_rtt)``; ``rounds == 0`` means no round could be
        planned and the caller must take a per-round step.
        """
        path = self.path
        base_ms = path.base_rtt_ms
        bottleneck = path.bottleneck_kbps
        capacity_bytes = path._capacity_bytes
        loss_rate = path.loss_rate
        lossy = loss_rate > 0.0
        max_win = self.max_window_segments
        mss = self.mss
        growth = self.slow_start_growth
        cwnd_cap = float(MAX_CWND_SEGMENTS)
        ssthresh = self.ssthresh

        # u is drawn before planning, so the plan can stop at the loss
        # round.  Without loss every survival factor is 1 and u = 0.0
        # never selects a round.
        u = self.rng.random() if lossy else 0.0
        plan_inflight: List[int] = []
        plan_serial: List[float] = []
        loss_p = 0.0
        surv = 1.0
        surv_cum = 1.0
        loss_round = -1
        cwnd = self.cwnd
        rem = remaining
        worst_t = t
        worst_base_ms = base_ms * _NOISE_BOUND
        max_rounds = self._PLAN_MAX_ROUNDS
        while rem > 0 and len(plan_inflight) < max_rounds:
            inflight = int(cwnd)
            if inflight > max_win:
                inflight = max_win
            if inflight > rem:
                inflight = rem
            if inflight < 1:
                inflight = 1
            inflight_bytes = inflight * mss
            serialization_ms = inflight_bytes * 8.0 / bottleneck
            worst_t += worst_base_ms + serialization_ms
            if worst_t > valid_until:
                break
            if lossy:
                if inflight_bytes <= capacity_bytes:
                    loss_p = loss_rate if loss_rate < 0.9 else 0.9
                else:
                    overflow = (inflight_bytes - capacity_bytes) / inflight_bytes
                    loss_p = min(0.9, loss_rate + overflow)
                surv = (1.0 - loss_p) ** inflight
            elif inflight_bytes > capacity_bytes:
                # overflow loss becomes possible: the per-round loop
                # takes this window and draws its loss
                break
            plan_inflight.append(inflight)
            plan_serial.append(serialization_ms)
            surv_cum *= surv
            if u > surv_cum:
                # the trajectory past the first lossy round depends on
                # the loss, so the plan ends here
                loss_round = len(plan_inflight) - 1
                break
            if cwnd < ssthresh:
                cwnd = cwnd * growth
            else:
                cwnd = cwnd + 1.0
            if cwnd > cwnd_cap:
                cwnd = cwnd_cap
            rem -= inflight
        n_apply = len(plan_inflight)
        if n_apply == 0:
            # A lossy path's uniform is discarded: deterministic either way.
            return t, remaining, 0, 0, 0, float("inf")

        # One batched draw produces the same values, in the same order, as
        # n_apply scalar standard_normal() calls on the path's generator.
        noise_z = path.rng.standard_normal(n_apply).tolist()
        pow_srtt = _POW_SRTT
        pow_var = _POW_VAR
        exp_ = math.exp
        srtt = self.srtt_ms
        rttvar = self.rttvar_ms
        cwnd = self.cwnd
        next_snap = self._next_snapshot_ms
        interval = self.snapshot_interval_ms
        retx_total = self.retx_total
        min_rtt = float("inf")
        retx = 0
        delivered = 0
        for i, inflight in enumerate(plan_inflight):
            rtt = base_ms * exp_(0.08 * noise_z[i])
            if rtt < min_rtt:
                min_rtt = rtt
            observed = rtt + plan_serial[i]
            round_time = observed
            if i == loss_round:
                # Loss count: binomial(inflight, loss_p) conditioned on
                # >= 1, by inverse-CDF walk along the pmf recurrence
                # (loss_p and surv still hold this round's values).  When
                # the no-loss mass has underflowed the conditioning is
                # vacuous and a plain binomial draw (clamped to >= 1) is
                # exact to ~1e-250.
                if surv < 1e-250:
                    retx = int(self.rng.binomial(inflight, loss_p))
                    if retx < 1:
                        retx = 1
                else:
                    target = surv + self.rng.random() * (1.0 - surv)
                    pmf = surv
                    cdf = surv
                    x = 0
                    ratio = loss_p / (1.0 - loss_p)
                    while cdf < target and x < inflight:
                        pmf *= (inflight - x) / (x + 1.0) * ratio
                        x += 1
                        cdf += pmf
                    retx = x if x >= 1 else 1
                retx_total += retx
                if retx >= max(1, int(0.5 * inflight)):
                    # RTO from the pre-update estimator, as in the loop.
                    if srtt is None:
                        round_time += 1000.0
                    else:
                        round_time += RTO_FLOOR_MS + srtt + 4.0 * rttvar
                    ssthresh = max(cwnd / 2.0, 2.0)
                    cwnd = max(float(self.initial_cwnd) / 2.0, 2.0)
                else:
                    round_time += path.sample_rtt(t + observed)
                    ssthresh = max(inflight / 2.0, 2.0)
                    cwnd = ssthresh
            else:
                if cwnd < ssthresh:
                    cwnd = cwnd * growth
                else:
                    cwnd = cwnd + 1.0
                if cwnd > cwnd_cap:
                    cwnd = cwnd_cap
            if srtt is None:
                srtt = observed
                rttvar = observed / 2.0
            else:
                n = inflight if inflight < _OBSERVE_CAP else _OBSERVE_CAP
                a = pow_srtt[n]
                b = pow_var[n]
                delta = srtt - observed
                rttvar = b * rttvar + 2.0 * (a - b) * abs(delta)
                srtt = observed + delta * a
            delivered += inflight
            t += round_time
            while next_snap is not None and t >= next_snap:
                # positional fields (t, cwnd, srtt, rttvar, retx, mss,
                # rto); srtt is set above before any snapshot can fire,
                # so the rto matches state_sample()'s exactly
                samples.append(
                    TcpStateSample(
                        next_snap,
                        int(cwnd),
                        srtt,
                        rttvar,
                        retx_total,
                        mss,
                        RTO_FLOOR_MS + srtt + 4.0 * rttvar,
                    )
                )
                next_snap += interval
        self.srtt_ms = srtt
        self.rttvar_ms = rttvar
        self.cwnd = cwnd
        self.ssthresh = ssthresh
        self.retx_total = retx_total
        self.bytes_acked_total += delivered * mss
        self._next_snapshot_ms = next_snap
        return t, remaining - delivered, delivered + retx, retx, n_apply, min_rtt
