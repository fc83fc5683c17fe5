"""The per-session actor: drives one video session through the full path.

Each actor owns the session's player state (ABR, playback buffer, download
stack, renderer), its TCP connection and network path, and the mapping
decision that pinned it to a CDN server.  Processing one chunk executes the
paper's Fig. 2 time diagram end to end:

    GET ──(rtt0/2)──► server: D_wait + D_open + D_read (+ D_BE on miss)
        ──(rtt0/2)──► first byte enters the client download stack (D_DS)
        ──(TCP transfer rounds)──► last byte at the player
        ──► playback buffer append (startup / rebuffering accounting)
        ──► rendering (frame drops)

and emits both sides' telemetry plus ground truth, as rows: one tuple per
record, in its kind's column order
(:data:`~repro.telemetry.columnar.COLUMN_SCHEMAS`).  No record object is
built; a discarding collector (the warmup's) gets no rows at all.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cdn.mapping import MappingDecision
from ..cdn.server import CdnServer
from ..client.abr import AbrAlgorithm, ChunkObservation
from ..client.buffer import PlaybackBuffer
from ..client.downloadstack import DownloadStackModel
from ..client.rendering import RenderingModel
from ..faults.injector import FaultInjector, merge_labels
from ..net.path import NetworkPath, build_session_path
from ..net.tcp import TcpConnection
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceRecorder
from ..telemetry.collector import TelemetryCollector
from ..workload.randomness import spawn
from ..workload.sessions import SessionPlan
from .config import SimulationConfig

__all__ = ["SessionActor"]

#: lognormal locations of the receiver window (160 segments) and of the
#: manifest request's server time (1.5 ms), computed once
_LOG_RWND_SEGMENTS = np.log(160.0)
_LOG_MANIFEST_SERVER_MS = np.log(1.5)


class SessionActor:
    """Simulates one session chunk by chunk.

    Telemetry goes to the collector as rows (see the module docstring).
    When the collector discards (the warmup), the actor builds no session
    rows, no chunk rows and no snapshot list; everything else — the RNG
    draws, the fault-state queries and the ``client.*``/``faults.*``
    metrics — runs as in a measured period.
    """

    def __init__(
        self,
        plan: SessionPlan,
        mapping: MappingDecision,
        server: CdnServer,
        abr: AbrAlgorithm,
        collector: TelemetryCollector,
        config: SimulationConfig,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultInjector] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.plan = plan
        self.mapping = mapping
        self.server = server
        self.abr = abr
        self.collector = collector
        self.config = config
        self.faults = faults
        # Causal tracing (docs/OBSERVABILITY.md, "Tracing"): the recorder's
        # head-sampling decides per session id; untraced sessions (and runs
        # with tracing off) pay one ``is None`` check per chunk.
        self._trace = trace.session_trace(plan.session_id) if trace is not None else None
        # Observability: chunk-lifecycle metrics (docs/OBSERVABILITY.md).
        self.metrics = metrics
        if metrics is not None:
            metrics.counter("client.sessions_total").inc()
            self._m_chunks = metrics.counter("client.chunks_total")
            self._m_dfb = metrics.histogram("client.dfb_ms")
            self._m_dlb = metrics.histogram("client.dlb_ms")
            self._m_startup = metrics.histogram("client.startup_delay_ms")
            self._m_fault_net = metrics.counter("faults.network_chunks_total")
            self._m_fault_render = metrics.counter("faults.render_chunks_total")
            self._m_fault_labeled = metrics.counter("faults.labeled_chunks_total")
            # One span handle per actor: handles are sequentially reusable,
            # and the per-call name validation is off the chunk hot path.
            self._span_chunk = metrics.span("session.chunk")

        # Keyed by session id so warmup streams (different generator seed)
        # do not replay the measured sessions' noise.
        self.rng = spawn(config.seed, f"actor|{plan.session_id}")
        client = plan.client
        self.path: NetworkPath = build_session_path(
            prefix=client.prefix,
            server_location=mapping.pop.location,
            bandwidth_kbps=client.bandwidth_kbps,
            rng=self.rng,
        )
        # Fault injection: overlay the injector on this session's path when
        # some network epoch can strike it.  The probe is a pure function
        # of sim time (no RNG), so TCP's RTT/bandwidth/loss sampling picks
        # up the epochs without perturbing the un-faulted noise streams.
        if faults is not None:
            self.path.fault_probe = faults.path_probe(
                client.prefix.org, client.prefix.prefix_id
            )
        # Receiver windows vary by OS/tuning: many clients advertise modest
        # windows that keep TCP below the path's overflow point (these are
        # the paper's ~40% loss-free sessions).
        rwnd_segments = int(min(max(self.rng.lognormal(_LOG_RWND_SEGMENTS, 0.8), 32), 4096))
        self.tcp = TcpConnection(
            path=self.path,
            rng=self.rng,
            initial_cwnd=config.tcp_initial_cwnd,
            slow_start_growth=1.5 if config.tcp_paced else 2.0,
            max_window_segments=rwnd_segments,
        )
        self.buffer = PlaybackBuffer(metrics=metrics)
        self.downloadstack = DownloadStackModel(client.platform, self.rng, metrics=metrics)
        self.renderer = RenderingModel(
            platform=client.platform,
            gpu=client.gpu,
            cpu_cores=client.cpu_cores,
            cpu_background_load=client.cpu_background_load,
            rng=self.rng,
        )
        self.next_chunk = 0
        self.session_had_miss = False
        #: False for a discarding collector: no rows are built for it
        self._emit = not collector.discard
        if self._emit:
            self._emit_session_rows()

    # -- session-level telemetry ------------------------------------------------

    def _emit_session_rows(self) -> None:
        plan = self.plan
        client = plan.client
        prefix = client.prefix
        # rows in COLUMN_SCHEMAS field order (PlayerSessionRecord,
        # CdnSessionRecord)
        self.collector.add_player_session(
            (
                plan.session_id,
                client.beacon_ip,
                client.user_agent,
                plan.video.video_id,
                plan.video.duration_ms,
                plan.start_ms,
                client.platform.os,
                client.platform.browser,
            )
        )
        self.collector.add_cdn_session(
            (
                plan.session_id,
                client.cdn_visible_ip,
                client.user_agent,
                self.mapping.pop.pop_id,
                self.mapping.server_id,
                prefix.org,
                prefix.conn_type,
                prefix.country,
                prefix.geo.city,
                prefix.geo.lat,
                prefix.geo.lon,
            )
        )

    # -- manifest ----------------------------------------------------------------

    def manifest_time_ms(self, now_ms: float) -> float:
        """Duration of the initial manifest request (small HTTP exchange)."""
        rtt = self.path.sample_rtt(now_ms)
        server_time = float(self.rng.lognormal(_LOG_MANIFEST_SERVER_MS, 0.5))
        return rtt + server_time

    # -- per-chunk processing -------------------------------------------------------

    def process_chunk(self, now_ms: float) -> Optional[float]:
        """Process the next chunk's request issued at *now_ms*.

        Returns the absolute time at which the player will issue the next
        chunk request, or None when the session is over.
        """
        if self.metrics is None:
            return self._process_chunk(now_ms)
        with self._span_chunk:
            return self._process_chunk(now_ms)

    def _process_chunk(self, now_ms: float) -> Optional[float]:
        plan = self.plan
        video = plan.video
        index = self.next_chunk
        if index >= plan.watch_chunks:
            return None

        buffer_level_now = self.buffer.level_at(now_ms)
        bitrate = self.abr.choose_bitrate(buffer_level_now)
        duration_ms = video.chunk_duration_ms(index)
        size_bytes = video.chunk_bytes(index, bitrate)
        key = (video.video_id, index, int(bitrate))

        # Causal trace: a per-chunk emitter when this session is sampled.
        # The path fault is a pure function of sim time, queried once here
        # and reused by the ground-truth stamping below.
        ct = self._trace.chunk(index) if self._trace is not None else None
        path_fault = (
            self.faults.path_state(
                plan.client.prefix.org, plan.client.prefix.prefix_id, now_ms
            )
            if self.faults is not None
            else None
        )

        # --- fetch phase: request travels to the server, server serves ---
        rtt0 = self.path.sample_rtt(now_ms)
        if ct is not None:
            net_labels = (
                ",".join(sorted(set(path_fault.labels))) if path_fault else ""
            )
            ct.emit(
                "session.request", now_ms,
                bitrate_kbps=float(bitrate), chunk_bytes=int(size_bytes),
                buffer_ms=buffer_level_now,
            )
            ct.emit("net.propagation", now_ms, rtt0, faults=net_labels)
        serve = self.server.serve(key, size_bytes, now_ms + rtt0 / 2.0, trace=ct)
        if serve.status.value == "miss":
            if not self.session_had_miss and self.config.prefetch_after_miss:
                self._prefetch_following(index, bitrate)
            self.session_had_miss = True

        # --- download phase: TCP delivers the chunk ---
        transfer_start = now_ms + rtt0 / 2.0 + serve.total_ms + rtt0 / 2.0
        transfer = self.tcp.transfer(size_bytes, transfer_start)
        network_dlb = transfer.duration_ms
        if ct is not None:
            ct.emit(
                "net.transfer", transfer_start, network_dlb, faults=net_labels,
                segments_sent=transfer.segments_sent,
                segments_retx=transfer.segments_retx, rounds=transfer.rounds,
            )
            # The evolving 500 ms tcp_info stream (the dataset's records
            # stamp post-transfer state; the trace keeps each sample's own).
            for sample in transfer.samples:
                ct.emit(
                    "net.tcp_sample", sample.t_ms, faults=net_labels,
                    cwnd_segments=sample.cwnd_segments, srtt_ms=sample.srtt_ms,
                    rttvar_ms=sample.rttvar_ms, rto_ms=sample.rto_ms,
                    retx_total=sample.retx_total,
                )
            end_sample = self.tcp.state_sample(transfer_start + network_dlb)
            ct.emit(
                "net.tcp_sample", end_sample.t_ms, faults=net_labels,
                cwnd_segments=end_sample.cwnd_segments,
                srtt_ms=end_sample.srtt_ms, rttvar_ms=end_sample.rttvar_ms,
                rto_ms=end_sample.rto_ms, retx_total=end_sample.retx_total,
            )

        # --- client download stack ---
        ds = self.downloadstack.sample(index, network_dlb)
        dfb = rtt0 + serve.total_ms + ds.first_byte_delay_ms
        dlb = max(1.0, network_dlb - ds.last_byte_shift_ms)
        complete_ms = now_ms + dfb + dlb

        # --- playout phase ---
        if self.metrics is not None:
            self._m_chunks.inc()
            self._m_dfb.observe(dfb)
            self._m_dlb.observe(dlb)
            if index == 0:
                self._m_startup.observe(dfb + dlb)

        pre_append_level = self.buffer.level_at(complete_ms)
        rebuffer_count, rebuffer_ms = self.buffer.on_chunk_ready(
            index, duration_ms, complete_ms
        )
        download_rate = duration_ms / max(dfb + dlb, 1e-6)
        # Client-render fault epochs apply only where the regression bites:
        # a visible, software-rendered chunk (hidden players drop frames on
        # purpose; GPU pipelines bypass the buggy software renderer).
        render_fault = None
        if self.faults is not None and plan.visibility[index] and not plan.client.gpu:
            render_fault = self.faults.render_state(
                plan.client.platform.os, complete_ms
            )
        render = self.renderer.render_chunk(
            download_rate=download_rate,
            visible=plan.visibility[index],
            bitrate_kbps=bitrate,
            buffer_level_ms=pre_append_level,
            chunk_duration_ms=duration_ms,
            extra_drop_fraction=render_fault.drop_add if render_fault else 0.0,
        )
        if ct is not None:
            stack_start = now_ms + rtt0 + serve.total_ms
            ct.emit(
                "client.stack_delay", stack_start, ds.first_byte_delay_ms,
                transient=ds.transient,
            )
            ct.emit("client.first_byte", now_ms + dfb)
            ct.emit("client.last_byte", complete_ms)
            ct.emit(
                "client.buffer_append", complete_ms,
                rebuffer_count=rebuffer_count, rebuffer_ms=rebuffer_ms,
                buffer_ms=pre_append_level,
            )
            if rebuffer_ms > 0.0:
                ct.emit(
                    "client.rebuffer", complete_ms - rebuffer_ms, rebuffer_ms
                )
            ct.emit(
                "client.render", complete_ms,
                faults=(
                    ",".join(sorted(set(render_fault.labels)))
                    if render_fault
                    else ""
                ),
                visible=bool(plan.visibility[index]),
                dropped_frames=render.dropped_frames,
                total_frames=render.total_frames,
            )

        # Ground-truth fault labels: re-query the same pure functions that
        # produced the effects (server at request arrival, path at request
        # time, renderer at completion) and stamp what actually struck.
        # The queries and counters run in the warmup too.
        fault_labels = ""
        if self.faults is not None:
            server_fault = self.faults.server_state(
                self.server.server_id, now_ms + rtt0 / 2.0
            )
            fault_labels = merge_labels(
                server_fault.labels if server_fault else (),
                path_fault.labels if path_fault else (),
                render_fault.labels if render_fault else (),
            )
            if self.metrics is not None:
                if path_fault is not None:
                    self._m_fault_net.inc()
                if render_fault is not None:
                    self._m_fault_render.inc()
                if fault_labels:
                    self._m_fault_labeled.inc()

        # --- telemetry, both sides: rows in COLUMN_SCHEMAS field order ---
        if self._emit:
            collector = self.collector
            session_id = plan.session_id
            collector.add_player_chunk(
                (
                    session_id,
                    index,
                    dfb,
                    dlb,
                    float(bitrate),
                    duration_ms,
                    rebuffer_count,
                    rebuffer_ms,
                    plan.visibility[index],
                    render.avg_fps,
                    render.dropped_frames,
                    render.total_frames,
                    now_ms,
                    plan.client.gpu,
                )
            )
            collector.add_cdn_chunk(
                (
                    session_id,
                    index,
                    serve.d_wait_ms,
                    serve.d_open_ms,
                    serve.d_read_ms,
                    serve.d_be_ms,
                    serve.status.value,
                    size_bytes,
                    self.server.server_id,
                    self.mapping.pop.pop_id,
                    now_ms + rtt0 / 2.0,
                )
            )
            # Snapshots stamp the connection's *current* (post-transfer)
            # state at the sampled times: only the times vary across the
            # block.  §2.1: at least one snapshot per chunk — the forced
            # end-of-transfer sample rides at the block's tail, and the
            # whole chunk's grid lands in one block append (the snapshots
            # are the highest-volume kind).
            tcp = self.tcp
            cwnd = int(tcp.cwnd)
            srtt = tcp.srtt_ms if tcp.srtt_ms is not None else 0.0
            rttvar = tcp.rttvar_ms
            retx_total = tcp.retx_total
            mss = tcp.mss
            rto = tcp.rto_ms
            snapshot_times = [sample.t_ms for sample in transfer.samples]
            snapshot_times.append(transfer_start + network_dlb)
            collector.add_tcp_snapshots(
                [
                    (session_id, index, t_ms, cwnd, srtt, rttvar, retx_total, mss, rto)
                    for t_ms in snapshot_times
                ]
            )
            collector.add_ground_truth(
                (
                    session_id,
                    index,
                    ds.first_byte_delay_ms,
                    rtt0,
                    ds.transient,
                    transfer.segments_sent,
                    transfer.segments_retx,
                    render.dropped_fraction,
                    network_dlb,
                    fault_labels,
                )
            )

        # --- ABR update and next-request pacing ---
        self.abr.observe(
            ChunkObservation(
                bitrate_kbps=float(bitrate),
                dfb_ms=dfb,
                dlb_ms=dlb,
                chunk_bytes=size_bytes,
            )
        )
        self.next_chunk += 1
        if self.next_chunk >= plan.watch_chunks:
            return None
        level_after = self.buffer.level_at(complete_ms)
        wait = max(0.0, level_after - self.config.max_buffer_ms)
        return complete_ms + wait

    def _prefetch_following(self, index: int, bitrate: float) -> None:
        """§4.1-2 extension: warm the next chunks after the first miss."""
        video = self.plan.video
        for ahead in range(1, self.config.prefetch_depth + 1):
            j = index + ahead
            if j >= video.n_chunks:
                break
            self.server.prefetch(
                (video.video_id, j, int(bitrate)), video.chunk_bytes(j, bitrate)
            )
