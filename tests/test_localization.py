"""Tests for bottleneck localization — unit rules + ground-truth validation."""

import numpy as np
import pytest

from helpers import cdn_chunk, make_dataset, make_records, player_chunk, tcp_snap
from repro.core.localization import (
    Bottleneck,
    attribute_chunk,
    diagnose_dataset,
    diagnose_session,
)
from repro.telemetry.dataset import Dataset


def chunk_with(player_kwargs=None, cdn_kwargs=None, tcp_kwargs=None):
    """One joined chunk with overridden fields."""
    records = make_records(1)
    if player_kwargs:
        records["player_chunks"][0] = player_chunk(**player_kwargs)
    if cdn_kwargs:
        records["cdn_chunks"][0] = cdn_chunk(**cdn_kwargs)
    if tcp_kwargs:
        records["tcp_snapshots"][0] = tcp_snap(**tcp_kwargs)
    dataset = Dataset(**records)
    return dataset.join_chunks()[0]


class TestAttributionRules:
    def test_healthy_chunk_is_none(self):
        attribution = attribute_chunk(chunk_with())
        assert attribution.bottleneck is Bottleneck.NONE

    def test_cache_miss_attributed_to_server(self):
        chunk = chunk_with(
            player_kwargs=dict(dfb_ms=200.0),
            cdn_kwargs=dict(cache_status="miss", d_be_ms=90.0, d_read_ms=11.0),
        )
        attribution = attribute_chunk(chunk)
        assert attribution.bottleneck is Bottleneck.SERVER
        assert attribution.detail == "miss"

    def test_disk_hit_attributed_to_server_when_dominant(self):
        chunk = chunk_with(
            player_kwargs=dict(dfb_ms=70.0),
            cdn_kwargs=dict(cache_status="hit_disk", d_read_ms=55.0),
            tcp_kwargs=dict(srtt_ms=8.0),
        )
        attribution = attribute_chunk(chunk)
        assert attribution.bottleneck is Bottleneck.SERVER
        assert attribution.detail == "disk"

    def test_slow_download_attributed_to_network_throughput(self):
        chunk = chunk_with(player_kwargs=dict(dfb_ms=200.0, dlb_ms=9000.0))
        attribution = attribute_chunk(chunk)
        assert attribution.bottleneck is Bottleneck.NETWORK_THROUGHPUT
        assert attribution.perf_score < 1.0

    def test_latency_dominated_bad_chunk(self):
        # cwnd large enough that the delivery rate is consistent with the
        # connection (no burst signature) — the problem is pure RTT.
        chunk = chunk_with(
            player_kwargs=dict(dfb_ms=5000.0, dlb_ms=2000.0),
            tcp_kwargs=dict(srtt_ms=2500.0, rttvar_ms=500.0, cwnd_segments=900),
        )
        attribution = attribute_chunk(chunk)
        assert attribution.bottleneck is Bottleneck.NETWORK_LATENCY

    def test_transient_flag_wins(self):
        chunk = chunk_with(player_kwargs=dict(dfb_ms=3000.0, dlb_ms=30.0))
        attribution = attribute_chunk(chunk, transient_flagged=True)
        assert attribution.bottleneck is Bottleneck.CLIENT_DOWNLOAD_STACK
        assert attribution.detail == "transient-burst"

    def test_burst_signature_detected_without_flag(self):
        # tiny D_LB -> TP_inst far above the connection's CWND/SRTT capability
        chunk = chunk_with(
            player_kwargs=dict(dfb_ms=2500.0, dlb_ms=20.0),
            tcp_kwargs=dict(cwnd_segments=40, srtt_ms=60.0),
        )
        attribution = attribute_chunk(chunk)
        assert attribution.bottleneck is Bottleneck.CLIENT_DOWNLOAD_STACK

    def test_persistent_stack_dominance(self):
        chunk = chunk_with(
            player_kwargs=dict(dfb_ms=1200.0, dlb_ms=900.0),
            tcp_kwargs=dict(srtt_ms=40.0, rttvar_ms=5.0, cwnd_segments=200),
        )
        attribution = attribute_chunk(chunk)
        assert attribution.bottleneck is Bottleneck.CLIENT_DOWNLOAD_STACK
        # the fixture chunk is a session's first chunk, so the stack
        # latency is labelled as setup cost
        assert attribution.detail == "first-chunk-setup"

    def test_rendering_problem_on_healthy_delivery(self):
        chunk = chunk_with(
            player_kwargs=dict(
                dfb_ms=100.0,
                dlb_ms=900.0,
                dropped_frames=90,
                total_frames=180,
            )
        )
        attribution = attribute_chunk(chunk)
        assert attribution.bottleneck is Bottleneck.CLIENT_RENDERING

    def test_hidden_player_drops_not_blamed(self):
        chunk = chunk_with(
            player_kwargs=dict(
                dfb_ms=100.0,
                dlb_ms=900.0,
                dropped_frames=170,
                total_frames=180,
                visible=False,
            )
        )
        assert attribute_chunk(chunk).bottleneck is Bottleneck.NONE

    def test_hw_rendered_drops_not_blamed(self):
        chunk = chunk_with(
            player_kwargs=dict(
                dfb_ms=100.0,
                dlb_ms=900.0,
                dropped_frames=90,
                total_frames=180,
                hw_rendered=True,
            )
        )
        assert attribute_chunk(chunk).bottleneck is Bottleneck.NONE


class TestSessionDiagnosis:
    def test_healthy_session(self):
        dataset = make_dataset(3)
        diagnosis = diagnose_session(dataset.sessions()[0])
        assert diagnosis.dominant is Bottleneck.NONE
        assert diagnosis.problem_fraction == 0.0

    def test_dominant_reflects_majority_problem(self):
        records = make_records(4)
        for i in (1, 2):
            records["player_chunks"][i] = player_chunk(
                chunk=i, dfb_ms=200.0, dlb_ms=9000.0
            )
        dataset = Dataset(**records)
        diagnosis = diagnose_session(dataset.sessions()[0])
        assert diagnosis.dominant is Bottleneck.NETWORK_THROUGHPUT
        assert diagnosis.problem_fraction == pytest.approx(0.5)


class TestDatasetDiagnosis:
    def test_fractions_sum_to_one(self, medium_dataset):
        fractions = diagnose_dataset(medium_dataset)
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["none"] > 0.5  # most chunks are healthy

    def test_all_locations_observed(self, medium_dataset):
        fractions = diagnose_dataset(medium_dataset)
        for key in ("server", "network-throughput", "client-download-stack"):
            assert fractions[key] > 0.0, f"expected some {key} chunks"

    def test_ground_truth_transients_localized_to_client(self, medium_dataset):
        """Chunks the simulator made download-stack bursts must be
        attributed to the client, not the network."""
        truth = {
            (t.session_id, t.chunk_id)
            for t in medium_dataset.ground_truth
            if t.transient_ds
        }
        hits = 0
        total = 0
        for session in medium_dataset.sessions():
            diagnosis = diagnose_session(session)
            for attribution in diagnosis.attributions:
                if (attribution.session_id, attribution.chunk_id) in truth:
                    total += 1
                    if attribution.bottleneck is Bottleneck.CLIENT_DOWNLOAD_STACK:
                        hits += 1
        assert total > 20
        assert hits / total > 0.6

    def test_miss_chunks_localized_to_server(self, medium_dataset):
        """Cache-miss chunks whose server latency dominates must come back
        as server problems."""
        server_hits = 0
        total = 0
        for session in medium_dataset.sessions():
            diagnosis = diagnose_session(session)
            for chunk, attribution in zip(session.chunks, diagnosis.attributions):
                if chunk.cdn.cache_status != "miss":
                    continue
                if chunk.cdn.total_server_ms < 50.0:
                    continue
                total += 1
                if attribution.bottleneck is Bottleneck.SERVER:
                    server_hits += 1
        assert total > 100
        assert server_hits / total > 0.5
