"""Experiment modules exercised on small synthetic datasets.

The medium-simulation tests (test_experiments.py) validate shapes; these
tests validate the experiment *computations* themselves on hand-crafted
records where the right answer is known exactly — and exercise the
parameterization (bin edges, thresholds, rank points) cheaply.
"""

import numpy as np
import pytest

from helpers import (
    cdn_chunk,
    cdn_session,
    empty_records,
    make_dataset,
    player_chunk,
    player_session,
    tcp_snap,
)
from repro.analysis.experiments import common, run_experiment
from repro.telemetry.dataset import Dataset


def build_sessions(specs):
    """Build a dataset from per-session chunk specs.

    *specs* is {session_id: [(player_kwargs, cdn_kwargs, tcp_kwargs), ...]}.
    """
    return Dataset(**build_records(specs))


def build_records(specs):
    """The editable record lists of :func:`build_sessions`."""
    records = empty_records()
    for session_id, chunks in specs.items():
        records["player_sessions"].append(player_session(session=session_id))
        records["cdn_sessions"].append(cdn_session(session=session_id))
        for index, (p_kw, c_kw, t_kw) in enumerate(chunks):
            records["player_chunks"].append(
                player_chunk(session=session_id, chunk=index, **p_kw)
            )
            records["cdn_chunks"].append(
                cdn_chunk(session=session_id, chunk=index, **c_kw)
            )
            records["tcp_snapshots"].append(
                tcp_snap(session=session_id, chunk=index, t=500.0 * (index + 1), **t_kw)
            )
    return records


class TestCommonScales:
    def test_known_scales(self):
        config = common.standard_config("tiny")
        assert config.n_sessions == common.SCALES["tiny"][0]

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            common.standard_config("galactic")

    def test_results_cached_per_scale(self):
        assert common.standard_result("tiny") is common.standard_result("tiny")

    def test_results_cached_on_values_not_spelling(self):
        # one simulation, however the arguments are spelled
        assert common.standard_result("tiny") is common.standard_result("tiny", 7, 1)
        assert common.filtered_dataset("tiny") is common.filtered_dataset(
            "tiny", seed=7, workers=1
        )


class TestFig05Synthetic:
    def test_known_medians(self):
        specs = {
            "hit": [
                (dict(), dict(cache_status="hit_ram", d_read_ms=1.0), dict())
                for _ in range(10)
            ],
            "miss": [
                (dict(), dict(cache_status="miss", d_read_ms=11.0, d_be_ms=80.0), dict())
                for _ in range(10)
            ],
        }
        result = run_experiment("fig05", build_sessions(specs))
        assert result.summary["median_hit_total_ms"] == pytest.approx(1.4, abs=0.01)
        assert result.summary["median_miss_total_ms"] == pytest.approx(91.4, abs=0.01)
        assert result.summary["retry_timer_chunk_fraction"] == pytest.approx(0.5)


class TestFig15Synthetic:
    def test_retx_rate_computed_from_deltas(self):
        # one session: 20 retx in chunk 0, none later
        specs = {
            "s": [
                (dict(), dict(chunk_bytes=1_460_000), dict(retx_total=20)),
                (dict(), dict(chunk_bytes=1_460_000), dict(retx_total=20)),
                (dict(), dict(chunk_bytes=1_460_000), dict(retx_total=20)),
            ]
        }
        result = run_experiment("fig15", build_sessions(specs))
        rates = dict(result.series["retx_rate_by_chunk"])
        assert rates[0] == pytest.approx(2.0)  # 20/1000 segments = 2%
        assert rates[1] == 0.0 and rates[2] == 0.0
        assert result.checks["first_chunk_highest"]


class TestFig16Synthetic:
    def test_split_and_shares(self):
        specs = {
            "good": [(dict(dfb_ms=100.0, dlb_ms=900.0), dict(), dict())] * 25,
            "bad": [(dict(dfb_ms=200.0, dlb_ms=9800.0), dict(), dict())] * 25,
        }
        result = run_experiment("fig16", build_sessions(specs))
        assert result.summary["n_good"] == 25.0
        assert result.summary["n_bad"] == 25.0
        assert result.summary["median_latency_share_bad"] == pytest.approx(0.02)
        assert result.checks["bad_chunks_throughput_dominated"]


class TestTable04Synthetic:
    def test_counts_and_threshold(self):
        # an "enterprise" whose sessions alternate srtt 10 and 1000 (CV>1),
        # and a quiet ISP
        def jittery(chunks=4):
            # one huge spike among small samples: CV well above 1 (an
            # even 50/50 alternation mathematically caps CV below 1)
            return [
                (dict(), dict(), dict(srtt_ms=2000.0 if i == chunks - 1 else 10.0))
                for i in range(chunks)
            ]

        def calm(chunks=4):
            return [(dict(), dict(), dict(srtt_ms=50.0)) for i in range(chunks)]

        records = empty_records()
        for i in range(40):
            sid = f"e{i}"
            records["player_sessions"].append(player_session(session=sid))
            records["cdn_sessions"].append(
                cdn_session(session=sid, org="Enterprise#1")
            )
            for index, (p, c, t) in enumerate(jittery()):
                records["player_chunks"].append(player_chunk(session=sid, chunk=index))
                records["cdn_chunks"].append(cdn_chunk(session=sid, chunk=index))
                records["tcp_snapshots"].append(
                    tcp_snap(session=sid, chunk=index, t=500.0 * (index + 1), **t)
                )
        for i in range(40):
            sid = f"r{i}"
            records["player_sessions"].append(player_session(session=sid))
            records["cdn_sessions"].append(cdn_session(session=sid, org="Comcast"))
            for index, (p, c, t) in enumerate(calm()):
                records["player_chunks"].append(player_chunk(session=sid, chunk=index))
                records["cdn_chunks"].append(cdn_chunk(session=sid, chunk=index))
                records["tcp_snapshots"].append(
                    tcp_snap(session=sid, chunk=index, t=500.0 * (index + 1), **t)
                )
        dataset = Dataset(**records)
        result = run_experiment("table04", dataset, min_sessions=30)
        rows = {org: pct for org, _, _, pct in result.series["org_rows"]}
        assert rows["Enterprise#1"] == pytest.approx(100.0)
        assert rows["Comcast"] == 0.0
        assert result.all_checks_passed


class TestFig19Synthetic:
    def test_rate_bins_and_hw_bar(self):
        specs = {"s": []}
        # slow chunks (rate 0.4) dropping 35%, fast chunks (rate 3) dropping ~3%
        for _ in range(20):
            specs["s"].append(
                (
                    dict(dfb_ms=3000.0, dlb_ms=12_000.0, dropped_frames=63),
                    dict(),
                    dict(),
                )
            )
            specs["s"].append(
                (
                    dict(dfb_ms=200.0, dlb_ms=1800.0, dropped_frames=5),
                    dict(),
                    dict(),
                )
            )
        records = build_records(specs)
        # add hardware-rendered chunks in a second session
        records["player_sessions"].append(player_session(session="hw"))
        records["cdn_sessions"].append(cdn_session(session="hw"))
        for i in range(10):
            records["player_chunks"].append(
                player_chunk(
                    session="hw", chunk=i, hw_rendered=True, dropped_frames=0
                )
            )
            records["cdn_chunks"].append(cdn_chunk(session="hw", chunk=i))
        result = run_experiment("fig19", Dataset(**records))
        assert result.series["hw_rendering_drop_pct"] == pytest.approx(0.0)
        rows = result.series["rows_center_mean_median_q25_q75_n"]
        by_center = {center: mean for center, mean, *_ in rows}
        assert by_center[0.25] == pytest.approx(35.0)
        assert by_center[3.5] == pytest.approx(5 / 180 * 100, abs=0.1)


class TestFig14Synthetic:
    def test_conditional_probability(self):
        # chunk 1 always rebuffers when it lost packets, never otherwise
        specs = {}
        for i in range(10):
            lossy = i < 5
            specs[f"s{i}"] = [
                (dict(), dict(), dict(retx_total=0)),
                (
                    dict(rebuffer_count=1 if lossy else 0,
                         rebuffer_ms=500.0 if lossy else 0.0),
                    dict(),
                    dict(retx_total=10 if lossy else 0),
                ),
            ]
        result = run_experiment("fig14", build_sessions(specs), max_chunk_id=3)
        rows = {cid: (p, pl) for cid, p, pl in result.series["rows_chunkid_p_pgivenloss"]}
        assert rows[1][0] == pytest.approx(0.5)  # unconditional
        assert rows[1][1] == pytest.approx(1.0)  # conditional on loss
