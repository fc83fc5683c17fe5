"""Client rendering-path model: demux → decode → render.

§4.4's findings, all encoded here:

* Without a GPU the CPU does the work, so rendering quality is sensitive to
  CPU utilization (Fig. 20's controlled experiment: drops climb roughly
  linearly with the number of loaded cores).
* Chunks need to *arrive* fast enough to leave slack for processing: below
  a download rate of ~1.5 seconds-of-video per second, dropped frames climb
  steeply; above it, extra rate does not help (Fig. 19's knee).  A deep
  playback buffer can hide a slow chunk (the paper's 5.7% of
  low-rate-but-good-rendering chunks).
* Browsers differ: internal-Flash/native pipelines (Chrome, Safari-on-Mac)
  outperform; unpopular browsers drop the most frames (Figs. 21-22).
* Hidden/minimized players drop frames intentionally to save CPU (§2.1's
  ``vis`` flag exists to exclude them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workload.catalog import FRAMES_PER_SECOND
from .browsers import PlatformProfile

__all__ = ["RenderResult", "RenderingModel", "rate_drop_term"]

#: Download rate (sec of video per sec) above which more rate stops helping.
GOOD_RATE_THRESHOLD = 1.5


def rate_drop_term(download_rate: float) -> float:
    """Dropped-frame contribution of the chunk arrival rate (Fig. 19 shape).

    Piecewise: steep below 1.0 s/s, a knee from 1.0 to 1.5, flat beyond.
    """
    if download_rate < 0:
        raise ValueError("download_rate must be non-negative")
    if download_rate >= GOOD_RATE_THRESHOLD:
        return 0.03
    if download_rate >= 1.0:
        # 0.08 at rate 1.0 down to 0.03 at 1.5
        return 0.08 - 0.05 * (download_rate - 1.0) / 0.5
    # 0.08 at rate 1.0 climbing to 0.40 as the rate approaches zero
    return min(0.40, 0.08 + 0.32 * (1.0 - download_rate))


@dataclass(frozen=True)
class RenderResult:
    """Rendering outcome of one chunk."""

    dropped_fraction: float
    avg_fps: float
    dropped_frames: int
    total_frames: int


class RenderingModel:
    """Samples per-chunk rendering quality for one session's host."""

    def __init__(
        self,
        platform: PlatformProfile,
        gpu: bool,
        cpu_cores: int,
        cpu_background_load: float,
        rng: np.random.Generator,
        fps: float = FRAMES_PER_SECOND,
    ) -> None:
        if cpu_cores <= 0:
            raise ValueError("cpu_cores must be positive")
        if not 0.0 <= cpu_background_load <= 1.0:
            raise ValueError("cpu_background_load must be in [0, 1]")
        self.platform = platform
        self.gpu = gpu
        self.cpu_cores = cpu_cores
        self.cpu_background_load = cpu_background_load
        self.rng = rng
        self.fps = fps

    def drop_fraction(
        self,
        download_rate: float,
        visible: bool,
        bitrate_kbps: float,
        buffer_level_ms: float,
        extra_drop_fraction: float = 0.0,
    ) -> float:
        """Expected dropped-frame fraction for one chunk (before noise).

        ``extra_drop_fraction`` is the fault-injection hook (a player
        regression, docs/FAULTS.md): it is added after the model's own
        terms, and only on the software-rendered visible path — hidden
        players already drop on purpose and GPU pipelines are unaffected
        by a software-renderer bug.
        """
        if not visible:
            # Hidden tab / minimized window: frames dropped on purpose.
            return float(self.rng.uniform(0.6, 0.95))
        if self.gpu:
            return min(1.0, float(self.rng.uniform(0.0, 0.01)))

        rate_term = rate_drop_term(download_rate)
        # A deep buffer hides a slow arrival: frames already buffered keep
        # the decoder fed (the paper's low-rate/good-rendering chunks).
        if buffer_level_ms > 15_000.0 and rate_term > 0.03:
            rate_term = 0.03 + (rate_term - 0.03) * 0.25
        # Fig. 20: ~1% extra drops per loaded core on software rendering.
        cpu_term = 0.0125 * self.cpu_background_load * self.cpu_cores
        # Decoding cost grows mildly with bitrate (more data per frame).
        decode_term = 0.004 * bitrate_kbps / 1000.0
        raw = self.platform.render_inefficiency * (rate_term + cpu_term + decode_term)
        noise = float(self.rng.lognormal(0.0, 0.35))
        return min(max(raw * noise + extra_drop_fraction, 0.0), 0.95)

    def render_chunk(
        self,
        download_rate: float,
        visible: bool,
        bitrate_kbps: float,
        buffer_level_ms: float,
        chunk_duration_ms: float,
        extra_drop_fraction: float = 0.0,
    ) -> RenderResult:
        """Render one chunk; returns frame statistics."""
        if chunk_duration_ms <= 0:
            raise ValueError("chunk_duration_ms must be positive")
        fraction = self.drop_fraction(
            download_rate, visible, bitrate_kbps, buffer_level_ms, extra_drop_fraction
        )
        total_frames = max(1, int(round(self.fps * chunk_duration_ms / 1000.0)))
        dropped = int(round(fraction * total_frames))
        dropped = min(dropped, total_frames)
        avg_fps = self.fps * (1.0 - dropped / total_frames)
        return RenderResult(
            dropped_fraction=dropped / total_frames,
            avg_fps=avg_fps,
            dropped_frames=dropped,
            total_frames=total_frames,
        )
