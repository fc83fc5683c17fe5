"""Client substrate: platforms, ABR, playback buffer, download stack, rendering."""

from .abr import (
    AbrAlgorithm,
    BufferBasedAbr,
    ChunkObservation,
    HybridAbr,
    RateBasedAbr,
    make_abr,
)
from .browsers import PLATFORM_PROFILES, PlatformProfile, get_profile, sample_platform
from .buffer import PlaybackBuffer
from .downloadstack import DownloadStackEffect, DownloadStackModel
from .rendering import RenderingModel, RenderResult, rate_drop_term

__all__ = [
    "AbrAlgorithm",
    "RateBasedAbr",
    "BufferBasedAbr",
    "HybridAbr",
    "ChunkObservation",
    "make_abr",
    "PlatformProfile",
    "PLATFORM_PROFILES",
    "get_profile",
    "sample_platform",
    "PlaybackBuffer",
    "DownloadStackEffect",
    "DownloadStackModel",
    "RenderingModel",
    "RenderResult",
    "rate_drop_term",
]
