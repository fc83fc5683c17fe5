"""Synthetic workload generation: catalog, clients, geography, sessions."""

from .._lazy import lazy_exports

__all__ = [
    "CHUNK_DURATION_MS",
    "DEFAULT_BITRATE_LADDER_KBPS",
    "Catalog",
    "Video",
    "chunk_size_bytes",
    "generate_catalog",
    "Client",
    "ClientPopulation",
    "PopulationConfig",
    "Prefix",
    "generate_population",
    "PopularityModel",
    "SessionGenerator",
    "SessionPlan",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".catalog": (
            "CHUNK_DURATION_MS",
            "DEFAULT_BITRATE_LADDER_KBPS",
            "Catalog",
            "Video",
            "chunk_size_bytes",
            "generate_catalog",
        ),
        ".clients": (
            "Client",
            "ClientPopulation",
            "PopulationConfig",
            "Prefix",
            "generate_population",
        ),
        ".popularity": ("PopularityModel",),
        ".sessions": ("SessionGenerator", "SessionPlan"),
    },
)
