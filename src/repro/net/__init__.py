"""Network substrate: wide-area paths, TCP model, prefix utilities."""

from .._lazy import lazy_exports

__all__ = [
    "NetworkPath",
    "build_session_path",
    "prefix_of",
    "group_by_prefix",
    "is_valid_ipv4",
    "TcpConnection",
    "TcpStateSample",
    "ChunkTransfer",
    "DEFAULT_MSS",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".path": ("NetworkPath", "build_session_path"),
        ".prefix": ("group_by_prefix", "is_valid_ipv4", "prefix_of"),
        ".tcp": ("DEFAULT_MSS", "ChunkTransfer", "TcpConnection", "TcpStateSample"),
    },
)
