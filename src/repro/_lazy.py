"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package ``__init__`` that re-exports names with ``from .module import
name`` imports every such module, and everything those import, whenever
any of its modules is imported.  :func:`lazy_exports` defers each of
those imports to the first access of the name, so ``import
repro.core.qoe`` loads the analysis modules it uses and no simulator
module (docs/ARCHITECTURE.md, "Import layering").
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str,
    exports: Dict[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of the package named *package*.

    *exports* maps each module, relative to the package (``".api"``), to
    the names the package re-exports from it; *submodules* names the
    package's modules that it exports as attributes.  A name is imported
    on its first access and then bound on the package, so every later
    read is a plain attribute read.  Any other name raises
    :class:`AttributeError`, as a missing module attribute does.
    """
    namespace = vars(sys.modules[package])
    origin = {name: module for module, names in exports.items() for name in names}
    submodules = frozenset(submodules)

    def __getattr__(name: str) -> Any:
        if name in submodules:
            value = import_module(f".{name}", package)
        elif name in origin:
            value = getattr(import_module(origin[name], package), name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin) | submodules)

    return __getattr__, __dir__
