"""Examples guard: every name an example imports from ``repro`` exists.

The examples simulate thousands of sessions, so tier-1 does not run them;
a deleted or renamed API would otherwise break them silently.  Each
``examples/*.py`` is parsed with :mod:`ast`, never executed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Iterator, Optional, Tuple

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _repro_imports(path: Path) -> Iterator[Tuple[str, Optional[str]]]:
    """(module, name) per ``from repro… import name``; name None for ``import``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module is not None and _is_repro(node.module):
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    yield alias.name, None


def _resolves(module_name: str, name: Optional[str]) -> bool:
    """Does ``from module_name import name`` (or ``import module_name``) work?"""
    try:
        module = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return False
    if name is None or hasattr(module, name):
        return True
    try:  # a submodule not bound in its package's namespace
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_every_repro_import_exists(path):
    imports = list(_repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    missing = [
        f"{module}:{name}" if name else module
        for module, name in imports
        if not _resolves(module, name)
    ]
    assert not missing, f"{path.name} imports names repro no longer has: {missing}"
