"""Public import path for the execution-options leaf.

The definitions live in :mod:`repro._execution` (an import leaf at the
package root, so ``repro.obs.manifest`` can use them while the package
graph is still initializing); this shim is the supported import path.
"""

from __future__ import annotations

from .._execution import EXECUTION_FIELD_NAMES, ExecutionOptions

__all__ = ["EXECUTION_FIELD_NAMES", "ExecutionOptions"]
