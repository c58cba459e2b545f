"""Runtime correctness tooling: the buffer-lifecycle sanitizer.

sk_buff chains follow a strict ownership lifecycle (cache-in →
substitute/remap → evict, §3.4) that no single test sees.  The
sanitizer (:mod:`repro.check.sanitizer`, the simulation analog of
ASan/LSan) tags every chunk / network buffer with an ownership state and
reports leaks, double-substitution, use-after-evict and FS-cache/NCache
aliasing.

Each invariant is held by one mechanism (DESIGN.md §6.1): what the
source tree can show is an AST check in
``tests/test_tree_invariants.py``, the buffer lifecycle is the
sanitizer, and hash-order independence is observed by running the
simulation under two hash seeds (``tests/test_hashseed_determinism.py``),
not modelled.  The sanitizer is enabled for every test by
``tests/conftest.py`` and can be switched on for any run with
``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

from .sanitizer import (
    BufferSanitizer,
    ChunkState,
    SanitizerError,
    Violation,
    ViolationKind,
    active,
    disable,
    enable,
    sanitize,
)

__all__ = [
    "BufferSanitizer",
    "ChunkState",
    "SanitizerError",
    "Violation",
    "ViolationKind",
    "active",
    "disable",
    "enable",
    "sanitize",
]
