"""Correctness tooling: ncache-lint + the buffer-lifecycle sanitizer.

The paper's whole argument rests on invariants that ordinary tests do not
see: regular data moves by *logical* copying (key-sized) while only
metadata is physically copied (§3.1/§3.3); sk_buff chains follow a strict
ownership lifecycle (cache-in → substitute/remap → evict, §3.4); and the
simulator is deterministic (all randomness flows through
:mod:`repro.sim.rng`, never wall-clock).  This package enforces them:

* **ncache-lint** (:mod:`repro.check.linter`, ``python -m repro.check``) —
  an AST-based, one-file-at-a-time lint framework with repro-specific
  rules (``no-wallclock``, ``no-global-random``, ``copy-discipline``,
  ``trace-naming``, ``engine-discipline``, ``cache-discipline``,
  ``budget-lease``; the registry is :data:`repro.check.rules.RULES`)
  and per-line suppression via ``# check: ignore[rule-id]`` comments
  that ``stale-ignore`` keeps live;
* **buffer sanitizer** (:mod:`repro.check.sanitizer`) — a runtime
  lifecycle tracker (the simulation analog of ASan/LSan) that tags every
  chunk / network buffer with an ownership state and reports leaks,
  double-substitution, use-after-evict and FS-cache/NCache aliasing.

Each invariant is held by one mechanism (DESIGN.md §6.1): what a single
file can show is a lint rule, the buffer lifecycle is the sanitizer, and
hash-order independence is observed by running the simulation under two
hash seeds (``tests/test_hashseed_determinism.py``), not modelled.  The
sanitizer is enabled for every test by ``tests/conftest.py`` and can be
switched on for any run with ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

from typing import Any

from .diagnostics import Diagnostic
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
    "Diagnostic",
    "BufferSanitizer",
    "ChunkState",
    "SanitizerError",
    "Violation",
    "ViolationKind",
    "active",
    "disable",
    "enable",
    "sanitize",
    "lint_paths",
    "all_rules",
]


def __getattr__(name: str) -> Any:
    # The linter machinery is only needed by the CLI and its tests; load
    # it lazily so the sanitizer hooks in the hot simulation paths never
    # pay for an ast/tokenize import.
    if name in ("lint_paths", "lint_file", "LintResult"):
        from . import linter

        return getattr(linter, name)
    if name in ("all_rules", "RULES"):
        from . import rules

        return getattr(rules, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
