"""``python -m repro.check`` — lint the tree, print a rule-by-rule report.

Runs the per-file rules (:mod:`repro.check.rules`) over each file
independently.

Exit codes: 0 when no unsuppressed diagnostics, 1 when the lint found
violations, 2 for usage errors.  ``--json`` emits a machine-readable
report (used by CI annotations); ``--changed`` lints only files that
are modified per ``git status`` (used by the pre-commit hook).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .linter import LintResult, changed_files, lint_paths
from .rules import RULES, all_rules


def _default_roots() -> List[Path]:
    """Lint ``src/repro`` relative to the repo root, wherever we run."""
    here = Path.cwd()
    for base in (here, *here.parents):
        candidate = base / "src" / "repro"
        if candidate.is_dir():
            return [candidate]
    # Installed-package fallback: lint the package directory itself.
    return [Path(__file__).resolve().parent.parent]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``python -m repro.check`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="ncache-lint: enforce the repo's paper invariants "
                    "(copy discipline, determinism, trace naming, engine "
                    "discipline), one file at a time.")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    parser.add_argument("--changed", action="store_true",
                        help="lint only files modified per git status")
    parser.add_argument("--rules", type=str, default="",
                        help="comma-separated rule ids to run "
                             "(default: all; disables the stale-ignore "
                             "check)")
    parser.add_argument("--no-stale-ignores", action="store_true",
                        help="skip the unused-suppression check")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule and the invariant it "
                             "guards, then exit")
    return parser


def _print_report(result: LintResult) -> None:
    print(f"ncache-lint: checked {result.files_checked} files")
    by_rule = result.by_rule()
    for rule in all_rules():
        diags = by_rule.get(rule.id, [])
        live = sum(1 for d in diags if not d.suppressed)
        quiet = len(diags) - live
        note = f" ({quiet} suppressed)" if quiet else ""
        print(f"  {rule.id:<18} {live} issue(s){note}")
    for diag in result.active:
        print(diag.format())
    if result.ok:
        print("OK: zero unsuppressed diagnostics")
    else:
        print(f"FAIL: {len(result.active)} unsuppressed diagnostic(s)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code (0 = clean)."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}: {rule.summary}")
            print(f"    guards: {rule.invariant}")
        return 0

    rules = None
    if args.rules:
        wanted = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in wanted if r not in RULES]
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")
        rules = [RULES[r] for r in wanted]

    roots = list(args.paths) if args.paths else _default_roots()
    missing = [p for p in roots if not p.exists()]
    if missing:
        parser.error(f"no such path: {missing[0]}")

    only = None
    if args.changed:
        only = changed_files(Path.cwd())
        if only is None:
            print("warning: git unavailable; linting everything",
                  file=sys.stderr)
        elif not only:
            print("ncache-lint: no changed python files")
            return 0

    result = lint_paths(roots, rules=rules, only=only,
                        stale_ignores=not args.no_stale_ignores)

    if args.json:
        print(json.dumps({
            "files_checked": result.files_checked,
            "ok": result.ok,
            "diagnostics": [d.to_json() for d in result.diagnostics],
        }, indent=2))
    else:
        _print_report(result)
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
