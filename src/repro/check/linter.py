"""ncache-lint driver: walk files, run rules, apply suppressions.

The driver is filesystem-only (no imports of linted code).  Suppressed
diagnostics are kept — with ``suppressed=True`` — so reports can show
how many annotations the tree carries; only *unsuppressed* diagnostics
make :func:`LintResult.ok` false.
"""

from __future__ import annotations

import ast
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic, Suppressions, parse_suppressions
from .rules import Rule, all_rules, make_context


@dataclass
class LintResult:
    """Outcome of one lint run."""

    files_checked: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def active(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if not d.suppressed]

    @property
    def suppressed(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.suppressed]

    @property
    def ok(self) -> bool:
        return not self.active

    def by_rule(self) -> Dict[str, List[Diagnostic]]:
        out: Dict[str, List[Diagnostic]] = {}
        for diag in self.diagnostics:
            out.setdefault(diag.rule, []).append(diag)
        return out


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
    seen = set()
    unique = []
    for path in out:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def stale_ignore_diagnostics(display: str, suppressions: Suppressions,
                             run_ids: Iterable[str],
                             used: Iterable[Tuple[int, str]]
                             ) -> List[Diagnostic]:
    """``stale-ignore`` diagnostics for suppressions that silenced nothing.

    Judged per rule id, and only for ids in ``run_ids`` (a suppression
    for a rule that did not run this invocation cannot be proven stale).
    ``*`` is never judged: it is a deliberate blanket.  ``used`` holds
    the ``(line, rule)`` pairs that actually suppressed a diagnostic.
    """
    used_set = set(used)
    ran = set(run_ids)
    out: List[Diagnostic] = []
    for line, ids in sorted(suppressions.by_line.items()):
        for rule_id in sorted(ids):
            if rule_id == "*" or rule_id not in ran:
                continue
            if (line, rule_id) in used_set:
                continue
            out.append(Diagnostic(
                rule="stale-ignore", path=display, line=line, col=1,
                message=(f"suppression 'check: ignore[{rule_id}]' no "
                         f"longer matches any diagnostic on this line — "
                         f"delete it (or rerun without --no-stale-ignores "
                         f"after confirming)"),
                suppressed=suppressions.covers("stale-ignore", line)))
    return out


def lint_file(path: Path, rules: Optional[Sequence[Rule]] = None,
              stale_ignores: bool = True) -> List[Diagnostic]:
    """Run every rule over one file, marking suppressed diagnostics."""
    rules = list(rules) if rules is not None else all_rules()
    source = path.read_text(encoding="utf-8")
    display = str(path)
    posix = path.resolve().as_posix()
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return [Diagnostic(rule="syntax", path=display,
                           line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                           message=f"syntax error: {exc.msg}")]
    suppressions = parse_suppressions(source)
    ctx = make_context(posix, display, source, tree)
    diagnostics: List[Diagnostic] = []
    used: List[Tuple[int, str]] = []
    for rule in rules:
        for diag in rule.check(ctx):
            diag.suppressed = suppressions.covers(diag.rule, diag.line)
            if diag.suppressed:
                used.append((diag.line, diag.rule))
            diagnostics.append(diag)
    if stale_ignores:
        diagnostics.extend(stale_ignore_diagnostics(
            display, suppressions, (r.id for r in rules), used))
    diagnostics.sort(key=lambda d: (d.line, d.col, d.rule))
    return diagnostics


def changed_files(cwd: Path) -> Optional[List[Path]]:
    """Python files modified per ``git status`` in the repository that
    contains ``cwd`` (None if git fails)."""
    def git(*args: str) -> subprocess.CompletedProcess[str]:
        return subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            timeout=30, check=True)

    try:
        # Porcelain paths are relative to the repository root, not to
        # the directory git ran in.
        root = Path(git("rev-parse", "--show-toplevel").stdout.strip())
        status = git("status", "--porcelain").stdout
    except (OSError, subprocess.SubprocessError):
        return None
    out: List[Path] = []
    for line in status.splitlines():
        if len(line) < 4:
            continue
        name = line[3:].split(" -> ")[-1].strip().strip('"')
        if name.endswith(".py"):
            candidate = root / name
            if candidate.exists():
                out.append(candidate)
    return out


def lint_paths(paths: Iterable[Path],
               rules: Optional[Sequence[Rule]] = None,
               only: Optional[Iterable[Path]] = None,
               stale_ignores: bool = True) -> LintResult:
    """Lint every python file under ``paths``.

    ``only`` restricts the run to files in that set (the ``--changed``
    mode); directories in ``paths`` still define the lintable universe so
    changed files outside it (e.g. tests) are not linted by accident.
    ``stale_ignores`` controls the unused-suppression check; it is
    force-disabled when ``rules`` filters the run, since a partial run
    cannot prove a suppression unused.
    """
    result = LintResult()
    if rules is not None:
        stale_ignores = False
    restrict = None
    if only is not None:
        restrict = {p.resolve() for p in only}
    for path in iter_python_files(list(paths)):
        if restrict is not None and path.resolve() not in restrict:
            continue
        result.files_checked += 1
        result.diagnostics.extend(
            lint_file(path, rules, stale_ignores=stale_ignores))
    return result
