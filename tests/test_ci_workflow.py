"""Every GitHub Actions workflow is valid YAML with at least one job.

A workflow file that fails to parse makes GitHub run none of its jobs,
so an unquoted ``name: a: b`` would silently switch CI off.  The tier-1
matrix keeps an interpreter on each side of Python 3.12's SHA-256
module rename.
"""

from __future__ import annotations

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOWS = sorted(
    (Path(__file__).resolve().parents[1] / ".github" / "workflows").glob("*.yml"))


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_workflow_parses(path):
    doc = yaml.safe_load(path.read_text())
    assert isinstance(doc, dict) and doc.get("jobs"), path.name
    for job_id, job in doc["jobs"].items():
        for step in job.get("steps", []):
            assert isinstance(step.get("name", ""), str), (job_id, step)
            # The tree's invariants are tests; there is no linter to run.
            assert "repro.check" not in step.get("run", ""), (job_id, step)
            # The sanitizer has one mode, armed in every test: no step
            # runs a second, stricter pass.
            assert "REPRO_SANITIZE" not in step.get("run", ""), (job_id, step)
            assert "REPRO_SANITIZE" not in step.get("env", {}), (job_id, step)


def test_tier1_runs_both_builtin_sha256_branches():
    """``repro.sim.rng`` takes SHA-256 from ``_sha256`` on 3.10-3.11 and
    from ``_sha2`` on 3.12 and later; only the tier-1 matrix runs the
    contract test (``tests/test_stdlib_only.py``) on each branch."""
    doc = yaml.safe_load(
        (Path(__file__).resolve().parents[1] / ".github" / "workflows"
         / "ci.yml").read_text())
    versions = {str(v) for v in
                doc["jobs"]["test"]["strategy"]["matrix"]["python-version"]}
    assert versions & {"3.10", "3.11"}, versions
    assert "3.12" in versions, versions


def test_integrity_search_job_runs_the_search_and_every_mutant():
    """The wide search, the store oracle's wide profile and the mutant
    matrix run in CI, the search step names what it covers (a stall and
    a leftover reference cycle are kills), and the matrix's table names
    exactly the patches in ``tests/mutants``."""
    import integrity_search
    from hypothesis import settings

    root = Path(__file__).resolve().parents[1]
    doc = yaml.safe_load((root / ".github" / "workflows" / "ci.yml")
                         .read_text())
    steps = doc["jobs"]["integrity-search"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "tests/integrity_search.py --seeds 64" in runs
    wide = next(step["name"] for step in steps
                if "--seeds 64" in step.get("run", "")
                and "--mutants" not in step["run"])
    assert f"LRU and {len(integrity_search.ORDERS)} victim orders" in wide
    assert "a stall is a kill" in wide
    assert "a reference cycle left" in wide
    assert "tests/integrity_search.py --mutants" in runs
    assert "pytest tests/test_store_oracle.py --hypothesis-profile=wide" \
        in runs
    assert settings.get_profile("wide").max_examples \
        > settings.get_profile("default").max_examples
    patches = {p.stem for p in (root / "tests" / "mutants").glob("*.patch")}
    assert patches == set(integrity_search.MUTANTS)
    killers = {name: k for name, (_, k) in integrity_search.MUTANTS.items()
               if k}
    assert set(killers) == {"no-generation-bump", "rx-no-expand-segments",
                            "wake-bypasses-push", "warm-run-sheds-hottest"}
    for killer in killers.values():
        assert (root / killer.partition("::")[0]).is_file(), killer


def test_sweep_identity_job_diffs_whole_sweeps_at_two_worker_counts():
    """DESIGN.md §7's lock on ``--workers``, with no ``[model-change]``
    override: every ``--out`` file and table2's trace, at 1 and 2."""
    doc = yaml.safe_load(
        (Path(__file__).resolve().parents[1] / ".github" / "workflows"
         / "ci.yml").read_text())
    step, = [step for step in doc["jobs"]["sweep-identity"]["steps"]
             if "--workers 1" in step.get("run", "")]
    run = " ".join(step["run"].replace("\\\n", " ").split())
    for part in ("$SWEEP_SUBSET --workers 1 --out workers-1",
                 "$SWEEP_SUBSET --workers 2 --out workers-2",
                 "diff -r workers-1 workers-2",
                 "table2 --workers 1 --trace-out table2-workers-1.trace.jsonl",
                 "table2 --workers 2 --trace-out table2-workers-2.trace.jsonl",
                 "cmp table2-workers-1.trace.jsonl table2-workers-2"):
        assert part in run, part
    assert "model-change" not in run
