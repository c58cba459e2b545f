"""Every GitHub Actions workflow is valid YAML with at least one job.

A workflow file that fails to parse makes GitHub run none of its jobs,
so an unquoted ``name: a: b`` would silently switch CI off.
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
