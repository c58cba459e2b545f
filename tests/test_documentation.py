"""Documentation and packaging hygiene, enforced by the test suite."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro
from test_tree_invariants import RULES

PACKAGE_ROOT = Path(repro.__file__).parent
REPO_ROOT = PACKAGE_ROOT.parent.parent
MODULES = sorted(p for p in PACKAGE_ROOT.rglob("*.py"))


class TestDocstrings:
    @pytest.mark.parametrize("path", MODULES,
                             ids=lambda p: str(p.relative_to(PACKAGE_ROOT)))
    def test_every_module_has_a_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path} lacks a module docstring"

    def test_every_public_class_documented(self):
        undocumented = []
        for path in MODULES:
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) \
                        and not node.name.startswith("_") \
                        and not ast.get_docstring(node):
                    undocumented.append(f"{path.name}:{node.name}")
        assert undocumented == []

    def test_public_functions_documented(self):
        undocumented = []
        for path in MODULES:
            tree = ast.parse(path.read_text())
            for node in tree.body:  # module-level functions only
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not node.name.startswith("_") \
                        and not ast.get_docstring(node):
                    undocumented.append(f"{path.name}:{node.name}")
        assert undocumented == []


class TestPackaging:
    def test_all_subpackages_importable(self):
        for name in repro.__all__:
            importlib.import_module(f"repro.{name}")

    def test_version_defined(self):
        assert repro.__version__

    def test_required_docs_exist(self):
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO_ROOT / doc).exists(), doc

    def test_design_has_experiment_index(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for token in ("Table 1", "Table 2", "Fig. 4", "Fig. 5", "Fig. 6",
                      "Fig. 7"):
            assert token in text

    def test_experiments_md_covers_every_figure(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for token in ("Table 1", "Table 2", "Figure 4", "Figure 5",
                      "Figure 6", "Figure 7", "A1", "A7"):
            assert token in text

    def test_readme_names_every_lint_rule(self):
        text = (REPO_ROOT / "README.md").read_text()
        missing = [rule_id for rule_id in RULES if f"`{rule_id}`" not in text]
        assert not missing, missing


class TestChangesLog:
    """A CHANGES.md entry is a paragraph; the detail lives in the commit."""

    CAP = 1500
    FIRST_CAPPED_PR = 1
    ENTRY = re.compile(r"(?:- )?PR (\d+)\b")

    def test_entries_from_the_cap_on_fit_it(self):
        lines = (REPO_ROOT / "CHANGES.md").read_text().splitlines()
        entries = [(int(match.group(1)), len(line)) for line in lines
                   if (match := self.ENTRY.match(line))]
        assert max(number for number, _ in entries) >= self.FIRST_CAPPED_PR
        assert [(number, size) for number, size in entries
                if number >= self.FIRST_CAPPED_PR and size > self.CAP] == []


class TestNamesInDocsExist:
    """A doc may not name code that is gone."""

    DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
            ".claude/skills/verify/SKILL.md")
    #: ``repro.x.y`` anywhere, and `` `figure4.cells` ``-style short
    #: names of the experiment modules inside inline code.
    DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
    SHORT = re.compile(r"`(?:experiments\.)?((?:%s)\.[A-Za-z_]\w*)" % "|".join(
        path.stem for path in (PACKAGE_ROOT / "experiments").glob("[a-z]*.py")))

    @staticmethod
    def resolves(name):
        parts = name.split(".")
        for split in range(len(parts), 0, -1):
            try:
                found = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            try:
                for attr in parts[split:]:
                    found = getattr(found, attr)
            except AttributeError:
                return False
            return True
        return False

    @pytest.mark.parametrize("doc", DOCS)
    def test_every_dotted_name_resolves_by_import(self, doc):
        text = (REPO_ROOT / doc).read_text()
        names = set(self.DOTTED.findall(text)) | {
            f"repro.experiments.{short}"
            for short in self.SHORT.findall(text)}
        assert len(names) >= 5, doc
        assert sorted(n for n in names if not self.resolves(n)) == []

    def test_a_deleted_name_is_caught(self):
        assert self.resolves("repro.experiments.common.run_cell")
        assert not self.resolves("repro.experiments.figure4.measure_point")
        assert self.SHORT.findall("see `figure4.measure_point`") \
            == ["figure4.measure_point"]


class TestExamples:
    EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))

    def test_examples_exist(self):
        assert len(self.EXAMPLES) >= 4  # deliverable: >=3 plus quickstart

    @pytest.mark.parametrize("path", EXAMPLES if (EXAMPLES :=
                             sorted((REPO_ROOT / "examples").glob("*.py")))
                             else [], ids=lambda p: p.name)
    def test_example_parses_and_has_main(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
        names = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
        assert "main" in names, f"{path.name} lacks a main()"

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_imports_resolve(self, path):
        """Compile and import-check each example without running main()."""
        import subprocess
        import sys

        code = (f"import ast, sys; tree = ast.parse(open({str(path)!r})"
                ".read());"
                "imports = [n for n in ast.walk(tree) if isinstance(n, "
                "(ast.Import, ast.ImportFrom))];"
                "exec(compile(ast.Module(body=imports, type_ignores=[]), "
                f"{str(path)!r}, 'exec'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
