"""Diagnostics, suppression parsing, and CLI exit codes."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.check.cli import main as check_main
from repro.check.diagnostics import (
    Diagnostic,
    Suppressions,
    parse_suppressions,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


class TestDiagnostic:
    def test_format_plain(self):
        diag = Diagnostic(rule="no-wallclock", path="a.py", line=3, col=7,
                          message="don't")
        assert diag.format() == "a.py:3:7: [no-wallclock] don't"

    def test_format_suppressed(self):
        diag = Diagnostic(rule="r", path="a.py", line=1, col=1,
                          message="m", suppressed=True)
        assert diag.format().endswith("(suppressed)")

    def test_to_json_roundtrip(self):
        diag = Diagnostic(rule="r", path="a.py", line=2, col=4,
                          message="m")
        data = diag.to_json()
        assert data == {"rule": "r", "path": "a.py", "line": 2,
                        "col": 4, "message": "m", "suppressed": False}
        assert json.loads(json.dumps(data)) == data


class TestParseSuppressions:
    def test_single_rule(self):
        sup = parse_suppressions("x = 1  # check: ignore[no-wallclock]\n")
        assert sup.covers("no-wallclock", 1)
        assert not sup.covers("no-wallclock", 2)
        assert not sup.covers("copy-discipline", 1)

    def test_multiple_rules_and_justification(self):
        sup = parse_suppressions(
            "y()  # check: ignore[rule-a, rule-b] -- because reasons\n")
        assert sup.covers("rule-a", 1)
        assert sup.covers("rule-b", 1)
        assert not sup.covers("rule-c", 1)

    def test_star_covers_everything(self):
        sup = parse_suppressions("z()  # check: ignore[*]\n")
        assert sup.covers("anything-at-all", 1)

    def test_line_mapping(self):
        sup = parse_suppressions(
            "a = 1\nb = 2  # check: ignore[rule-x]\nc = 3\n")
        assert not sup.covers("rule-x", 1)
        assert sup.covers("rule-x", 2)
        assert not sup.covers("rule-x", 3)

    def test_unterminated_source_does_not_raise(self):
        sup = parse_suppressions("x = (\n")
        assert sup.by_line == {}

    def test_empty_suppressions_object(self):
        assert not Suppressions().covers("r", 1)


def git_commit_all(repo):
    """Make ``repo`` a git repository with everything in it committed."""
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                    "commit", "-qm", "x"], cwd=repo, check=True)


def write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestCliExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "ok.py", "x = 1\n")
        assert check_main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", """
            import random
            x = random.random()
        """)
        assert check_main([str(path)]) == 1
        assert "no-global-random" in capsys.readouterr().out

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "syn.py", "def broken(:\n")
        assert check_main([str(path)]) == 1
        assert "[syntax]" in capsys.readouterr().out

    def test_bad_path_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            check_main([str(tmp_path / "missing")])
        assert err.value.code == 2

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "ok.py", "x = 1\n")
        with pytest.raises(SystemExit) as err:
            check_main(["--rules", "nonsense", str(path)])
        assert err.value.code == 2

    def test_json_report_shape(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", """
            import random
            x = random.random()
        """)
        assert check_main(["--json", str(path)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["files_checked"] == 1
        assert any(d["rule"] == "no-global-random"
                   for d in data["diagnostics"])

    def test_changed_without_git_warns_and_lints(self, tmp_path, capsys,
                                                 monkeypatch):
        path = write(tmp_path, "ok.py", "x = 1\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nogit"))
        assert check_main(["--changed", str(path)]) == 0
        assert "git unavailable" in capsys.readouterr().err

    def test_changed_with_no_modified_files(self, tmp_path, capsys,
                                            monkeypatch):
        path = write(tmp_path, "ok.py", "x = 1\n")
        monkeypatch.chdir(tmp_path)
        git_commit_all(tmp_path)
        assert check_main(["--changed", str(path)]) == 0
        assert "no changed python files" in capsys.readouterr().out

    def test_changed_from_a_subdirectory(self, tmp_path, capsys,
                                         monkeypatch):
        # git reports paths relative to the repository root, wherever
        # it runs: a modified file must be found from a subdirectory.
        path = write(tmp_path, "pkg/mod.py", "x = 1\n")
        git_commit_all(tmp_path)
        path.write_text("import random\n", encoding="utf-8")
        monkeypatch.chdir(path.parent)
        assert check_main(["--changed", str(path.parent)]) == 1
        out = capsys.readouterr().out
        assert "checked 1 files" in out and "no-global-random" in out


class TestBrokenPipe:
    def test_reader_closing_stdout_early_is_quiet(self, tmp_path):
        # Enough diagnostics to overfill the pipe, so the linter is
        # still writing when the reader (`| head`) goes away.
        path = write(tmp_path, "noisy.py", "import random\n" * 2000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.check", "--json", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PATH": "/usr/bin:/bin"})
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        proc.wait(timeout=60)
        assert "Traceback" not in stderr and "BrokenPipe" not in stderr


class TestCliStaleIgnores:
    def test_stale_suppression_fails_the_run(self, tmp_path, capsys):
        path = write(tmp_path, "mod.py",
                     "x = 1  # check: ignore[no-wallclock] -- stale\n")
        assert check_main([str(path)]) == 1
        assert "stale-ignore" in capsys.readouterr().out

    def test_no_stale_ignores_escape_hatch(self, tmp_path):
        path = write(tmp_path, "mod.py",
                     "x = 1  # check: ignore[no-wallclock] -- stale\n")
        assert check_main(["--no-stale-ignores", str(path)]) == 0

    def test_used_suppression_is_not_stale(self, tmp_path):
        path = write(tmp_path, "mod.py", """
            import random  # check: ignore[no-global-random] -- fixture
            x = random.random()  # check: ignore[no-global-random] -- fixture
        """)
        assert check_main([str(path)]) == 0

    def test_star_is_never_stale(self, tmp_path):
        path = write(tmp_path, "mod.py",
                     "x = 1  # check: ignore[*] -- blanket\n")
        assert check_main([str(path)]) == 0

    def test_rules_filter_disables_stale_check(self, tmp_path):
        path = write(tmp_path, "mod.py",
                     "x = 1  # check: ignore[no-wallclock] -- stale\n")
        assert check_main(["--rules", "no-wallclock", str(path)]) == 0
