"""ncache-lint: every rule fires on a violating fixture and stays quiet
on conforming code; suppressions, the driver, and the CLI behave."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.check import vocabulary
from repro.check.cli import main as check_main
from repro.check.linter import lint_file, lint_paths
from repro.check.rules import RULES, all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


def lint_source(tmp_path, source, name="mod.py", rules=None):
    """Write ``source`` under tmp_path and lint it."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path, rules=rules)


def active(diags, rule=None):
    return [d for d in diags if not d.suppressed
            and (rule is None or d.rule == rule)]


class TestNoWallclock:
    def test_time_import_flagged(self, tmp_path):
        diags = lint_source(tmp_path, """\
            import time
        """)
        assert active(diags, "no-wallclock")

    def test_wallclock_call_flagged(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def f(time):
                return time.perf_counter()
        """)
        found = active(diags, "no-wallclock")
        assert found and "perf_counter" in found[0].message

    def test_type_checking_import_exempt(self, tmp_path):
        diags = lint_source(tmp_path, """\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                import datetime
        """)
        assert not active(diags, "no-wallclock")


class TestNoGlobalRandom:
    def test_random_import_flagged(self, tmp_path):
        diags = lint_source(tmp_path, """\
            import random
        """)
        assert active(diags, "no-global-random")

    def test_module_level_call_flagged(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def roll(random):
                return random.randrange(6)
        """)
        assert active(diags, "no-global-random")

    def test_type_checking_import_exempt(self, tmp_path):
        # The pattern workloads/specsfs.py uses for type-only annotations.
        diags = lint_source(tmp_path, """\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                import random

            def roll(rng: "random.Random") -> int:
                return rng.randrange(6)
        """)
        assert not active(diags, "no-global-random")

    def test_rng_module_itself_exempt(self, tmp_path):
        diags = lint_source(tmp_path, """\
            import random
        """, name="repro/sim/rng.py")
        assert not active(diags, "no-global-random")


class TestCopyDiscipline:
    def test_physical_copy_flagged(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def serve(payload):
                return payload.physical_copy()
        """)
        assert active(diags, "copy-discipline")

    def test_bytes_call_flagged(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def serve(payload):
                return bytes(payload)
        """)
        assert active(diags, "copy-discipline")

    def test_bytes_of_constant_not_flagged(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def pad():
                return bytes(16)
        """)
        assert not active(diags, "copy-discipline")

    def test_accountant_route_exempt(self, tmp_path):
        # acct.physical_copy is the charged CopyAccountant route, not a
        # rogue materialization.
        diags = lint_source(tmp_path, """\
            def serve(self, n):
                yield from self.host.acct.physical_copy(n, "fill")
        """)
        assert not active(diags, "copy-discipline")

    def test_copy_model_path_exempt(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def move(payload):
                return payload.physical_copy()
        """, name="repro/copymodel/mod.py")
        assert not active(diags, "copy-discipline")


class TestTraceNaming:
    def test_bad_shape_flagged(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def f(bus):
                bus.emit("Bad Name")
        """)
        assert active(diags, "trace-naming")

    def test_unknown_subsystem_flagged(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def f(counters):
                counters.add("frobnicator.hit")
        """)
        found = active(diags, "trace-naming")
        assert found and "frobnicator" in found[0].message

    def test_declared_name_ok(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def f(bus, registry):
                bus.emit("ncache.evict", dirty=True)
                registry.counter("udp.dropped")
        """)
        assert not active(diags, "trace-naming")

    def test_fstring_needs_static_prefix(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def f(bus, kind):
                bus.emit(f"{kind}.done")
        """)
        assert active(diags, "trace-naming")

    def test_fstring_with_declared_prefix_ok(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def f(counters, category):
                counters.add(f"cpu.{category}")
        """)
        assert not active(diags, "trace-naming")


class TestEngineDiscipline:
    BLOCKING_HELPER = """\
        def dump(path, text):
            with open(path, "w") as fh:
                fh.write(text)
    """

    def test_blocking_call_in_generator_flagged(self, tmp_path):
        diags = lint_source(tmp_path, """\
            import time  # check: ignore[no-wallclock]

            def proc(sim):
                time.sleep(1)
                yield sim.timeout(1)
        """)
        assert active(diags, "engine-discipline")

    def test_reentrant_run_flagged(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def proc(self):
                yield self.sim.timeout(1)
                self.sim.run()
        """)
        found = active(diags, "engine-discipline")
        assert found and "re-entrant" in found[0].message

    def test_plain_function_not_flagged(self, tmp_path):
        # Not a generator: driving the loop from outside is the normal
        # top-level pattern, not a violation.
        diags = lint_source(tmp_path, """\
            def drive(sim):
                sim.run()
        """)
        assert not active(diags, "engine-discipline")

    def test_blocking_call_in_plain_function_flagged(self, tmp_path):
        # An engine process could call the helper, so the call is banned
        # from the module, not just from generator bodies.
        found = active(lint_source(tmp_path, self.BLOCKING_HELPER),
                       "engine-discipline")
        assert found and "open()" in found[0].message

    def test_blocking_call_under_allow_listed_path_ok(self, tmp_path):
        for name in ("repro/obs/trace.py", "repro/experiments/mod.py",
                     "repro/check/mod.py"):
            diags = lint_source(tmp_path, self.BLOCKING_HELPER, name=name)
            assert not active(diags, "engine-discipline"), name

    def test_allow_listed_path_still_guards_its_processes(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def proc(sim, path):
                open(path)
                yield sim.timeout(1)
        """, name="repro/experiments/mod.py")
        assert active(diags, "engine-discipline")


class TestCacheDiscipline:
    VIOLATION = """\
        from collections import OrderedDict

        class MiniLru:
            def __init__(self):
                self.order = OrderedDict()

            def touch(self, k):
                self.order.move_to_end(k)
    """

    def test_ordereddict_recency_class_flagged(self, tmp_path):
        found = active(lint_source(tmp_path, self.VIOLATION),
                       "cache-discipline")
        assert found and "MiniLru" in found[0].message

    def test_popitem_also_counts_as_recency(self, tmp_path):
        diags = lint_source(tmp_path, """\
            from collections import OrderedDict

            class Fifo:
                def __init__(self):
                    self.q = OrderedDict()

                def pop_oldest(self):
                    return self.q.popitem(last=False)
        """)
        assert active(diags, "cache-discipline")

    def test_plain_ordereddict_without_recency_calls_ok(self, tmp_path):
        # An insertion-ordered map that never reorders is just a dict.
        diags = lint_source(tmp_path, """\
            from collections import OrderedDict

            class Registry:
                def __init__(self):
                    self.items = OrderedDict()

                def add(self, k, v):
                    self.items[k] = v
        """)
        assert not active(diags, "cache-discipline")

    def test_recency_calls_on_non_ordereddict_ok(self, tmp_path):
        diags = lint_source(tmp_path, """\
            class Wrapper:
                def __init__(self, inner):
                    self.inner = inner

                def touch(self, k):
                    self.inner.move_to_end(k)
        """)
        assert not active(diags, "cache-discipline")

    def test_kernel_paths_exempt(self, tmp_path):
        diags = lint_source(tmp_path, self.VIOLATION,
                            name="repro/cache/policy.py")
        assert not active(diags, "cache-discipline")

    def test_suppression_honored(self, tmp_path):
        src = ("from collections import OrderedDict\n"
               "\n"
               "class ReplayCache:\n"
               "    def __init__(self):\n"
               "        self.entries = OrderedDict()  "
               "# check: ignore[cache-discipline] -- FIFO replay\n"
               "\n"
               "    def expire(self):\n"
               "        self.entries.popitem(last=False)\n")
        diags = lint_source(tmp_path, src)
        flagged = [d for d in diags if d.rule == "cache-discipline"]
        assert flagged and all(d.suppressed for d in flagged)


class TestBudgetLease:
    VIOLATION = """\
        def squeeze(cache):
            cache.resize(1024)
    """

    def test_direct_resize_flagged(self, tmp_path):
        found = active(lint_source(tmp_path, self.VIOLATION),
                       "budget-lease")
        assert found and ".resize()" in found[0].message

    def test_every_direct_call_flagged(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def rob(donor, recipient):
                victims = donor.resize(donor.capacity_bytes - 4096)
                recipient.resize(recipient.capacity_bytes + 4096)
                return victims
        """)
        assert len(active(diags, "budget-lease")) == 2

    def test_arbiter_seam_paths_exempt(self, tmp_path):
        for name in ("repro/cache/arbiter.py", "repro/core/store.py",
                     "repro/fs/buffer_cache.py"):
            diags = lint_source(tmp_path, self.VIOLATION, name=name)
            assert not active(diags, "budget-lease"), name

    def test_bound_method_reference_without_call_ok(self, tmp_path):
        # Registering a lease hands the arbiter the resize callable —
        # a reference, not a call.
        diags = lint_source(tmp_path, """\
            def register(arbiter, cache, metrics):
                arbiter.register("bcache", 4096, cache.resize, metrics)
        """)
        assert not active(diags, "budget-lease")

    def test_unrelated_resize_name_still_flagged(self, tmp_path):
        # The rule is name-based by design: any .resize() call outside
        # the seam should route through a lease or be renamed.
        diags = lint_source(tmp_path, """\
            def rescale(image):
                image.resize(640)
        """)
        assert active(diags, "budget-lease")

    def test_suppression_honored(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def rescale(image):
                image.resize(640)  # check: ignore[budget-lease] -- PIL
        """)
        flagged = [d for d in diags if d.rule == "budget-lease"]
        assert flagged and all(d.suppressed for d in flagged)


class TestSuppressions:
    def test_inline_ignore_marks_suppressed(self, tmp_path):
        diags = lint_source(tmp_path, """\
            def serve(payload):
                return payload.physical_copy()  # check: ignore[copy-discipline] -- test
        """)
        assert not active(diags, "copy-discipline")
        suppressed = [d for d in diags if d.suppressed]
        assert len(suppressed) == 1

    def test_star_ignore_covers_every_rule(self, tmp_path):
        diags = lint_source(tmp_path, """\
            import random  # check: ignore[*]
        """)
        assert not active(diags)

    def test_unrelated_ignore_does_not_cover(self, tmp_path):
        diags = lint_source(tmp_path, """\
            import random  # check: ignore[no-wallclock]
        """)
        assert active(diags, "no-global-random")


class TestDriver:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        diags = lint_source(tmp_path, "def broken(:\n")
        assert [d.rule for d in diags] == ["syntax"]

    def test_lint_paths_counts_files(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("import random\n")
        result = lint_paths([tmp_path])
        assert result.files_checked == 2
        assert not result.ok
        assert set(result.by_rule()) == {"no-global-random"}

    def test_rule_registry_complete(self):
        assert set(RULES) == {"no-wallclock", "no-global-random",
                              "copy-discipline", "trace-naming",
                              "engine-discipline", "cache-discipline",
                              "budget-lease"}
        for rule in all_rules():
            assert rule.summary and rule.invariant

    def test_vocabulary_shape(self):
        assert vocabulary.NAME_RE.match("ncache.evict")
        assert vocabulary.NAME_RE.match("copies.physical.rx")
        assert not vocabulary.NAME_RE.match("Ncache.Evict")
        assert not vocabulary.NAME_RE.match("noverb")


class TestRepoIsClean:
    def test_source_tree_has_zero_unsuppressed_diagnostics(self):
        result = lint_paths([SRC])
        assert result.files_checked > 50
        assert result.ok, "\n".join(d.format() for d in result.active)

    def test_cli_module_exits_zero_on_repo(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.check", str(SRC)],
            capture_output=True, text=True, timeout=120,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestCli:
    def test_exit_one_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert check_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "no-global-random" in out and "FAIL" in out

    def test_exit_zero_on_clean(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert check_main([str(good)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert check_main(["--json", str(bad)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["diagnostics"][0]["rule"] == "no-global-random"

    def test_rules_filter(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert check_main(["--rules", "no-wallclock", str(bad)]) == 0
        capsys.readouterr()

    def test_unknown_rule_errors(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            check_main(["--rules", "nonsense", str(tmp_path)])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "copy-discipline" in out
