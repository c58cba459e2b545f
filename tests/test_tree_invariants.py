"""The tree-wide invariants of ``src/repro``, stated as AST checks.

The paper's mechanism rests on properties that no behaviour test sees:
regular data moves by logical copy (§3.1), one LRU does all replacement
(§3.4), each cache's byte budget is fixed at configuration, and a run
is a function of its seeds.  Each is a *rule* here: a function that yields ``(key, node)`` for
every site of a module that could break it, with an allowlist beside it
that maps a key prefix to the reason the site is legal.  A key is
``"<path under src/repro>::<enclosing qualname>"`` (the name itself, for
``trace-naming``), so an entry exempts a directory, a module or one
function.

``src/repro`` is parsed once per session.  A rule holds when every site
is covered and every entry is the only cover of some site: adding an
entry that exempts nothing, or deleting one that does, fails the rule.
"""

import ast
import functools
import re
import textwrap

from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
REPO = SRC.parents[1]


@functools.lru_cache(maxsize=None)
def parsed(root):
    """``{path under root: module}`` for every python file under ``root``."""
    return {path.relative_to(root).as_posix():
            ast.parse(path.read_text(), str(path))
            for path in sorted(root.rglob("*.py"))}


def nodes(root=SRC):
    """``(path under root, node)`` for every node under ``root``."""
    for path, tree in parsed(root).items():
        for node in ast.walk(tree):
            yield path, node


def dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def scoped(tree):
    """``(qualname of the enclosing def or class, node)`` for every node
    that runs: the body of ``if TYPE_CHECKING:`` is type-only."""
    stack = [("", tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        type_only = isinstance(node, ast.If) and dotted(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING")
        stack.extend((scope, child) for child in (
            node.orelse if type_only else ast.iter_child_nodes(node)))


def calls(tree):
    """``(scope, call, dotted callee or None)`` for every call that runs."""
    for scope, node in scoped(tree):
        if isinstance(node, ast.Call):
            yield scope, node, dotted(node.func)


def imported(node):
    """The modules an ``import`` statement names; empty for other nodes."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.module:
        return {node.module}
    return set()


def violations(rule, files, allow):
    """The sites of ``rule`` in ``files`` that no entry of ``allow``
    covers, and the entries that are not the only cover of any site."""
    found, needed = [], set()
    for path, tree in files.items():
        for key, node in rule(path, tree):
            cover = [entry for entry in allow if key.startswith(entry)]
            if not cover:
                found.append(f"{path}:{node.lineno}: {key}")
            elif len(cover) == 1:
                needed.add(cover[0])
    return found, sorted(set(allow) - needed)


# -- no-wallclock: simulated time is Simulator.now; a host-clock read
#    makes a run unreproducible.

WALLCLOCK_ALLOWED = {
    "perf/enginebench.py": "the engine microkernels time the host, "
                           "which is their whole point",
}
CLOCKS = {"time", "monotonic", "perf_counter", "process_time", "now",
          "utcnow", "today"}


def no_wallclock(path, tree):
    for scope, node in scoped(tree):
        modules = {name.split(".")[0] for name in imported(node)}
        call = (dotted(node.func) or "").split(".") \
            if isinstance(node, ast.Call) else [""]
        reads_clock = call[0] in ("time", "datetime", "date") \
            and call[-1].removesuffix("_ns") in CLOCKS
        if modules & {"time", "datetime"} or reads_clock:
            yield f"{path}::{scope}", node


# -- no-global-random: every stochastic component takes an injected
#    rng.substream(seed, ...); global state ties event order to imports.

RANDOM_ALLOWED = {
    "sim/rng.py": "the one module that builds random.Random streams",
}


def no_global_random(path, tree):
    for scope, node in scoped(tree):
        name = dotted(node.func) if isinstance(node, ast.Call) else None
        if imported(node) & {"random", "numpy.random"} or (name or "") \
                .startswith(("random.", "numpy.random.", "np.random.")):
            yield f"{path}::{scope}", node


# -- copy-discipline (§3.1): regular data moves by logical (key-sized)
#    copy.  Bytes are materialized only by the copy model, the Payload
#    substrate and the metadata paths below, each charged to an
#    accountant; everything else routes through CopyAccountant.

COPY_ALLOWED = {
    "copymodel/": "the copy model: materialization here is the model",
    "net/buffer.py": "the Payload substrate defines physical_copy",
    "net/stack.py": "socket-boundary moves and software checksums, "
                    "charged via acct.physical_copy / acct.checksum",
    "core/classifier.py": "the HTTP header scan materializes only real "
                          "header bytes (§3.5)",
    "iscsi/target.py": "the storage target's data plane, charged by its "
                       "own accountant (the paper changes only the "
                       "pass-through server)",
    "core/ncache.py::NCacheModule.write_back_chunk":
        "the writeback data plane, charged by initiator.write",
    "fs/vfs.py::VFS._ensure_metadata_block":
        "metadata cache fill (§3.3), charged by the physical_copy "
        "just above it",
}


def copy_discipline(path, tree):
    for scope, call, name in calls(tree):
        func = call.func
        if isinstance(func, ast.Attribute) \
                and func.attr in ("physical_copy", "materialize", "tobytes"):
            # acct.physical_copy(...) is the CopyAccountant route itself.
            flagged = (dotted(func.value) or "").split(".")[-1] \
                not in ("acct", "accountant")
        else:
            flagged = name == "pattern_bytes" or name == "bytes" \
                and len(call.args) == 1 \
                and not isinstance(call.args[0], ast.Constant)
        if flagged:
            yield f"{path}::{scope}", call


# -- trace-naming: every TraceBus event and registry metric is named
#    subsystem.verb[.qualifier], and its subsystem is one listed here.

NAME_RE = re.compile(r"^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
NAMING_METHODS = {"emit", "complete", "counter", "gauge", "histogram", "add",
                  "_counter"}
SUBSYSTEMS = {
    "bcache.": "file-system buffer cache: writeback counters and events",
    "buffer.": "extent data plane: materialize and partial-extent events",
    "cache.": "the eviction kernel: the only hit/miss/evict/ghost counters",
    "checksum.": "software checksum accounting",
    "copies.": "CopyAccountant counters and per-movement events",
    "copy.": "per-copy size distribution",
    "engine.": "simulator dispatch",
    "fleet.": "multi-server cluster: routing, peer cache traffic",
    "http.": "kHTTPd",
    "ncache.": "the NCache module and store",
    "net.": "network stack send/receive",
    "nfs.": "NFS server / client",
    "request.": "per-request latency and size histograms",
    "udp.": "transport events",
}


def trace_naming(path, tree):
    for _, call, _ in calls(tree):
        if not (isinstance(call.func, ast.Attribute) and call.args
                and call.func.attr in NAMING_METHODS):
            continue
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            yield (first.value if NAME_RE.match(first.value)
                   else f"malformed name {first.value!r}"), call
        elif isinstance(first, ast.JoinedStr):
            head = first.values[0]
            head = head.value if isinstance(head, ast.Constant) else ""
            yield (head if "." in head
                   else "f-string name without a static prefix"), call


# -- engine-discipline (run to completion): an engine process (a
#    generator) and every helper it can reach must model delays instead
#    of blocking the host, and a process must not re-enter the
#    scheduler.  No entry exempts a process.

BLOCKING_CALLS = {
    "open", "input", "time.sleep", "os.system", "socket.socket",
    "subprocess.run", "subprocess.call", "subprocess.Popen",
    "subprocess.check_output", "urllib.request.urlopen",
}
BLOCKING_ALLOWED = {
    "obs/trace.py": "trace export, after the run",
}


def engine_discipline(path, tree):
    processes = {scope for scope, node in scoped(tree)
                 if isinstance(node, (ast.Yield, ast.YieldFrom))}
    for scope, call, name in calls(tree):
        parts = (name or "").split(".")
        reenters = parts[-1] in ("run_until", "run_until_complete") \
            or parts[-2:-1] in (["sim"], ["simulator"]) \
            and parts[-1] == "run"
        if scope in processes and (name in BLOCKING_CALLS or reenters):
            yield f"engine process {path}::{scope}", call
        elif name in BLOCKING_CALLS:
            yield f"{path}::{scope}", call


# -- cache-discipline (§3.4, one eviction engine): a class keeping its
#    own OrderedDict recency list escapes the kernel's policies and its
#    cache.<name>.* metrics.

CACHE_ALLOWED = {
    "cache/": "the eviction kernel and its policies",
    "nfs/server.py::DuplicateRequestCache.__init__":
        "bounded-FIFO replay state (RFC 1813 / knfsd): entries age out "
        "by arrival and a lookup must not refresh them",
}


def self_attr(node):
    """``x`` for ``self.x``, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def cache_discipline(path, tree):
    ordered, reordered = {}, set()
    for scope, node in scoped(tree):
        owner = scope.rpartition(".")[0]
        if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                and isinstance(node.value, ast.Call) \
                and (dotted(node.value.func) or "").split(".")[-1] \
                == "OrderedDict":
            targets = getattr(node, "targets", None) or [node.target]
            for attr in filter(None, map(self_attr, targets)):
                ordered[owner, attr] = scope, node
        elif isinstance(node, ast.Attribute) \
                and node.attr in ("move_to_end", "popitem") \
                and self_attr(node.value):
            # a call, or a bound reference (LRU's hot-path touch alias)
            reordered.add((owner, self_attr(node.value)))
    for key in sorted(ordered.keys() & reordered):
        scope, node = ordered[key]
        yield f"{path}::{scope}", node


# -- budget-lease: budgets are fixed at configuration (the paper's
#    static squeeze, §3.4/§4.1); resize() runs only inside repro.cache
#    (``CacheKernel.resize`` is defined there and called by no one) and
#    NCacheStore.cold_restart, which empties the store through zero.

BUDGET_ALLOWED = {
    "core/store.py::NCacheStore.cold_restart":
        "a cold restart empties the store through a zero budget",
}


def budget_lease(path, tree):
    for scope, call, _ in calls(tree):
        if isinstance(call.func, ast.Attribute) and call.func.attr == "resize":
            yield f"{path}::{scope}", call


# -- one-pool (over tests/): conftest forks the session's cell pool; a
#    pool forked beside it can deadlock its child (the session pool's
#    manager thread is running).  ``__main__`` blocks run outside pytest.

POOL_ALLOWED = {"conftest.py::": "the session's cell pool"}
#: Where a call's ``workers`` sits when it is passed by position.
WORKERS_AT = {"run_specs": 1, "run_sweep": 2}


def one_pool(path, tree):
    runs = ast.Module([node for node in tree.body if not (
        isinstance(node, ast.If) and "__main__" in ast.unparse(node.test))],
        [])
    for scope, call, _ in calls(runs):
        callee = called(call)
        workers = [kw.value for kw in call.keywords if kw.arg == "workers"]
        if callee in WORKERS_AT:
            workers += call.args[WORKERS_AT[callee]:][:1]
        pooled = callee in WORKERS_AT and any(
            not isinstance(w, ast.Constant) or w.value > 1 for w in workers)
        if pooled or callee in ("ProcessPoolExecutor", "Pool", "fork"):
            yield f"{path}::{scope}", call


RULES = {
    "no-wallclock": (no_wallclock, WALLCLOCK_ALLOWED),
    "no-global-random": (no_global_random, RANDOM_ALLOWED),
    "copy-discipline": (copy_discipline, COPY_ALLOWED),
    "trace-naming": (trace_naming, SUBSYSTEMS),
    "engine-discipline": (engine_discipline, BLOCKING_ALLOWED),
    "cache-discipline": (cache_discipline, CACHE_ALLOWED),
    "budget-lease": (budget_lease, BUDGET_ALLOWED),
}


#: Rules over ``tests/``.
TEST_RULES = {"one-pool": (one_pool, POOL_ALLOWED)}


@pytest.mark.parametrize("rule", RULES)
def test_the_tree_obeys(rule):
    found, unneeded = violations(RULES[rule][0], parsed(SRC), RULES[rule][1])
    assert found == [], "\n".join(found)
    assert unneeded == [], f"allowlist entries that exempt nothing: {unneeded}"


@pytest.mark.parametrize("rule", TEST_RULES)
def test_the_tests_obey(rule):
    found, unneeded = violations(TEST_RULES[rule][0], parsed(REPO / "tests"),
                                 TEST_RULES[rule][1])
    assert found == [], "\n".join(found)
    assert unneeded == [], f"allowlist entries that exempt nothing: {unneeded}"


TYPE_ONLY = "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import {}"
PROCESS = "def proc(sim, path):\n    {}\n    yield sim.timeout(1)"
HELPER = "def dump(path, text):\n    with open(path, 'w') as fh:\n" \
         "        fh.write(text)"
LRU = """\
    from collections import OrderedDict

    class MiniLru:
        def __init__(self):
            self.order = OrderedDict()

        def touch(self, k):
            self.order.{}
"""
#: id: (rule, path under src/repro, source, sites the rule reports)
PLANTED = {
    "time-import": ("no-wallclock", "mod.py", "import time", 1),
    "clock-call": ("no-wallclock", "mod.py",
                   "def f(time):\n    return time.perf_counter()", 1),
    "type-only-datetime": ("no-wallclock", "mod.py",
                           TYPE_ONLY.format("datetime"), 0),
    "random-import": ("no-global-random", "mod.py", "import random", 1),
    "global-random-call": ("no-global-random", "mod.py",
                           "def roll(random):\n    return random.randrange(6)",
                           1),
    "type-only-random": ("no-global-random", "mod.py",
                         TYPE_ONLY.format("random"), 0),
    "rng-module": ("no-global-random", "sim/rng.py", "import random", 0),
    "physical-copy": ("copy-discipline", "mod.py",
                      "def serve(p):\n    return p.physical_copy()", 1),
    "bytes-of-payload": ("copy-discipline", "mod.py", "bytes(payload)", 1),
    "bytes-of-constant": ("copy-discipline", "mod.py", "bytes(16)", 0),
    "accountant-route": ("copy-discipline", "mod.py",
                         "def fill(self, n):\n"
                         "    yield from self.host.acct.physical_copy(n, 'f')",
                         0),
    "copy-model": ("copy-discipline", "copymodel/mod.py",
                   "def move(p):\n    return p.physical_copy()", 0),
    "allowlisted-function": ("copy-discipline", "fs/vfs.py",
                             "class VFS:\n"
                             "    def _ensure_metadata_block(self, p):\n"
                             "        return p.physical_copy()", 0),
    "other-function-same-module": ("copy-discipline", "fs/vfs.py",
                                   "class VFS:\n"
                                   "    def read(self, p):\n"
                                   "        return p.physical_copy()", 1),
    "malformed-name": ("trace-naming", "mod.py", "bus.emit('Bad Name')", 1),
    "unknown-subsystem": ("trace-naming", "mod.py",
                          "counters.add('frobnicator.hit')", 1),
    "declared-names": ("trace-naming", "mod.py",
                       "bus.emit('ncache.evict', dirty=True)\n"
                       "registry.counter('cache.bcache.hit')", 0),
    "fstring-without-prefix": ("trace-naming", "mod.py",
                               "bus.emit(f'{kind}.done')", 1),
    "fstring-with-prefix": ("trace-naming", "mod.py",
                            "counters.add(f'net.{category}')", 0),
    "sleep-in-process": ("engine-discipline", "mod.py",
                         "import time\n" + PROCESS.format("time.sleep(1)"), 1),
    "reentrant-run": ("engine-discipline", "mod.py",
                      PROCESS.format("sim.run()"), 1),
    "driving-the-loop": ("engine-discipline", "mod.py",
                         "def drive(sim):\n    sim.run()", 0),
    "blocking-helper": ("engine-discipline", "mod.py", HELPER, 1),
    "blocking-helper-in-exporter": ("engine-discipline", "obs/trace.py",
                                    HELPER, 0),
    "blocking-process-in-exporter": ("engine-discipline", "obs/trace.py",
                                     PROCESS.format("open(path)"), 1),
    "move-to-end": ("cache-discipline", "mod.py",
                    LRU.format("move_to_end(k)"), 1),
    "popitem": ("cache-discipline", "mod.py",
                LRU.format("popitem(last=False)"), 1),
    "insertion-ordered": ("cache-discipline", "mod.py",
                          LRU.format("setdefault(k, 1)"), 0),
    "not-an-ordereddict": ("cache-discipline", "mod.py",
                           LRU.replace("OrderedDict()", "inner")
                           .format("move_to_end(k)"), 0),
    "cache-kernel": ("cache-discipline", "cache/policy.py",
                     LRU.format("move_to_end(k)"), 0),
    "direct-resize": ("budget-lease", "mod.py", "cache.resize(1024)", 1),
    "every-direct-call": ("budget-lease", "mod.py",
                          "donor.resize(0)\nrecipient.resize(4096)", 2),
    # name-based by design: any .resize() outside the seam is flagged
    "unrelated-resize-name": ("budget-lease", "mod.py",
                              "def rescale(image):\n"
                              "    image.resize(640)", 1),
    "cold-restart-seam": ("budget-lease", "core/store.py",
                          "class NCacheStore:\n"
                          "    def cold_restart(self):\n"
                          "        self.resize(0)", 0),
    "bound-method-reference": ("budget-lease", "mod.py",
                               "handlers.append(store.resize)", 0),
    "own-pool": ("one-pool", "test_mod.py",
                 "ProcessPoolExecutor(2).map(str, [1])\nos.fork()", 2),
    "pooled-runs": ("one-pool", "test_mod.py",
                    "run_specs(specs, workers=2)\nrun_sweep(s, True, n)", 2),
    "serial-runs": ("one-pool", "test_mod.py",
                    "run_specs(specs)\nrun_sweep(s, True, 1, None)", 0),
    "regeneration-block": ("one-pool", "test_mod.py",
                           "if __name__ == '__main__':\n"
                           "    run_sweep(s, quick=True, workers=2)", 0),
}


@pytest.mark.parametrize("case", PLANTED)
def test_planted_source(case):
    rule, path, source, sites = PLANTED[case]
    check, allow = {**RULES, **TEST_RULES}[rule]
    found, _ = violations(check, {path: ast.parse(textwrap.dedent(source))},
                          allow)
    assert len(found) == sites, found


# -- single-site rules: what is counted, built and measured in one place.

def called(node):
    """``f`` for a call ``f(...)`` or ``x.f(...)``, else None."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", None) \
            or getattr(node.func, "id", None)
    return None


def terminal_name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def test_hits_and_misses_are_counted_in_the_kernel_only():
    counted = {where for where, node in nodes()
               if isinstance(node, ast.AugAssign)
               and isinstance(node.target, ast.Attribute)
               and node.target.attr == "_total"
               and any(word in terminal_name(node.target.value)
                       for word in ("hit", "miss"))}
    assert counted == {"cache/kernel.py"}


def test_the_deleted_names_stay_deleted():
    offenders = []
    for where, node in nodes():
        names = [terminal_name(node)]
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ClassDef):
            names = [node.name]
        if "LatencyStats" in names:
            offenders.append((where, node.lineno, "LatencyStats"))
        # One lookup path: a caller asks ``lookup`` or ``peek``, it does
        # not pass a flag.
        if isinstance(node, ast.Call) and any(
                kw.arg == "touch" for kw in node.keywords):
            offenders.append((where, node.lineno, "touch="))
        # ``Datagram.meta`` is gone: what rides a datagram is a declared
        # field.
        if isinstance(node, ast.Attribute) and node.attr == "meta":
            offenders.append((where, node.lineno, ".meta"))
    assert offenders == []


def test_one_way_to_build_and_one_way_to_measure():
    """Only ``servers/spec.py`` constructs a testbed, and under
    ``experiments/`` only ``common.py`` writes the measurement sequence
    (the windows and the reset between them) and only ``run_cell``
    builds a spec and measures it — Table 2's two single-request
    scenarios, which measure nothing, excepted."""
    build = {f"{root}/{where}" for root in ("src", "tests", "examples")
             for where, node in nodes(REPO / root)
             if called(node) in ("NfsTestbed", "WebTestbed")}
    assert build <= {"src/repro/servers/spec.py"}
    protocol = {where for where, node in nodes()
                if where.startswith("experiments/")
                and called(node) in ("warmup_then_measure",
                                     "reset_measurements")}
    assert protocol <= {"experiments/common.py"}
    sites = sorted(
        (where, scope.split(".")[0], called(node))
        for where, tree in parsed(SRC).items() if where.startswith("experiments/")
        for scope, node in scoped(tree)
        if called(node) in ("build", "measure", "measure_segments"))
    assert sites == [
        ("experiments/common.py", "run_cell", "build"),
        ("experiments/common.py", "run_cell", "measure"),
        ("experiments/common.py", "run_cell", "measure_segments"),
        ("experiments/table2.py", "nfs_copy_counts", "build"),
        ("experiments/table2.py", "web_copy_counts", "build")]
