"""ncache-lint rules: AST checks for the repo's paper invariants.

Each rule is a registered class with an ``id`` (used in diagnostics and
``# check: ignore[...]`` comments), a one-line ``summary``, and the
``invariant`` it guards — the latter is printed by ``--list-rules`` and
quoted in DESIGN.md so every rule is traceable to the paper.

Rules work on plain ``ast`` trees; they never import the code they lint,
so the linter can run on broken or dependency-missing files.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Type

from .diagnostics import Diagnostic
from . import vocabulary as vocab


@dataclass
class LintContext:
    """Everything a rule may look at for one file."""

    posix: str                 # POSIX form of the file path (for matching)
    display: str               # path as reported in diagnostics
    source: str
    tree: ast.Module
    type_checking_lines: Set[int] = field(default_factory=set)

    def diag(self, rule: str, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(rule=rule, path=self.display,
                          line=getattr(node, "lineno", 1),
                          col=getattr(node, "col_offset", 0) + 1,
                          message=message)


class Rule:
    """Base class; subclasses register themselves via :func:`register`."""

    id: str = ""
    summary: str = ""
    invariant: str = ""

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        raise NotImplementedError


RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of the rule to the registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    RULES[cls.id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id."""
    return [RULES[rule_id] for rule_id in sorted(RULES)]


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def type_checking_lines(tree: ast.Module) -> Set[int]:
    """Line numbers inside ``if TYPE_CHECKING:`` blocks (imports there
    are type-only and exempt from runtime import rules)."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = dotted_name(node.test)
        if test in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            for child in node.body:
                for sub in ast.walk(child):
                    lineno = getattr(sub, "lineno", None)
                    if lineno is not None:
                        lines.add(lineno)
    return lines


def make_context(posix: str, display: str, source: str,
                 tree: ast.Module) -> LintContext:
    """Build a :class:`LintContext` with the derived line sets filled."""
    return LintContext(posix=posix, display=display, source=source,
                       tree=tree,
                       type_checking_lines=type_checking_lines(tree))


def _own_statements(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(func: ast.AST) -> bool:
    return any(isinstance(node, (ast.Yield, ast.YieldFrom))
               for node in _own_statements(func))


# ---------------------------------------------------------------------------
# no-wallclock
# ---------------------------------------------------------------------------

@register
class NoWallclock(Rule):
    """Forbid host-clock reads; simulated time is ``Simulator.now``."""

    id = "no-wallclock"
    summary = "no wall-clock time inside the simulation"
    invariant = ("determinism: simulated time is Simulator.now; reading "
                 "the host clock makes runs unreproducible "
                 "(sim/engine.py determinism rules)")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if vocab.path_matches(ctx.posix, vocab.WALLCLOCK_ALLOWED_PATHS):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in ("time", "datetime") \
                            and node.lineno not in ctx.type_checking_lines:
                        yield ctx.diag(
                            self.id, node,
                            f"import of {alias.name!r}: simulated code "
                            f"must use Simulator.now, not the host clock")
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in (
                        "time", "datetime") \
                        and node.lineno not in ctx.type_checking_lines:
                    yield ctx.diag(
                        self.id, node,
                        f"import from {node.module!r}: simulated code "
                        f"must use Simulator.now, not the host clock")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in vocab.WALLCLOCK_CALLS:
                    yield ctx.diag(
                        self.id, node,
                        f"wall-clock read {name}(): use the simulator's "
                        f"clock (sim.now) instead")


# ---------------------------------------------------------------------------
# no-global-random
# ---------------------------------------------------------------------------

@register
class NoGlobalRandom(Rule):
    """Forbid global random state; streams come from ``rng.substream``."""

    id = "no-global-random"
    summary = "all randomness flows through repro.sim.rng"
    invariant = ("determinism: every stochastic component takes an "
                 "injected rng.substream(seed, ...) handle; global "
                 "random state makes event order depend on import order "
                 "(sim/rng.py)")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if vocab.path_matches(ctx.posix, vocab.RANDOM_ALLOWED_PATHS):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("random", "numpy.random") \
                            and node.lineno not in ctx.type_checking_lines:
                        yield ctx.diag(
                            self.id, node,
                            f"import of {alias.name!r}: take an injected "
                            f"random.Random from repro.sim.rng.substream "
                            f"(type-only imports go under TYPE_CHECKING)")
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("random", "numpy.random") \
                        and node.lineno not in ctx.type_checking_lines:
                    yield ctx.diag(
                        self.id, node,
                        f"import from {node.module!r}: take an injected "
                        f"random.Random from repro.sim.rng.substream")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                if name.startswith("random.") \
                        or name.startswith("numpy.random.") \
                        or name.startswith("np.random."):
                    yield ctx.diag(
                        self.id, node,
                        f"global-random call {name}(): derive a stream "
                        f"via repro.sim.rng.substream and pass it in")


# ---------------------------------------------------------------------------
# copy-discipline
# ---------------------------------------------------------------------------

_MATERIALIZE_METHODS = ("physical_copy", "materialize", "tobytes")


@register
class CopyDiscipline(Rule):
    """Physical payload materialization only inside the copy model."""

    id = "copy-discipline"
    summary = "physical payload copies only inside the copy model"
    invariant = ("§3.1: regular data moves by logical (key-sized) "
                 "copying — extent descriptors, never bytes; physical "
                 "materialization is legal only in repro.copymodel (the "
                 "materialize() verification-point chokepoint) / the "
                 "Payload substrate and declared metadata paths — "
                 "everything else must route through "
                 "CopyAccountant.move()")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if vocab.path_matches(ctx.posix, vocab.COPY_MODEL_PATHS):
            return
        if vocab.path_matches(ctx.posix,
                              tuple(vocab.COPY_METADATA_PATHS)):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in _MATERIALIZE_METHODS:
                receiver = dotted_name(func.value)
                if receiver is not None and receiver.split(".")[-1] in (
                        "acct", "accountant"):
                    # acct.physical_copy(...) IS the CopyAccountant
                    # route: the charged, counted, traced move.
                    continue
                yield ctx.diag(
                    self.id, node,
                    f".{func.attr}() materializes payload bytes outside "
                    f"the copy model; route verification points through "
                    f"repro.copymodel.materialize() or annotate a "
                    f"metadata path with a reason")
            elif isinstance(func, ast.Name) and func.id == "bytes" \
                    and len(node.args) == 1 \
                    and not isinstance(node.args[0], ast.Constant):
                yield ctx.diag(
                    self.id, node,
                    "bytes(...) materialization outside the copy model; "
                    "payloads move logically (keys), not by value")
            elif isinstance(func, ast.Name) \
                    and func.id == "pattern_bytes":
                # Generating extent content directly bypasses the
                # materialize() chokepoint (and its trace event).
                yield ctx.diag(
                    self.id, node,
                    "pattern_bytes(...) generates extent content outside "
                    "the Payload substrate; go through the payload's "
                    "materialize() via repro.copymodel.materialize()")


# ---------------------------------------------------------------------------
# trace-naming
# ---------------------------------------------------------------------------

@register
class TraceNaming(Rule):
    """Trace/metric names follow ``subsystem.verb[.qualifier]``."""

    id = "trace-naming"
    summary = "trace/metric names match subsystem.verb[.qualifier]"
    invariant = ("observability contract (PR 1): every TraceBus event "
                 "and registry metric is named subsystem.verb[.qualifier] "
                 "with the subsystem declared in "
                 "repro.check.vocabulary.SUBSYSTEMS")

    _methods = vocab.TRACE_EMIT_METHODS | vocab.METRIC_DECL_METHODS

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) \
                    or func.attr not in self._methods or not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) \
                    and isinstance(first.value, str):
                yield from self._check_literal(ctx, first, func.attr,
                                               first.value)
            elif isinstance(first, ast.JoinedStr):
                yield from self._check_fstring(ctx, first, func.attr)

    def _check_literal(self, ctx: LintContext, node: ast.AST,
                       method: str, name: str) -> Iterator[Diagnostic]:
        if not vocab.NAME_RE.match(name):
            yield ctx.diag(
                self.id, node,
                f"{method}({name!r}): name must match "
                f"subsystem.verb[.qualifier] (lowercase, dot-separated)")
            return
        subsystem = name.split(".", 1)[0]
        if subsystem not in vocab.SUBSYSTEMS:
            yield ctx.diag(
                self.id, node,
                f"{method}({name!r}): unknown subsystem {subsystem!r}; "
                f"declare it in repro.check.vocabulary.SUBSYSTEMS")

    def _check_fstring(self, ctx: LintContext, node: ast.JoinedStr,
                       method: str) -> Iterator[Diagnostic]:
        first = node.values[0] if node.values else None
        prefix = first.value if isinstance(first, ast.Constant) \
            and isinstance(first.value, str) else ""
        if "." not in prefix:
            yield ctx.diag(
                self.id, node,
                f"{method}(f\"...\"): dynamic name needs a static "
                f"'subsystem.' prefix so the vocabulary stays checkable")
            return
        subsystem = prefix.split(".", 1)[0]
        if subsystem not in vocab.SUBSYSTEMS:
            yield ctx.diag(
                self.id, node,
                f"{method}(f\"{prefix}...\"): unknown subsystem "
                f"{subsystem!r}; declare it in "
                f"repro.check.vocabulary.SUBSYSTEMS")


# ---------------------------------------------------------------------------
# engine-discipline
# ---------------------------------------------------------------------------

@register
class EngineDiscipline(Rule):
    """No blocking host call in simulation code, no event-loop re-entry
    in engine processes."""

    id = "engine-discipline"
    summary = ("no blocking host call in simulation modules, no "
               "re-entrant run inside engine processes")
    invariant = ("run-to-completion: engine processes (generator "
                 "functions yielding Events), and every helper they can "
                 "reach, must not block the host (real I/O, sleeps) — so "
                 "blocking calls are banned from every module outside "
                 "repro.check.vocabulary.BLOCKING_ALLOWED_PATHS — and a "
                 "process must not re-enter the event loop "
                 "(sim.run/step), which would deadlock or reorder the "
                 "deterministic schedule (sim/engine.py)")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        may_block = vocab.path_matches(ctx.posix,
                                       vocab.BLOCKING_ALLOWED_PATHS)
        # Calls written directly in a generator body -> its name.
        process_of: Dict[int, str] = {}
        for func in ast.walk(ctx.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _is_generator(func):
                for node in _own_statements(func):
                    if isinstance(node, ast.Call):
                        process_of[id(node)] = func.name
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            process = process_of.get(id(node))
            if name in vocab.BLOCKING_CALLS \
                    and (process is not None or not may_block):
                where = (f"inside engine process {process!r}"
                         if process is not None else
                         "in a simulation module (engine processes may "
                         "reach it)")
                yield ctx.diag(
                    self.id, node,
                    f"blocking call {name}() {where}: model the delay "
                    f"with sim.timeout()/cpu.execute_ns() instead")
            elif process is not None and self._is_engine_reentry(name):
                yield ctx.diag(
                    self.id, node,
                    f"re-entrant event-loop call {name}() inside "
                    f"engine process {process!r}: yield an Event "
                    f"instead of recursing into the scheduler")

    @staticmethod
    def _is_engine_reentry(name: str) -> bool:
        if name in ("run_until_complete", "run_until"):
            return True
        parts = name.split(".")
        return (len(parts) >= 2 and parts[-1] in ("run", "step")
                and parts[-2] in ("sim", "simulator"))


# ---------------------------------------------------------------------------
# cache-discipline
# ---------------------------------------------------------------------------

#: OrderedDict methods whose use marks the dict as a *recency* structure
#: (plain insertion-ordered bookkeeping never calls these).
_RECENCY_METHODS = frozenset({"move_to_end", "popitem"})


@register
class CacheDiscipline(Rule):
    """Recency/eviction bookkeeping lives in ``repro.cache`` only."""

    id = "cache-discipline"
    summary = "no hand-rolled OrderedDict recency structures outside repro.cache"
    invariant = ("single eviction engine (PR 5 / DESIGN.md §9): every "
                 "LRU-like structure is a repro.cache CacheKernel policy; "
                 "a class keeping its own OrderedDict recency list "
                 "silently diverges from the paper's §3.4 replacement and "
                 "escapes the cache.<name>.* metric families the policy "
                 "ablation relies on")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if vocab.path_matches(ctx.posix, vocab.CACHE_KERNEL_PATHS):
            return
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            ordered: Dict[str, ast.AST] = {}
            recency: Set[str] = set()
            for node in ast.walk(cls):
                attr = self._ordered_dict_assign(node)
                if attr is not None:
                    ordered.setdefault(attr, node)
                    continue
                attr = self._recency_call(node)
                if attr is not None:
                    recency.add(attr)
            for attr in sorted(ordered.keys() & recency):
                yield ctx.diag(
                    self.id, ordered[attr],
                    f"class {cls.name!r} keeps its own OrderedDict "
                    f"recency structure 'self.{attr}' (move_to_end/"
                    f"popitem): delegate replacement to a repro.cache "
                    f"CacheKernel, or annotate why this ordering is not "
                    f"a cache recency list")

    @staticmethod
    def _ordered_dict_assign(node: ast.AST) -> Optional[str]:
        """``self.<attr> = OrderedDict(...)`` (plain or annotated) →
        the attribute name."""
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target: ast.AST = node.targets[0]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
            value = node.value
        else:
            return None
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return None
        if not isinstance(value, ast.Call):
            return None
        callee = dotted_name(value.func)
        if callee is None or callee.split(".")[-1] != "OrderedDict":
            return None
        return target.attr

    @staticmethod
    def _recency_call(node: ast.AST) -> Optional[str]:
        """``self.<attr>.move_to_end(...)`` / ``self.<attr>.popitem(...)``
        → the attribute name."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _RECENCY_METHODS):
            return None
        receiver = func.value
        if (isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"):
            return receiver.attr
        return None


# ---------------------------------------------------------------------------
# budget-lease
# ---------------------------------------------------------------------------

@register
class BudgetLease(Rule):
    """Cache budgets move through arbiter leases, not direct calls."""

    id = "budget-lease"
    summary = "resize only behind a MemoryArbiter lease"
    invariant = ("arbiter seam (DESIGN.md §12): the machine's cache "
                 "bytes have one owner — a repro.cache.arbiter."
                 "MemoryArbiter.  Direct resize() calls "
                 "outside repro/cache and the two cache adapters would "
                 "let a cache grow without another shrinking, silently "
                 "breaking the budget-conservation invariant the "
                 "controller's stability argument rests on")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if vocab.path_matches(ctx.posix,
                              vocab.BUDGET_LEASE_ALLOWED_PATHS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in vocab.BUDGET_OP_METHODS:
                yield ctx.diag(
                    self.id, node,
                    f"direct budget operation .{func.attr}(): register "
                    f"a lease with the testbed's MemoryArbiter and let "
                    f"the arbiter move the bytes (repro.cache.arbiter)")
