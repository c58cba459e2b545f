"""Buffer-lifecycle sanitizer: ASan/LSan for the simulated cache.

NCache's correctness hangs on an ownership lifecycle the type system
cannot see: a chunk of network buffers is **cached** (RX hook), possibly
**remapped** FHO→LBN while its block flushes (§3.4), **substituted** into
at most one departing reply per placeholder, and finally **evicted** —
after which nothing may reference it, and if it was dirty its bytes must
first reach stable storage.  The file-system buffer cache may hold only
*keys* to that data, never the buffers themselves (otherwise the
double-buffering the paper eliminates is silently back).

The sanitizer tags every chunk with a state machine and reports:

* **leak** — a dirty chunk evicted but never written back (lost write),
  or a chunk still pinned when the simulation ends;
* **double-substitution** — one reply's placeholder chain substituted
  twice (each placeholder resolves exactly once per reply);
* **use-after-evict** — a reclaimed chunk used (pinned, remapped,
  substituted);
* **aliasing** — the FS buffer cache holding a payload object owned by a
  live NCache chunk (physical double-buffering of regular data).

A placeholder whose key no longer resolves at substitution time needs
no sanitizer: the NCache module raises on it itself.

There is one mode: every violation raises :class:`SanitizerError` at
the violating call (and is kept in ``violations``).  Enablement:
``tests/conftest.py`` activates a sanitizer around every test;
``REPRO_SANITIZE=1`` activates one for any other run.  Hooks are no-ops
when no sanitizer is active — one module-global read per call site.
"""

from __future__ import annotations

import enum
import os
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, NoReturn, Optional


class SanitizerError(RuntimeError):
    """Raised at the point of a lifecycle violation."""


class ChunkState(enum.Enum):
    """Ownership state of one cached chunk."""

    CACHED = "cached"
    EVICTED = "evicted"


class ViolationKind(enum.Enum):
    """The sanitizer's failure modes."""

    LEAK = "leak"
    DOUBLE_SUBSTITUTION = "double-substitution"
    USE_AFTER_EVICT = "use-after-evict"
    ALIASING = "aliasing"


@dataclass
class Violation:
    """One observed lifecycle violation."""

    kind: ViolationKind
    message: str
    key: str = ""

    def format(self) -> str:
        where = f" [{self.key}]" if self.key else ""
        return f"san.{self.kind.value}{where}: {self.message}"


@dataclass
class _ChunkRecord:
    ref: Any                      # weakref.ref to the chunk (or None)
    key: str
    state: ChunkState
    dirty: bool = False


@dataclass
class BufferSanitizer:
    """Tracks chunk / buffer ownership through one simulation's life."""

    violations: List[Violation] = field(default_factory=list)
    _chunks: Dict[int, _ChunkRecord] = field(default_factory=dict)
    _pending_writeback: Dict[int, Any] = field(default_factory=dict)
    #: id(payload) -> (owner key, weakref to the owning chunk).  The
    #: weakref lets the aliasing check reject stale entries: when a whole
    #: store is garbage-collected (experiments build testbeds in
    #: sequence) its chunks never see chunk_evicted, and a fresh payload
    #: object can reuse a freed id().
    _owned_payloads: Dict[int, Any] = field(default_factory=dict)
    #: anonymous extent memory identity -> (owner key, weakref to chunk).
    #: Extent payloads carry a ``mem`` field naming the modelled buffer
    #: they are a view of; two *different* view objects of one buffer
    #: share a ``mem`` even though their id()s differ, so this catches
    #: aliasing the id-based map cannot.  Only anonymous (negative) mems
    #: are tracked: non-negative mems are backing-store identities
    #: (everything reading a disk block legitimately shares them).
    _owned_mems: Dict[int, Any] = field(default_factory=dict)
    _substituted: "weakref.WeakValueDictionary[int, Any]" = field(
        default_factory=weakref.WeakValueDictionary)

    # -- recording ---------------------------------------------------------

    def _record(self, kind: ViolationKind, message: str,
                key: str = "") -> NoReturn:
        violation = Violation(kind, message, key)
        self.violations.append(violation)
        raise SanitizerError(violation.format())

    def of_kind(self, kind: ViolationKind) -> List[Violation]:
        return [v for v in self.violations if v.kind is kind]

    # -- chunk lifecycle ---------------------------------------------------

    def chunk_cached(self, chunk: Any) -> None:
        """RX hook inserted ``chunk`` into the store (cache-in)."""
        try:
            ref = weakref.ref(chunk)
        except TypeError:
            ref = None
        self._chunks[id(chunk)] = _ChunkRecord(
            ref=ref, key=str(chunk.key), state=ChunkState.CACHED,
            dirty=bool(chunk.dirty))
        self._own(chunk, ref)

    def chunk_evicted(self, chunk: Any) -> None:
        """The store removed ``chunk`` (reclaim / overwrite / drop)."""
        record = self._chunks.get(id(chunk))
        if record is not None and record.state is not ChunkState.CACHED:
            self._record(
                ViolationKind.USE_AFTER_EVICT,
                f"chunk evicted twice (state {record.state.value})",
                str(chunk.key))
        self._chunks[id(chunk)] = _ChunkRecord(
            ref=record.ref if record is not None else None,
            key=str(chunk.key), state=ChunkState.EVICTED,
            dirty=bool(chunk.dirty))
        for payload in chunk.owned_payloads():
            for part in self._payload_parts(payload):
                self._owned_payloads.pop(id(part), None)
            for mem in self._anon_mems(payload):
                entry = self._owned_mems.get(mem)
                if entry is not None and (entry[1] is None
                                          or entry[1]() in (chunk, None)):
                    del self._owned_mems[mem]
        if chunk.dirty:
            self._pending_writeback[id(chunk)] = chunk

    def chunk_remapped(self, chunk: Any, old_key: Any) -> None:
        """FHO→LBN remap: the chunk's identity moved indexes (§3.4)."""
        record = self._chunks.get(id(chunk))
        if record is not None and record.state is ChunkState.EVICTED:
            self._record(ViolationKind.USE_AFTER_EVICT,
                         "remap of an evicted chunk", str(old_key))
        if record is not None:
            record.key = str(chunk.key)
            record.dirty = bool(chunk.dirty)
        self._own(chunk, record.ref if record is not None else None)

    # A chunk holds one payload descriptor and, until an observer of
    # individual buffers asks, no buffers.  The hooks below read what a
    # chunk holds *now* (``owned_payloads``) and never ``.buffers``:
    # that property builds the list for good, which would hang one on
    # every chunk at insert under a test and nowhere else.

    @staticmethod
    def _owned_parts(chunk: Any) -> Iterator[Any]:
        """Every payload object ``chunk`` holds, composites and their parts."""
        for payload in chunk.owned_payloads():
            yield from BufferSanitizer._payload_parts(payload)

    def _own(self, chunk: Any, ref: Any) -> None:
        owner = (str(chunk.key), ref)
        for payload in chunk.owned_payloads():
            for part in self._payload_parts(payload):
                self._owned_payloads[id(part)] = owner
            for mem in self._anon_mems(payload):
                self._owned_mems[mem] = owner

    def chunk_written_back(self, chunk: Any) -> None:
        """A dirty chunk's bytes reached the writeback path."""
        self._pending_writeback.pop(id(chunk), None)
        record = self._chunks.get(id(chunk))
        if record is not None:
            record.dirty = False

    def chunk_used(self, chunk: Any, context: str) -> None:
        """Substitution / L2 serve / pin touched ``chunk``'s buffers."""
        record = self._chunks.get(id(chunk))
        if record is not None and record.state is ChunkState.EVICTED:
            self._record(
                ViolationKind.USE_AFTER_EVICT,
                f"{context} touched a reclaimed chunk", record.key)

    # -- substitution ------------------------------------------------------

    def reply_substituted(self, dgram: Any) -> None:
        """The TX hook substituted the placeholders of ``dgram``."""
        if id(dgram) in self._substituted \
                and self._substituted[id(dgram)] is dgram:
            self._record(
                ViolationKind.DOUBLE_SUBSTITUTION,
                "reply substituted twice; each placeholder chain must "
                "resolve exactly once per departing packet")
        try:
            self._substituted[id(dgram)] = dgram
        except TypeError:
            pass

    # -- FS cache aliasing -------------------------------------------------

    def fs_page_inserted(self, lbn: int, payload: Any) -> None:
        """The FS buffer cache cached ``payload`` for block ``lbn``."""
        for part in self._payload_parts(payload):
            entry = self._owned_payloads.get(id(part))
            if entry is None:
                continue
            owner, chunk_ref = entry
            chunk = chunk_ref() if chunk_ref is not None else None
            if chunk is None or not any(owned is part for owned
                                        in self._owned_parts(chunk)):
                # Stale id: the owning chunk (or its whole store) was
                # garbage-collected and the address got recycled.
                del self._owned_payloads[id(part)]
                continue
            self._record(
                ViolationKind.ALIASING,
                f"FS buffer cache page lbn={lbn} aliases a payload "
                f"owned by live NCache chunk {owner}; pages must "
                f"hold keys, not the cached buffers (§3.2)",
                owner)
        # Extent views are distinct objects over shared buffer memory;
        # the mem identity catches aliasing the id() map cannot.
        for mem in self._anon_mems(payload):
            entry = self._owned_mems.get(mem)
            if entry is None:
                continue
            owner, chunk_ref = entry
            chunk = chunk_ref() if chunk_ref is not None else None
            if chunk is None or not self._chunk_holds_mem(chunk, mem):
                del self._owned_mems[mem]
                continue
            self._record(
                ViolationKind.ALIASING,
                f"FS buffer cache page lbn={lbn} is a view of buffer "
                f"memory owned by live NCache chunk {owner}; pages must "
                f"hold keys, not the cached buffers (§3.2)",
                owner)

    @staticmethod
    def _payload_parts(payload: Any) -> Iterator[Any]:
        yield payload
        for part in getattr(payload, "parts", ()):
            yield part

    @staticmethod
    def _anon_mems(payload: Any) -> Iterator[int]:
        """Anonymous (copy-produced) extent memory identities in ``payload``."""
        for part in BufferSanitizer._payload_parts(payload):
            mem = getattr(part, "mem", None)
            if mem is not None and mem < 0:
                yield mem

    @staticmethod
    def _chunk_holds_mem(chunk: Any, mem: int) -> bool:
        return any(getattr(part, "mem", None) == mem
                   for part in BufferSanitizer._owned_parts(chunk))

    # -- end-of-simulation sweep ------------------------------------------

    def check_leaks(self) -> None:
        """Leak sweep: lost dirty data and chunks pinned forever."""
        found: List[Violation] = []
        for chunk in self._pending_writeback.values():
            found.append(Violation(
                ViolationKind.LEAK,
                "dirty chunk evicted but never written back; its bytes "
                "never reached stable storage", str(chunk.key)))
        for record in self._chunks.values():
            chunk = record.ref() if record.ref is not None else None
            if chunk is not None and record.state is ChunkState.CACHED \
                    and getattr(chunk, "pins", 0) > 0:
                found.append(Violation(
                    ViolationKind.LEAK,
                    "chunk still pinned at simulation end", record.key))
        self.violations.extend(found)
        if found:
            raise SanitizerError("; ".join(v.format() for v in found))

    def sim_ended(self, sim: Any) -> None:
        """The event heap drained: run the leak sweep."""
        self.check_leaks()


_active: Optional[BufferSanitizer] = None


def active() -> Optional[BufferSanitizer]:
    """The sanitizer instrumentation hooks should report to, if any."""
    return _active


def enable() -> BufferSanitizer:
    """Install (and return) a fresh sanitizer as the active one."""
    global _active
    _active = BufferSanitizer()
    return _active


def disable() -> Optional[BufferSanitizer]:
    """Deactivate and return the current sanitizer."""
    global _active
    san, _active = _active, None
    return san


@contextmanager
def sanitize() -> Iterator[BufferSanitizer]:
    """Scoped sanitizer; restores whatever was active before."""
    global _active
    previous = _active
    san = BufferSanitizer()
    _active = san
    try:
        yield san
    finally:
        _active = previous


# REPRO_SANITIZE=1 turns on lifecycle checking for any entry point
# (experiments, ad-hoc scripts) without code changes.
if os.environ.get("REPRO_SANITIZE") == "1":  # pragma: no cover
    enable()
