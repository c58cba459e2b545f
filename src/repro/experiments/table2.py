"""Table 2: data copying operations per request, by path and server.

Paper values (physical copies of regular data inside the pass-through
server, per request):

===========  ====  ====  ===========  =======
             read path   write path
-----------  ----------  --------------------
server       hit   miss  overwritten  flushed
===========  ====  ====  ===========  =======
NFS server    2     3         1          2
kHTTPd        1     2        n/a        n/a
===========  ====  ====  ===========  =======

This experiment *measures* those counts by sending single requests
through the full simulated stack with the trace bus on and counting the
``copies.physical`` events each one produced on the server host, for all
three server modes — NCache and the ideal baseline must show zero.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..copymodel.accounting import physical_copies
from ..net.buffer import VirtualPayload
from ..servers.config import ServerMode
from ..servers.spec import TestbedSpec
from ..servers.testbed import run_until_complete
from ..sim.process import start
from .common import ALL_MODES, Sweep, fixed_note
from .parallel import RunSpec

SERVER = "server"


def _server_copies(events: list, request):
    """Run ``request``; returns the physical copies of regular data it
    caused on the server host.  ``events`` is the enabled bus's list: the
    testbed is otherwise idle, so what is appended meanwhile is exactly
    this request's."""
    mark = len(events)
    yield from request
    return physical_copies(events[mark:], SERVER)


def nfs_copy_counts(mode: ServerMode) -> Dict[str, int]:
    """Run the four NFS paths; returns path -> physical copies."""
    testbed = TestbedSpec.nfs(mode, n_daemons=8, ncache_strict=True,
                              flush_interval_s=None).build()
    testbed.image.create_file("t2file", 16 << 20)
    fh = testbed.file_handle("t2file")
    inode = testbed.image.lookup("t2file")
    client = testbed.clients[0]
    counts: Dict[str, int] = {}
    events = testbed.sim.trace.enable().events

    def scenario():
        for path in ("read_miss", "read_hit"):
            counts[path] = yield from _server_copies(
                events, client.read(fh, 0, 32768))
        first = yield from _server_copies(
            events, client.write(fh, 65536, VirtualPayload(1, 0, 8192)))
        counts["write_overwritten"] = yield from _server_copies(
            events, client.write(fh, 65536, VirtualPayload(2, 0, 8192)))
        flushed = 0
        for block in (16, 17):
            flushed += yield from _server_copies(
                events, testbed.vfs.flush_lbn(inode.block_lbn(block)))
        counts["write_flushed"] = first + flushed // 2

    testbed.setup()
    run_until_complete(testbed.sim, start(testbed.sim, scenario()))
    return counts


def web_copy_counts(mode: ServerMode) -> Dict[str, int]:
    """Run the two kHTTPd paths; returns path -> physical copies."""
    testbed = TestbedSpec.web(mode, n_server_nics=1, ncache_strict=True,
                              connections_per_client=1).build()
    testbed.image.create_file("page.html", 65536)
    client = testbed.http_clients[0]
    counts: Dict[str, int] = {}
    events = testbed.sim.trace.enable().events

    def scenario():
        for path in ("read_miss", "read_hit"):
            counts[path] = yield from _server_copies(
                events, client.get("page.html"))

    testbed.setup()
    run_until_complete(testbed.sim, start(testbed.sim, scenario()))
    return counts


#: Paper values for the original servers.
PAPER_ORIGINAL = {
    "NFS server": {"read_hit": 2, "read_miss": 3,
                   "write_overwritten": 1, "write_flushed": 2},
    "kHTTPd": {"read_hit": 1, "read_miss": 2},
}


def _scenarios(quick: bool) -> List[RunSpec]:
    """Both trace scenarios for every mode.

    They are single requests, not cells: nothing is warmed or windowed,
    and they return copy counts rather than a metrics report.
    """
    return [RunSpec(fn, (mode,), f"table2/{kind}/{mode.value}",
                    capture_reports=False)
            for mode in ALL_MODES
            for kind, fn in (("nfs", nfs_copy_counts),
                             ("web", web_copy_counts))]


def _rows(counts: List[Dict[str, int]]) -> Iterator[Dict[str, object]]:
    for mode, nfs, web in zip(ALL_MODES, counts[0::2], counts[1::2]):
        yield dict(server="NFS server", mode=mode.label, **nfs)
        yield dict(server="kHTTPd", mode=mode.label,
                   write_overwritten="n/a", write_flushed="n/a", **web)


SWEEP = Sweep(
    "table2", "Table 2: physical data copies per request "
              "(regular data, inside the server)",
    ("server", "mode", "read_hit", "read_miss", "write_overwritten",
     "write_flushed"),
    _scenarios, assemble=_rows,
    notes=fixed_note(
        "paper (original): NFS 2/3/1/2, kHTTPd 1/2; "
        "NCache and baseline rows must be all zero"))
