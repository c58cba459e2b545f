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

This experiment *measures* those counts by tracing single requests
through the full simulated stack, for all three server modes — NCache and
the ideal baseline must show zero.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.tables import ExperimentResult
from ..copymodel.accounting import RequestTrace
from ..net.buffer import VirtualPayload
from ..servers.config import ServerMode, TestbedConfig
from ..servers.testbed import NfsTestbed, WebTestbed, run_until_complete
from ..sim.process import start
from .common import ALL_MODES
from .parallel import RunSpec, sweep

SERVER = "server"


def nfs_copy_counts(mode: ServerMode) -> Dict[str, int]:
    """Trace the four NFS paths; returns path -> physical copies."""
    cfg = TestbedConfig(mode=mode, ncache_strict=True)
    testbed = NfsTestbed(cfg, flush_interval_s=None)
    testbed.image.create_file("t2file", 16 << 20)
    fh = testbed.file_handle("t2file")
    inode = testbed.image.lookup("t2file")
    client = testbed.clients[0]
    counts: Dict[str, int] = {}

    def scenario():
        miss = RequestTrace("read-miss")
        yield from client.read(fh, 0, 32768, trace=miss)
        counts["read_miss"] = miss.physical_copies(where=SERVER)

        hit = RequestTrace("read-hit")
        yield from client.read(fh, 0, 32768, trace=hit)
        counts["read_hit"] = hit.physical_copies(where=SERVER)

        first = RequestTrace("write-1")
        yield from client.write(fh, 65536, VirtualPayload(1, 0, 8192),
                                trace=first)
        overwrite = RequestTrace("write-2")
        yield from client.write(fh, 65536, VirtualPayload(2, 0, 8192),
                                trace=overwrite)
        counts["write_overwritten"] = overwrite.physical_copies(where=SERVER)

        flush = RequestTrace("flush")
        yield from testbed.vfs.flush_lbn(inode.block_lbn(16), flush)
        yield from testbed.vfs.flush_lbn(inode.block_lbn(17), flush)
        counts["write_flushed"] = (first.physical_copies(where=SERVER)
                                   + flush.physical_copies(where=SERVER) // 2)

    testbed.setup()
    run_until_complete(testbed.sim, start(testbed.sim, scenario()))
    return counts


def web_copy_counts(mode: ServerMode) -> Dict[str, int]:
    """Trace the two kHTTPd paths; returns path -> physical copies."""
    cfg = TestbedConfig(mode=mode, ncache_strict=True)
    testbed = WebTestbed(cfg, connections_per_client=1)
    testbed.image.create_file("page.html", 65536)
    client = testbed.http_clients[0]
    counts: Dict[str, int] = {}

    def scenario():
        miss = RequestTrace("http-miss")
        yield from client.get("page.html", trace=miss)
        counts["read_miss"] = miss.physical_copies(where=SERVER)
        hit = RequestTrace("http-hit")
        yield from client.get("page.html", trace=hit)
        counts["read_hit"] = hit.physical_copies(where=SERVER)

    testbed.setup()
    run_until_complete(testbed.sim, start(testbed.sim, scenario()))
    return counts


#: Paper values for the original servers.
PAPER_ORIGINAL = {
    "NFS server": {"read_hit": 2, "read_miss": 3,
                   "write_overwritten": 1, "write_flushed": 2},
    "kHTTPd": {"read_hit": 1, "read_miss": 2},
}


def grid(quick: bool = True) -> List[RunSpec]:
    """Both trace scenarios for every mode, as independent grid points.

    The trace functions take no ``reports`` dict (they return copy
    counts, not throughput metrics), hence ``capture_reports=False``.
    """
    specs: List[RunSpec] = []
    for mode in ALL_MODES:
        specs.append(RunSpec(fn="repro.experiments.table2:nfs_copy_counts",
                             args=(mode,), capture_reports=False,
                             label=f"table2/nfs/{mode.value}"))
        specs.append(RunSpec(fn="repro.experiments.table2:web_copy_counts",
                             args=(mode,), capture_reports=False,
                             label=f"table2/web/{mode.value}"))
    return specs


def run(quick: bool = True, workers: int = 1,
        trace_sink: list = None) -> ExperimentResult:
    """Table 2 (all modes) as an ExperimentResult."""
    result = ExperimentResult(
        name="table2",
        title="Table 2: physical data copies per request "
              "(regular data, inside the server)",
        columns=["server", "mode", "read_hit", "read_miss",
                 "write_overwritten", "write_flushed"])
    results = sweep(grid(quick), workers, trace_sink)
    for mode, (nfs_rr, web_rr) in zip(ALL_MODES,
                                      zip(results[0::2], results[1::2])):
        result.add_row(server="NFS server", mode=mode.label, **nfs_rr.value)
        result.add_row(server="kHTTPd", mode=mode.label,
                       write_overwritten="n/a", write_flushed="n/a",
                       **web_rr.value)
    result.add_note("paper (original): NFS 2/3/1/2, kHTTPd 1/2; "
                    "NCache and baseline rows must be all zero")
    return result
