#!/usr/bin/env python3
"""Quickstart: build the paper's testbed, run one request down each path.

Builds an NFS-over-iSCSI testbed in each of the three server modes
(original / ideal zero-copy baseline / NCache), sends single requests
through the full stack with the trace bus on, and prints the copy counts
of the paper's Table 2 from the ``copies.*`` events each one produced,
plus a tiny throughput comparison — all in a few seconds of wall time.

Run:  python examples/quickstart.py
"""

from repro.copymodel import physical_copies
from repro.net.buffer import VirtualPayload
from repro.nfs import read_reply_data
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.process import start
from repro.workloads import AllHitReadWorkload


def trace_one_mode(mode: ServerMode) -> dict:
    """Trace read-miss/read-hit/write requests through a fresh testbed."""
    testbed = TestbedSpec.nfs(mode, n_daemons=8,
                              flush_interval_s=None).build()
    testbed.image.create_file("demo.bin", 16 << 20)
    fh = testbed.file_handle("demo.bin")
    inode = testbed.image.lookup("demo.bin")
    client = testbed.clients[0]
    report = {}
    events = testbed.sim.trace.enable().events

    def scenario():
        # Nothing else is in flight, so the events recorded while one
        # request runs are exactly the movements that request caused.
        mark = len(events)
        dgram = yield from client.read(fh, 0, 32768)
        miss = events[mark:]
        data_ok = read_reply_data(dgram).materialize() == \
            testbed.image.file_payload(inode, 0, 32768).materialize()
        mark = len(events)
        yield from client.read(fh, 0, 32768)
        hit = events[mark:]
        mark = len(events)
        yield from client.write(fh, 65536, VirtualPayload(1, 0, 8192))
        write = events[mark:]
        report.update({
            "read_miss_copies": physical_copies(miss, where="server"),
            "read_hit_copies": physical_copies(hit, where="server"),
            "write_copies": physical_copies(write, where="server"),
            "logical_copies_on_hit": sum(
                ev.name == "copies.logical" for ev in hit),
            "payload_correct": data_ok
            if mode is not ServerMode.BASELINE else "n/a (junk by design)",
        })

    testbed.setup()
    run_until_complete(testbed.sim, start(testbed.sim, scenario()))
    return report


def throughput_one_mode(mode: ServerMode) -> float:
    """A small cached-read throughput shootout (32 KB requests, 2 NICs)."""
    testbed = TestbedSpec.nfs(mode, n_server_nics=2, n_daemons=8,
                              flush_interval_s=None).build()
    workload = AllHitReadWorkload(testbed, 32768, streams_per_client=6)
    testbed.setup()
    run_until_complete(testbed.sim, workload.prewarm())
    workload.start()
    testbed.warmup_then_measure(0.1, 0.25)
    return testbed.meters.throughput.mb_per_second()


def main() -> None:
    print("NCache quickstart: per-request copy counts (paper Table 2)")
    print("-" * 64)
    header = f"{'mode':10s} {'miss':>5s} {'hit':>5s} {'write':>6s} " \
             f"{'logical':>8s}  bytes-correct"
    print(header)
    for mode in (ServerMode.ORIGINAL, ServerMode.BASELINE,
                 ServerMode.NCACHE):
        r = trace_one_mode(mode)
        print(f"{mode.label:10s} {r['read_miss_copies']:5d} "
              f"{r['read_hit_copies']:5d} {r['write_copies']:6d} "
              f"{r['logical_copies_on_hit']:8d}  {r['payload_correct']}")
    print()
    print("Cached 32 KB reads, two gigabit NICs (paper Figure 5b):")
    results = {mode: throughput_one_mode(mode)
               for mode in (ServerMode.ORIGINAL, ServerMode.BASELINE,
                            ServerMode.NCACHE)}
    orig = results[ServerMode.ORIGINAL]
    for mode, mbps in results.items():
        gain = (mbps / orig - 1) * 100
        print(f"  {mode.label:10s} {mbps:7.1f} MB/s  ({gain:+5.1f}% "
              f"vs original)")
    print()
    print("Paper: NCache +92%, ideal baseline up to +143% at this point.")


if __name__ == "__main__":
    main()
