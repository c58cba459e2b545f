#!/usr/bin/env python3
"""kHTTPd static-web accelerator scenario (§4.3 / Figure 6).

A static web server backed by networked storage is the paper's second
pass-through server.  This example sweeps a Zipf-popular working set
across the cache-capacity boundary and shows the double-edged sword of
NCache's memory layout: big wins while the working set fits, and a
sharper fall-off than the original once the chunk descriptors start
eating into effective capacity.

Run:  python examples/web_accelerator.py
"""

from repro.experiments.common import measure, scaled_memory_config
from repro.servers import MB, ServerMode, TestbedSpec
from repro.workloads import SpecWebWorkload

#: Shrink the paper's 896 MB geometry 4x so the sweep runs in seconds.
SCALE = 4
WORKING_SETS_MB = (250, 500, 750, 900)


def run_point(mode: ServerMode, working_set_mb: int) -> float:
    # One cell, the way every experiment runs one: a spec, a workload,
    # and the measurement protocol (warm-started from the ranked paths).
    testbed = TestbedSpec.web(mode, **scaled_memory_config(SCALE)).build()
    workload = SpecWebWorkload(
        testbed, working_set_bytes=working_set_mb * MB // SCALE)
    measure(testbed, workload, quick=True, ranked=workload.paths)
    return testbed.meters.throughput.mb_per_second()


def main() -> None:
    print("kHTTPd, Zipf-popular static pages, working-set sweep")
    print(f"(paper-geometry working sets; memory scaled {SCALE}x down)")
    print("-" * 60)
    print(f"{'working set':>12s} {'original':>10s} {'NCache':>10s} "
          f"{'gain':>8s}")
    for ws in WORKING_SETS_MB:
        orig = run_point(ServerMode.ORIGINAL, ws)
        ncache = run_point(ServerMode.NCACHE, ws)
        gain = (ncache / orig - 1) * 100
        print(f"{ws:>9d} MB {orig:9.1f}M {ncache:9.1f}M {gain:+7.1f}%")
    print()
    print("Paper Figure 6(a): +10-20% while the set fits; the NCache curve")
    print("drops hardest past ~750 MB because chunk descriptors shrink its")
    print("effective cache capacity.")


if __name__ == "__main__":
    main()
