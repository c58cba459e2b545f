"""Output checks: are the bytes clients read the bytes they should read?

Two checks, both through the clients' public calls:

* :func:`probe` — after every timed run (traced or not), a handful of
  extra requests whose reply bytes are materialised and compared:
  never-written extents against ``FsImage.file_payload`` on the
  read-only workloads, a WRITE-then-READ round trip on a private file
  on the write workload.  It runs after the window, so it costs the
  measurement nothing.
* :class:`Oracle` — in the traced run only, wraps ``NfsClient.call`` and
  ``HttpClient.get`` and verifies a sample of the replies *while the
  load runs*: the expected bytes of each 4 KB block are the last
  acknowledged WRITE to it, else the file's initial content; a reply is
  skipped when any of its blocks had a WRITE in flight during the read.
  WRITEs to one block that overlapped in time may have been applied in
  either order, so the block may then hold any of them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Tuple

from repro.copymodel.materialize import materialize
from repro.http.client import response_body
from repro.net.buffer import VirtualPayload
from repro.nfs.client import read_reply_data
from repro.nfs.protocol import NfsProc
from repro.servers.testbed import run_until_complete
from repro.sim.process import start
from repro.sim.rng import substream

from .measure import testbeds_of

BLOCK = 4096
#: Verify one reply in this many (traced run).
SAMPLE_EVERY = 4
#: Requests per post-run probe.
PROBE_REQUESTS = 32
PROBE_FILE = "ncbench-probe"


def _initial_bytes(image: Any, ino: int, offset: int, length: int) -> bytes:
    return image.file_payload(image.inode(ino), offset, length).materialize()


class Oracle:
    """In-flight reply verification for the traced run.

    WRITEs are tracked from the moment the wrappers are installed (the
    warm-up writes too); replies are verified once :attr:`image` is set.
    """

    def __init__(self) -> None:
        self.image: Any = None
        #: (ino, block) -> the WRITEs the block may hold, each as
        #: (payload, offset of the block inside it); more than one only
        #: after WRITEs that overlapped in time.
        self.acked: Dict[Tuple[int, int], List[Tuple[Any, int]]] = {}
        self.in_flight: Dict[Tuple[int, int], int] = {}
        #: blocks with overlapping WRITEs not all acknowledged yet
        self.contended: set = set()
        #: (ino, block) -> sequence number of the last WRITE start/ack
        self.touched: Dict[Tuple[int, int], int] = {}
        self.seq = 0
        self.replies = 0
        self.verified = 0
        self.mismatched = 0
        self.skipped = 0

    # -- bookkeeping ---------------------------------------------------------

    @staticmethod
    def _blocks(ino: int, offset: int, count: int) -> List[Tuple[int, int]]:
        return [(ino, b) for b in range(offset // BLOCK,
                                        (offset + count - 1) // BLOCK + 1)]

    def _write_started(self, ino: int, offset: int, count: int) -> None:
        self.seq += 1
        for key in self._blocks(ino, offset, count):
            if self.in_flight.get(key, 0) and key not in self.contended:
                # Whatever the block held is about to be overwritten by
                # one of the overlapping WRITEs; which one is open.
                self.contended.add(key)
                self.acked[key] = []
            self.in_flight[key] = self.in_flight.get(key, 0) + 1
            self.touched[key] = self.seq

    def _write_acked(self, ino: int, offset: int, data: Any) -> None:
        self.seq += 1
        for key in self._blocks(ino, offset, data.length):
            self.in_flight[key] -= 1
            self.touched[key] = self.seq
            written = (data, key[1] * BLOCK - offset)
            if key in self.contended:
                self.acked.setdefault(key, []).append(written)
                if not self.in_flight[key]:
                    self.contended.discard(key)
            else:
                self.acked[key] = [written]

    def matches(self, ino: int, offset: int, count: int, got: bytes) -> bool:
        """Whether ``got`` is what a READ of the extent may return."""
        for key in self._blocks(ino, offset, count):
            lo = max(offset, key[1] * BLOCK)
            hi = min(offset + count, (key[1] + 1) * BLOCK)
            written = self.acked.get(key)
            if written is None:
                allowed = [_initial_bytes(self.image, ino, lo, hi - lo)]
            else:
                allowed = [data.slice(at + lo - key[1] * BLOCK,
                                      hi - lo).materialize()
                           for data, at in written]
            if got[lo - offset:hi - offset] not in allowed:
                return False
        return True

    # -- checks (wrapped as ``bench`` spans by the traced run) ---------------

    def check_read(self, ino: int, offset: int, count: int, dgram: Any,
                   issued_seq: int) -> None:
        if self.image is None:
            return
        self.replies += 1
        if self.replies % SAMPLE_EVERY:
            return
        if any(self.in_flight.get(key, 0)
               or self.touched.get(key, 0) > issued_seq
               for key in self._blocks(ino, offset, count)):
            self.skipped += 1
            return
        self.verified += 1
        reply = dgram.message
        got = materialize(read_reply_data(dgram), why="ncbench_oracle")
        if reply.status != 0 or not self.matches(ino, offset, count, got):
            self.mismatched += 1

    def check_get(self, path: str, result: Any) -> None:
        if self.image is None:
            return
        self.replies += 1
        if self.replies % SAMPLE_EVERY:
            return
        self.verified += 1
        response, dgram = result
        inode = self.image.lookup(path.lstrip("/"))
        if response.status != 200 or response_body(dgram) != _initial_bytes(
                self.image, inode.ino, 0, inode.size):
            self.mismatched += 1

    # -- wrappers installed around the client entry points -------------------

    def around_nfs_call(self, original: Callable) -> Callable:
        oracle = self

        def call(client: Any, proc: NfsProc, fh: Any = None, name: Any = None,
                 offset: int = 0, count: int = 0, data: Any = None,
                 trace: Any = None, new_size: Any = None
                 ) -> Generator[Any, Any, Any]:
            issued = oracle.seq
            if proc is NfsProc.WRITE:
                oracle._write_started(fh.ino, offset, count)
            dgram = yield from original(
                client, proc, fh=fh, name=name, offset=offset, count=count,
                data=data, trace=trace, new_size=new_size)
            if proc is NfsProc.READ:
                oracle.check_read(fh.ino, offset, count, dgram, issued)
            elif proc is NfsProc.WRITE:
                oracle._write_acked(fh.ino, offset, data)
            return dgram

        return call

    def around_http_get(self, original: Callable) -> Callable:
        oracle = self

        def get(client: Any, path: str, trace: Any = None
                ) -> Generator[Any, Any, Any]:
            result = yield from original(client, path, trace)
            oracle.check_get(path, result)
            return result

        return get


# ---------------------------------------------------------------------------
# post-run probe
# ---------------------------------------------------------------------------

def probe(target: Any, seed: int, read_only: bool) -> Tuple[int, int]:
    """``(attempted, failed)`` for a few verified requests after the run.

    The load keeps running while the probe does; it only touches extents
    nobody writes (or its own private file).
    """
    rng = substream(seed, "ncbench-probe")
    testbeds = testbeds_of(target)
    image = testbeds[0].image
    outcomes: List[bool] = []

    def nfs_read(testbed: Any, name: str, offset: int, count: int,
                 want: bytes) -> Generator[Any, Any, None]:
        dgram = yield from testbed.clients[0].read(
            testbed.file_handle(name), offset, count)
        got = materialize(read_reply_data(dgram), why="ncbench_probe")
        outcomes.append(dgram.message.status == 0 and got == want)

    def write_then_read() -> Generator[Any, Any, None]:
        # On a private file, so no worker's WRITE can land in between.
        testbed = testbeds[0]
        image.create_file(PROBE_FILE, PROBE_REQUESTS * 2 * BLOCK)
        fh = testbed.file_handle(PROBE_FILE)
        for i in range(PROBE_REQUESTS):
            data = VirtualPayload(0x9C0B << 32 | seed << 8 | i, 0, 2 * BLOCK)
            yield from testbed.clients[0].write(fh, i * 2 * BLOCK, data)
            yield from nfs_read(testbed, PROBE_FILE, i * 2 * BLOCK,
                                2 * BLOCK, data.materialize())

    def read_untouched() -> Generator[Any, Any, None]:
        names = sorted(n for n, ino in image.by_name.items()
                       if image.inodes[ino].is_regular)
        for i in range(PROBE_REQUESTS):
            name = names[rng.randrange(len(names))]
            inode = image.lookup(name)
            if hasattr(testbeds[0], "http_clients"):
                response, dgram = yield from \
                    testbeds[0].http_clients[0].get(name)
                outcomes.append(
                    response.status == 200 and response_body(dgram)
                    == _initial_bytes(image, inode.ino, 0, inode.size))
                continue
            count = min(8 * BLOCK, inode.size)
            offset = rng.randrange(inode.size // count) * count
            if hasattr(target, "route"):
                testbed = target.route(name, offset, salt=i).testbed
            else:
                testbed = testbeds[0]
            yield from nfs_read(testbed, name, offset, count,
                                _initial_bytes(image, inode.ino, offset,
                                               count))

    requests = read_untouched if read_only else write_then_read
    run_until_complete(target.sim, start(target.sim, requests(),
                                         name="ncbench-probe"))
    return len(outcomes), sum(1 for ok in outcomes if not ok)
