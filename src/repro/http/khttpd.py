"""kHTTPd: the in-kernel static web server.

Serves whole static files over persistent TCP connections using the
``sendfile`` path: data moves directly from the file-system buffer cache
into the network stack — one copy on a hit, two on a miss (Table 2).
Non-static requests would be punted to user space in the real kHTTPd; the
simulated workloads are all static, matching §5.3 ("only static web page
requests were used").
"""

from __future__ import annotations

from typing import Any, Generator

from ..copymodel.accounting import CopyDiscipline
from ..fs.vfs import VFS
from ..net.addresses import HTTP_PORT
from ..net.buffer import EMPTY_PAYLOAD, BytesPayload
from ..net.host import Host
from ..net.network import Datagram
from ..net.stack import TCPConnection
from ..sim.engine import Event, SimulationError
from ..sim.process import start
from ..sim.resources import Store
from .messages import HttpRequest, HttpResponse


class KHttpd:
    """In-kernel static web server over the host's VFS.

    HTTP/1.1 responses on a connection must be delivered in request order,
    so each connection gets a FIFO queue drained by one worker process;
    pipelined requests queue up behind each other exactly as they would in
    the real single-threaded kHTTPd connection handler.
    """

    def __init__(self, host: Host, vfs: VFS,
                 discipline: CopyDiscipline = CopyDiscipline.PHYSICAL,
                 port: int = HTTP_PORT) -> None:
        self.host = host
        self.vfs = vfs
        self.discipline = discipline
        self.port = port
        self.requests_served = 0
        self.not_found = 0
        #: server-side GET service time distribution.
        self._get_latency = host.counters.registry.histogram(
            "http.get.latency", unit="s")
        host.stack.tcp_listen(port, self._accept)

    def _accept(self, conn: TCPConnection) -> None:
        queue: Store = Store(self.host.sim, name="khttpd-conn")

        conn.on_message = lambda conn_, dgram: queue.put(dgram)
        start(self.host.sim, self._conn_worker(conn, queue),
              name="khttpd-worker")

    def _conn_worker(self, conn: TCPConnection, queue: Store
                     ) -> Generator[Event, Any, None]:
        while True:
            dgram = yield queue.get()
            yield from self._on_request(conn, dgram)

    def _on_request(self, conn: TCPConnection, dgram: Datagram
                    ) -> Generator[Event, Any, None]:
        request = dgram.message
        if not isinstance(request, HttpRequest):
            raise SimulationError(f"kHTTPd got {request!r}")
        t0 = self.host.sim.now
        yield from self.host.acct.compute(
            self.host.costs.http_request_ns, "http.request")
        path = request.path.lstrip("/")
        try:
            inode = self.vfs.image.lookup(path)
        except FileNotFoundError:
            self.not_found += 1
            response = HttpResponse(status=404, content_length=0)
            yield from conn.send(
                response, data=EMPTY_PAYLOAD,
                header=BytesPayload(response.serialize_header()),
                is_metadata=True)
            return
        yield from self.vfs.read_inode_metadata(inode.ino)
        payload = yield from self.vfs.sendfile_payload(inode, 0, inode.size)
        response = HttpResponse(status=200, content_length=inode.size)
        self.requests_served += 1
        yield from conn.send(
            response, data=payload,
            header=BytesPayload(response.serialize_header()),
            discipline=self.discipline, is_metadata=False)
        self._get_latency.record(self.host.sim.now - t0)
        bus = self.host.sim.trace
        if bus.enabled:
            bus.complete("http.get", t0, cat="http",
                         tid=bus.tid_for(self.host.name),
                         path=request.path, bytes=inode.size,
                         client=str(conn.remote))
