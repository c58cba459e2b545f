"""HTTP measurement client (keep-alive, one request outstanding per call)."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional, Tuple

from ..copymodel.materialize import materialize
from ..net.addresses import Endpoint
from ..net.buffer import BytesPayload
from ..net.host import Host
from ..net.network import Datagram
from ..net.stack import TCPConnection
from ..sim.engine import Event, SimulationError
from .messages import HttpRequest, HttpResponse


class HttpClient:
    """One persistent connection to a web server.

    Responses on a connection arrive in request order (our TCP is lossless
    and ordered), so a FIFO of waiters pairs them up; callers may pipeline.
    """

    def __init__(self, host: Host, local_ip: str, server: Endpoint,
                 local_port: int = 40000) -> None:
        self.host = host
        self.local_ip = local_ip
        self.server = server
        self.local_port = local_port
        self.conn: Optional[TCPConnection] = None
        self._waiters: Deque = deque()

    def connect(self) -> Generator[Event, Any, None]:
        self.conn = yield from self.host.stack.tcp_connect(
            self.local_ip, self.local_port, self.server)
        self.conn.on_message = self._on_response

    def _on_response(self, conn: TCPConnection, dgram: Datagram
                     ) -> Generator[Event, Any, None]:
        if not self._waiters:
            raise SimulationError("HTTP response with no request outstanding")
        self._waiters.popleft().succeed(dgram)
        return
        yield  # pragma: no cover - generator marker

    # ``trace`` is never read: benchmarks/ncbench/oracle.py (frozen) passes it.
    def get(self, path: str, trace: None = None
            ) -> Generator[Event, Any, Tuple[HttpResponse, Datagram]]:
        """GET ``path``; returns (response, datagram-with-body)."""
        if self.conn is None:
            raise SimulationError("client used before connect()")
        request = HttpRequest("GET", "/" + path.lstrip("/"))
        waiter = self.host.sim.event()
        self._waiters.append(waiter)
        yield from self.conn.send(
            request, data=BytesPayload(b""),
            header=BytesPayload(request.serialize()), is_metadata=True)
        dgram = yield waiter
        return dgram.message, dgram


def response_body(dgram: Datagram, bus: Optional[Any] = None) -> "bytes":
    """Materialize the body bytes of a response datagram (tests only).

    A verification point: goes through the copymodel chokepoint so the
    materialization is lint-visible and traced.
    """
    response: HttpResponse = dgram.message
    whole = dgram.chain.payload()
    data = materialize(whole, why="client_verify", bus=bus)
    return data[response.header_size:]
