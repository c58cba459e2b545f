"""Transport behaviour: UDP/TCP delivery, hooks, costs, checksums."""

import pytest

from repro.copymodel import CopyDiscipline
from repro.net import (
    BytesPayload,
    Endpoint,
    Host,
    JunkPayload,
    Network,
    VirtualPayload,
    count_placeholder_keys,
)
from repro.net.buffer import PlaceholderPayload
from repro.sim import SimulationError, start
from conftest import CopyWindow, drive


def udp_receiver(host, port=9):
    got = []

    host.stack.udp_bind(port, got.append)
    return got


class TestUdp:
    def test_delivery_and_payload_bytes(self, sim, two_hosts):
        a, b = two_hosts
        got = udp_receiver(b)
        payload = VirtualPayload(1, 0, 8000)

        def send():
            yield from a.stack.udp_send("a0", 5, Endpoint("b0", 9),
                                        {"m": 1}, payload)

        drive(sim, send())
        sim.run()
        assert len(got) == 1
        assert got[0].chain.payload().materialize() == payload.materialize()
        assert got[0].message == {"m": 1}

    def test_header_prepended(self, sim, two_hosts):
        a, b = two_hosts
        got = udp_receiver(b)

        def send():
            yield from a.stack.udp_send(
                "a0", 5, Endpoint("b0", 9), None,
                data=BytesPayload(b"DATA"), header=BytesPayload(b"HDR:"))

        drive(sim, send())
        sim.run()
        assert got[0].chain.payload().materialize() == b"HDR:DATA"

    def test_fragment_count_matches_cost_model(self, sim, two_hosts):
        a, b = two_hosts
        got = udp_receiver(b)

        def send():
            yield from a.stack.udp_send("a0", 5, Endpoint("b0", 9), None,
                                        VirtualPayload(1, 0, 32768))

        drive(sim, send())
        sim.run()
        assert got[0].n_frames == a.costs.udp_frames(32768)

    def test_unbound_port_drops(self, sim, two_hosts):
        a, b = two_hosts

        def send():
            yield from a.stack.udp_send("a0", 5, Endpoint("b0", 1234), None,
                                        BytesPayload(b"x"))

        drive(sim, send())
        sim.run()
        assert b.counters["udp.dropped"].value == 1

    def test_double_bind_rejected(self, sim, two_hosts):
        _, b = two_hosts
        udp_receiver(b, 9)
        with pytest.raises(SimulationError):
            udp_receiver(b, 9)

    def test_physical_discipline_copies(self, sim, two_hosts):
        a, b = two_hosts
        udp_receiver(b)

        def send():
            yield from a.stack.udp_send(
                "a0", 5, Endpoint("b0", 9), None, VirtualPayload(1, 0, 4096),
                discipline=CopyDiscipline.PHYSICAL)

        with CopyWindow(sim) as window:
            drive(sim, send())
        assert window.physical_copies() == 1

    def test_zero_discipline_sends_junk(self, sim, two_hosts):
        a, b = two_hosts
        got = udp_receiver(b)

        def send():
            yield from a.stack.udp_send(
                "a0", 5, Endpoint("b0", 9), None, VirtualPayload(1, 0, 4096),
                discipline=CopyDiscipline.ZERO)

        with CopyWindow(sim) as window:
            drive(sim, send())
            sim.run()
        assert window.physical_copies() == 0
        body = got[0].chain.payload()
        assert body.materialize() == JunkPayload(4096).materialize()

    def test_metadata_forces_physical(self, sim, two_hosts):
        a, b = two_hosts
        udp_receiver(b)

        def send():
            yield from a.stack.udp_send(
                "a0", 5, Endpoint("b0", 9), None, BytesPayload(b"meta" * 10),
                discipline=CopyDiscipline.ZERO, is_metadata=True)

        with CopyWindow(sim) as window:
            drive(sim, send())
        assert window.physical_copies(regular_only=False) == 1

    def test_rx_marks_checksums_known(self, sim, two_hosts):
        a, b = two_hosts
        got = udp_receiver(b)

        def send():
            yield from a.stack.udp_send("a0", 5, Endpoint("b0", 9), None,
                                        VirtualPayload(1, 0, 3000))

        drive(sim, send())
        sim.run()
        assert all(buf.csum_known for buf in got[0].chain)

    def test_cpu_charged_on_both_ends(self, sim, two_hosts):
        a, b = two_hosts
        udp_receiver(b)

        def send():
            yield from a.stack.udp_send("a0", 5, Endpoint("b0", 9), None,
                                        VirtualPayload(1, 0, 8192))

        drive(sim, send())
        sim.run()
        assert a.cpu.busy_time() > 0
        assert b.cpu.busy_time() > 0


class TestTcp:
    def establish(self, sim, a, b, handler=None):
        received = []

        def default_handler(conn, dgram):
            received.append(dgram)

        def acceptor(conn):
            conn.on_message = handler or default_handler

        b.stack.tcp_listen(80, acceptor)

        def connect():
            conn = yield from a.stack.tcp_connect("a0", 1000,
                                                  Endpoint("b0", 80))
            return conn

        conn = drive(sim, connect())
        return conn, received

    def test_connect_and_send(self, sim, two_hosts):
        a, b = two_hosts
        conn, received = self.establish(sim, a, b)
        payload = VirtualPayload(2, 0, 10000)

        def send():
            yield from conn.send({"op": "put"}, payload)

        drive(sim, send())
        sim.run()
        assert len(received) == 1
        assert received[0].chain.payload().materialize() == \
            payload.materialize()

    def test_segment_count(self, sim, two_hosts):
        a, b = two_hosts
        conn, received = self.establish(sim, a, b)

        def send():
            yield from conn.send(None, VirtualPayload(1, 0, 32768))

        drive(sim, send())
        sim.run()
        assert received[0].n_frames == a.costs.tcp_segments(32768)

    def test_acks_flow_back(self, sim, two_hosts):
        a, b = two_hosts
        conn, _ = self.establish(sim, a, b)

        def send():
            yield from conn.send(None, VirtualPayload(1, 0, 32768))

        drive(sim, send())
        sim.run()
        assert a.counters["cpu.tcp.ack_rx"].value > 0
        assert b.counters["cpu.tcp.ack_tx"].value > 0

    def test_listen_twice_rejected(self, sim, two_hosts):
        _, b = two_hosts
        b.stack.tcp_listen(80, lambda conn: None)
        with pytest.raises(SimulationError):
            b.stack.tcp_listen(80, lambda conn: None)

    def test_connect_to_closed_port_errors(self, sim, two_hosts):
        a, b = two_hosts

        def connect():
            yield from a.stack.tcp_connect("a0", 1000, Endpoint("b0", 81))

        with pytest.raises(SimulationError):
            drive(sim, connect())
            sim.run()

    def test_messages_keep_order(self, sim, two_hosts):
        a, b = two_hosts
        conn, received = self.establish(sim, a, b)

        def send():
            for i in range(5):
                yield from conn.send(i, BytesPayload(bytes([i]) * 100))

        drive(sim, send())
        sim.run()
        assert [d.message for d in received] == [0, 1, 2, 3, 4]


class TestHooks:
    def test_tx_hook_can_rewrite(self, sim, two_hosts):
        a, b = two_hosts
        got = udp_receiver(b)

        def hook(dgram):
            dgram.stamped = True  # a field the hook owns
            return dgram
            yield

        a.add_tx_hook(hook)

        def send():
            yield from a.stack.udp_send("a0", 5, Endpoint("b0", 9), None,
                                        BytesPayload(b"x"))

        drive(sim, send())
        sim.run()
        assert got[0].stamped

    def test_rx_hook_runs_before_handler(self, sim, two_hosts):
        a, b = two_hosts
        order = []

        def hook(dgram):
            order.append("hook")
            return dgram
            yield

        b.add_rx_hook(hook)

        def handler(dgram):
            order.append("handler")

        b.stack.udp_bind(9, handler)

        def send():
            yield from a.stack.udp_send("a0", 5, Endpoint("b0", 9), None,
                                        BytesPayload(b"x"))

        drive(sim, send())
        sim.run()
        assert order == ["hook", "handler"]

    def test_hooks_chain_in_registration_order(self, sim, two_hosts):
        a, b = two_hosts
        udp_receiver(b)
        calls = []

        def make_hook(name):
            def hook(dgram):
                calls.append(name)
                return dgram
                yield
            return hook

        a.add_tx_hook(make_hook("first"))
        a.add_tx_hook(make_hook("second"))

        def send():
            yield from a.stack.udp_send("a0", 5, Endpoint("b0", 9), None,
                                        BytesPayload(b"x"))

        drive(sim, send())
        assert calls == ["first", "second"]


class TestMultiNic:
    def test_reply_leaves_from_arrival_nic(self, sim, network):
        server = Host(sim, "server")
        client = Host(sim, "client")
        server.add_nic(network, "s0")
        server.add_nic(network, "s1")
        client.add_nic(network, "c0")
        got = udp_receiver(client, 7)

        def handler(dgram):
            yield from server.stack.udp_send(
                dgram.dst.ip, 9, dgram.src, "reply", BytesPayload(b"r"))

        server.stack.udp_bind(9, handler)

        def send():
            yield from client.stack.udp_send("c0", 7, Endpoint("s1", 9),
                                             "req", BytesPayload(b"q"))

        drive(sim, send())
        sim.run()
        assert got[0].src.ip == "s1"

    def test_unknown_nic_rejected(self, sim, two_hosts):
        a, _ = two_hosts
        with pytest.raises(SimulationError):
            a.nic_for_ip("nope")

    def test_duplicate_ip_rejected(self, sim, network, two_hosts):
        a, _ = two_hosts
        with pytest.raises(SimulationError):
            a.add_nic(network, "a0")


class TestPlaceholderCounting:
    def test_counts_nested(self):
        from repro.core.keys import KeyedPayload
        from repro.net.buffer import concat

        keyed = [KeyedPayload(100, lbn_key=i) for i in range(3)]
        mixed = concat([BytesPayload(b"h"), *keyed])
        assert count_placeholder_keys(mixed) == 3
        assert count_placeholder_keys(BytesPayload(b"h")) == 0
        assert count_placeholder_keys(keyed[0]) == 1


class TestFlowHeaders:
    """A flow's IP and transport headers are built once, on its first
    datagram; every buffer holds its own list over them."""

    def test_one_flow_shares_header_objects(self, sim, two_hosts):
        a, b = two_hosts
        got = udp_receiver(b)

        def send(src_port):
            yield from a.stack.udp_send("a0", src_port, Endpoint("b0", 9),
                                        None, BytesPayload(b"x"))

        drive(sim, send(5))
        sim.run()
        first = got[0].chain.buffers[0].headers
        first.append("an application's own header")
        drive(sim, send(5))
        drive(sim, send(6))
        sim.run()
        second = got[1].chain.buffers[0].headers
        other = got[2].chain.buffers[0].headers
        assert second is not first
        assert len(second) == 2
        assert all(x is y for x, y in zip(first, second))
        assert not any(x is y for x, y in zip(second, other))
        assert other[1].src_port == 6


class TestHandlerContract:
    """The stack calls a receive handler at receive time and starts a
    process only for a handler that returns a generator."""

    @staticmethod
    def spy_on_start(monkeypatch):
        import repro.net.stack as stack_module

        names = []
        real = stack_module.start

        def spy(sim, gen, name=None):
            names.append(name)
            return real(sim, gen, name=name)

        monkeypatch.setattr(stack_module, "start", spy)
        return names

    def test_plain_handlers_start_no_process(self, sim, two_hosts,
                                             monkeypatch):
        a, b = two_hosts
        names = self.spy_on_start(monkeypatch)
        calls = []
        b.stack.udp_bind(9, lambda dgram: calls.append(("udp", sim.now)))

        def acceptor(conn):
            conn.on_message = lambda conn_, dgram: calls.append(
                ("tcp", sim.now))

        b.stack.tcp_listen(80, acceptor)

        def send():
            yield from a.stack.udp_send("a0", 5, Endpoint("b0", 9), None,
                                        BytesPayload(b"x"))
            conn = yield from a.stack.tcp_connect("a0", 1000,
                                                  Endpoint("b0", 80))
            yield from conn.send(None, BytesPayload(b"y"))

        drive(sim, send())
        sim.run()
        assert [proto for proto, _ in calls] == ["udp", "tcp"]
        assert all(when > 0 for _, when in calls)
        assert "udp-handler" not in names and "tcp-handler" not in names

    def test_generator_handler_runs_as_a_process(self, sim, two_hosts,
                                                 monkeypatch):
        a, b = two_hosts
        names = self.spy_on_start(monkeypatch)
        done = []

        def handler(dgram):
            yield sim.timeout(1.0)
            done.append(sim.now)

        b.stack.udp_bind(9, handler)

        def send():
            yield from a.stack.udp_send("a0", 5, Endpoint("b0", 9), None,
                                        BytesPayload(b"x"))

        drive(sim, send())
        sim.run()
        assert names.count("udp-handler") == 1
        assert len(done) == 1 and done[0] > 1.0
