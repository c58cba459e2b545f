"""HTTP messages, kHTTPd server, client."""

import pytest

from repro.http import (
    HEADER_TERMINATOR,
    HttpRequest,
    HttpResponse,
    find_body_offset,
    response_body,
)
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.process import start
from conftest import CopyWindow


def make_testbed(mode=ServerMode.ORIGINAL, **overrides):
    testbed = TestbedSpec.web(mode, connections_per_client=1,
                              **overrides).build()
    testbed.image.create_file("index.html", 70_000)
    testbed.setup()
    return testbed


def run_scenario(testbed, gen):
    proc = start(testbed.sim, gen)
    run_until_complete(testbed.sim, proc)
    return proc.value


class TestMessages:
    def test_request_serializes_with_terminator(self):
        raw = HttpRequest("GET", "/a.html").serialize()
        assert raw.startswith(b"GET /a.html HTTP/1.1\r\n")
        assert raw.endswith(HEADER_TERMINATOR)

    def test_response_header_contains_length(self):
        response = HttpResponse(status=200, content_length=1234)
        assert b"Content-Length: 1234" in response.serialize_header()

    def test_header_size_matches_bytes(self):
        response = HttpResponse(status=200, content_length=5)
        assert response.header_size == len(response.serialize_header())

    def test_find_body_offset(self):
        raw = b"HTTP/1.1 200 OK\r\nA: b\r\n\r\nBODY"
        assert raw[find_body_offset(raw):] == b"BODY"

    def test_find_body_offset_missing(self):
        assert find_body_offset(b"HTTP/1.1 200 OK\r\nA: b") == -1

    def test_extra_headers_rendered(self):
        response = HttpResponse(status=200, content_length=0,
                                headers={"X-Test": "1"})
        assert b"X-Test: 1" in response.serialize_header()


class TestKHttpd:
    def test_get_returns_exact_file_bytes(self):
        testbed = make_testbed()
        inode = testbed.image.lookup("index.html")

        def scenario():
            response, dgram = yield from testbed.http_clients[0].get(
                "index.html")
            return response, dgram

        response, dgram = run_scenario(testbed, scenario())
        assert response.ok
        assert response.content_length == 70_000
        assert response_body(dgram) == \
            testbed.image.file_payload(inode, 0, 70_000).materialize()

    def test_404_for_missing_page(self):
        testbed = make_testbed()

        def scenario():
            response, _ = yield from testbed.http_clients[0].get("nope.html")
            return response

        response = run_scenario(testbed, scenario())
        assert response.status == 404
        assert testbed.khttpd.not_found == 1

    def test_leading_slash_normalized(self):
        testbed = make_testbed()

        def scenario():
            response, _ = yield from testbed.http_clients[0].get(
                "/index.html")
            return response

        assert run_scenario(testbed, scenario()).ok

    def test_sendfile_copy_counts(self):
        testbed = make_testbed()

        def scenario():
            with CopyWindow(testbed.sim) as miss:
                yield from testbed.http_clients[0].get("index.html")
            with CopyWindow(testbed.sim) as hit:
                yield from testbed.http_clients[0].get("index.html")
            return miss, hit

        miss, hit = run_scenario(testbed, scenario())
        assert miss.physical_copies(where="server") == 2
        assert hit.physical_copies(where="server") == 1

    def test_keepalive_multiple_requests(self):
        testbed = make_testbed()

        def scenario():
            for _ in range(3):
                response, _ = yield from testbed.http_clients[0].get(
                    "index.html")
                assert response.ok

        run_scenario(testbed, scenario())
        assert testbed.khttpd.requests_served == 3

    def test_pipelined_requests_pair_in_order(self):
        testbed = make_testbed()
        testbed.image.create_file("two.html", 5000)
        from repro.sim import AllOf

        def one(path):
            response, _ = yield from testbed.http_clients[0].get(path)
            return response.content_length

        def scenario():
            procs = [start(testbed.sim, one("index.html")),
                     start(testbed.sim, one("two.html"))]
            return (yield AllOf(testbed.sim, procs))

        lengths = run_scenario(testbed, scenario())
        assert lengths == [70_000, 5000]

    def test_ncache_mode_serves_real_bytes(self):
        testbed = make_testbed(mode=ServerMode.NCACHE)
        inode = testbed.image.lookup("index.html")

        def scenario():
            yield from testbed.http_clients[0].get("index.html")  # warm
            _, dgram = yield from testbed.http_clients[0].get("index.html")
            return dgram

        dgram = run_scenario(testbed, scenario())
        assert response_body(dgram) == \
            testbed.image.file_payload(inode, 0, 70_000).materialize()

    def test_baseline_mode_serves_junk(self):
        testbed = make_testbed(mode=ServerMode.BASELINE)
        inode = testbed.image.lookup("index.html")

        def scenario():
            _, dgram = yield from testbed.http_clients[0].get("index.html")
            return dgram

        dgram = run_scenario(testbed, scenario())
        assert response_body(dgram) != \
            testbed.image.file_payload(inode, 0, 70_000).materialize()
        assert len(response_body(dgram)) == 70_000
