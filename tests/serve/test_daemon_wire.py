"""How the daemon puts a response on the wire.

A response written as two ``send()`` calls (headers, then body) on a
socket with Nagle's algorithm on waits for the client's delayed ACK
before the body leaves: about 40 ms per small response on a keep-alive
connection.  Every response must therefore go out in one write, on a
connection with ``TCP_NODELAY`` set.
"""

import http.client
import json
import socket
import threading

import pytest

from repro.serve.config import ServeConfig
from repro.serve.daemon import ServeDaemon, _Handler

MATRIX = {"random": [300, 60, 0.05], "seed": 11}


class _CountingWriter:
    """Proxy for a handler's ``wfile`` that logs every ``write``."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def wire(monkeypatch):
    """A daemon in this process; yields ``(connection, writes, nodelay)``."""
    writes, nodelay = [], []
    setup = _Handler.setup

    def counting_setup(self):
        setup(self)
        nodelay.append(self.connection.getsockopt(socket.IPPROTO_TCP,
                                                  socket.TCP_NODELAY))
        self.wfile = _CountingWriter(self.wfile, writes)

    monkeypatch.setattr(_Handler, "setup", counting_setup)
    daemon = ServeDaemon(ServeConfig(host="127.0.0.1", port=0, executors=1,
                                     drain_timeout=10.0)).start()
    runner = threading.Thread(target=daemon.run,
                              kwargs={"install_signals": False})
    runner.start()
    host, port = daemon.address
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        yield conn, writes, nodelay
    finally:
        conn.close()
        daemon.request_drain()
        runner.join(timeout=30)


def _roundtrip(conn, writes, method, path, body=None):
    """One request on the keep-alive connection; returns
    ``(status, payload, writes issued for this response)``."""
    before = len(writes)
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    payload = resp.read()
    return resp.status, payload, writes[before:]


class TestOneWritePerResponse:
    def test_text_response(self, wire):
        conn, writes, _ = wire
        status, payload, issued = _roundtrip(conn, writes, "GET", "/healthz")
        assert (status, payload) == (200, b"ok\n")
        assert len(issued) == 1
        assert issued[0].startswith(b"HTTP/1.1 200")
        assert issued[0].endswith(b"\r\n\r\nok\n")

    def test_json_error_response(self, wire):
        conn, writes, _ = wire
        status, payload, issued = _roundtrip(conn, writes, "GET", "/nope")
        assert status == 404
        assert json.loads(payload)["error"] == "NotFound"
        assert len(issued) == 1

    def test_sketch_digest_responses_back_to_back(self, wire):
        conn, writes, _ = wire
        request = json.dumps({"matrix": MATRIX,
                              "config": {"d": 12, "seed": 4,
                                         "driver": "serial"},
                              "output": "digest"}).encode()
        digests = set()
        for _ in range(3):
            status, payload, issued = _roundtrip(conn, writes, "POST",
                                                 "/v1/sketch", request)
            assert status == 200
            assert len(issued) == 1
            assert issued[0].endswith(payload)
            digests.add(json.loads(payload)["sketch"]["digest"])
        assert len(digests) == 1


def test_accepted_connections_disable_nagle(wire):
    conn, writes, nodelay = wire
    _roundtrip(conn, writes, "GET", "/healthz")
    assert nodelay and all(nodelay)
