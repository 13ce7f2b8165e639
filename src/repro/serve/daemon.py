"""The HTTP shell of ``repro serve``.

Stdlib-only (:mod:`http.server`) local daemon around
:class:`~repro.serve.service.SketchService`.  Endpoints:

``POST /v1/sketch``
    One sketch request (see :mod:`repro.serve.protocol`).  Status
    mapping: 200 ok · 400 malformed request · 429 shed
    (``Retry-After`` header; ``reason`` in the body) · 503 shed
    because draining · 504 deadline expired · 500 typed internal
    error.  Every failure body carries ``{"status": ..., "error":
    <exception type>, "message": ...}`` — errors are *typed*, never
    silent.
``GET /healthz``
    Liveness: 200 as long as the process serves HTTP at all.
``GET /readyz``
    Readiness: 200 while admitting; 503 once draining.
``GET /metrics``
    Prometheus exposition text from the attached
    :class:`~repro.obs.RunObserver` (queue depth, shed/served/deadline
    counters, pool worker gauges, cache hit rate, ``dropped_events``).

On SIGTERM/SIGINT the daemon drains gracefully: readiness flips,
queued requests are shed with retry hints, in-flight requests finish
(their connections stay open until the response is written), drain
state is checkpointed, and the process exits 0 — or 1 if the drain
budget expires first.

Requests are handled on per-connection threads, but compute happens on
the service's executor threads behind the admission queue — a slow or
stalled client holds only its own connection thread (and, with the
``slow_client`` chaos hook, provably not the executors).
"""

from __future__ import annotations

import json
import math
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import (
    ConfigError,
    ReproError,
    RequestDeadlineError,
    RequestShedError,
)
from ..obs.observer import RunObserver
from .config import ServeConfig
from .service import SketchService

__all__ = ["ServeDaemon"]

_MAX_BODY = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """One HTTP connection; ``self.server.daemon_ref`` is the daemon."""

    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; the daemon's
    # stdout/stderr belong to the operator, so stay quiet.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # Responses are small and written whole, so a delayed ACK on the
    # client must never hold one back (Nagle).
    disable_nagle_algorithm = True

    def _send(self, status: int, content_type: str, body: bytes,
              headers: dict | None = None) -> None:
        """Write status line, headers and body with one ``wfile.write``."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(body)
            return
        # Queue the blank line and the body behind the buffered headers
        # (end_headers() would flush the headers on their own).
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _send_json(self, status: int, doc: dict,
                   headers: dict | None = None,
                   delay: float = 0.0) -> None:
        body = json.dumps(doc).encode("utf-8")
        if delay > 0:
            # Chaos hook slow_client: the response is written late, on
            # this connection thread only — executors are long gone.
            time.sleep(delay)
        self._send(status, "application/json", body, headers)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        self._send(status, content_type, text.encode("utf-8"))

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        daemon: "ServeDaemon" = self.server.daemon_ref
        if self.path == "/healthz":
            self._send_text(200, "ok\n")
        elif self.path == "/readyz":
            if daemon.service.ready:
                self._send_text(200, "ready\n")
            else:
                self._send_text(503, "draining\n")
        elif self.path == "/metrics":
            self._send_text(
                200, daemon.observer.metrics_text(),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        else:
            self._send_json(404, {"status": "error", "error": "NotFound",
                                  "message": f"no route {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        daemon: "ServeDaemon" = self.server.daemon_ref
        if self.path != "/v1/sketch":
            self._send_json(404, {"status": "error", "error": "NotFound",
                                  "message": f"no route {self.path!r}"})
            return
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0 or length > _MAX_BODY:
            self._send_json(400, {
                "status": "error", "error": "ConfigError",
                "message": "request needs a JSON body under "
                           f"{_MAX_BODY} bytes"})
            return
        body = self.rfile.read(length)
        try:
            doc = daemon.service.handle(body)
        except RequestShedError as err:
            status = 503 if err.reason == "draining" else 429
            self._send_json(status, {
                "status": "shed", "error": type(err).__name__,
                "reason": err.reason, "retry_after": err.retry_after,
                "message": str(err),
            }, headers={"Retry-After":
                        str(max(1, math.ceil(err.retry_after)))})
        except RequestDeadlineError as err:
            self._send_json(504, {
                "status": "deadline_missed", "error": type(err).__name__,
                "phase": err.phase, "message": str(err)})
        except ConfigError as err:
            self._send_json(400, {"status": "error",
                                  "error": type(err).__name__,
                                  "message": str(err)})
        except ReproError as err:
            self._send_json(500, {"status": "error",
                                  "error": type(err).__name__,
                                  "message": str(err)})
        else:
            self._send_json(200, doc, delay=float(doc.pop("slow_client", 0)))


class ServeDaemon:
    """Owns the HTTP server, the service, signal-driven drain, and the
    process exit code."""

    def __init__(self, config: ServeConfig | None = None,
                 service: SketchService | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.service = service if service is not None \
            else SketchService(self.config)
        self.observer = RunObserver(trace=False).attach(self.service.bus)
        self._httpd: ThreadingHTTPServer | None = None
        self._drain_clean: bool | None = None
        self._drain_lock = threading.Lock()
        self._drain_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int] | None:
        """Bound ``(host, port)`` once :meth:`start` has run."""
        if self._httpd is None:
            return None
        return self._httpd.server_address[:2]

    def start(self) -> "ServeDaemon":
        """Bind the socket and start the service executors (idempotent;
        does not enter the request loop — :meth:`run` does)."""
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer((self.config.host, self.config.port),
                                    _Handler)
        httpd.daemon_threads = True
        httpd.block_on_close = True   # server_close waits for responses
        httpd.daemon_ref = self
        self._httpd = httpd
        self.service.start()
        self._write_ready_file()
        return self

    def _write_ready_file(self) -> None:
        if self.config.ready_file is None:
            return
        host, port = self.address
        tmp = self.config.ready_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"{host}:{port}\n")
        import os

        os.replace(tmp, self.config.ready_file)

    def request_drain(self) -> None:
        """Begin graceful shutdown (signal handlers land here).

        Runs the drain on a helper thread: the signal arrives on the
        main thread, which is inside ``serve_forever`` — calling
        ``shutdown()`` there would deadlock.
        """
        with self._drain_lock:
            if self._drain_thread is not None:
                return
            self._drain_thread = threading.Thread(
                target=self._drain_and_stop, name="repro-serve-drain")
            self._drain_thread.start()

    def _drain_and_stop(self) -> None:
        self._drain_clean = self.service.drain()
        if self._httpd is not None:
            self._httpd.shutdown()

    def run(self, *, install_signals: bool = True) -> int:
        """Serve until drained; returns the process exit code
        (0 = clean drain, 1 = drain budget expired)."""
        self.start()
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                signal.signal(sig, lambda _s, _f: self.request_drain())
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            # Joins in-flight connection threads so every admitted
            # request gets its response bytes before the process exits.
            self._httpd.server_close()
            if self._drain_thread is not None:
                self._drain_thread.join(timeout=self.config.drain_timeout)
            if self._drain_clean is None:
                # serve_forever ended without a signal (tests calling
                # shutdown directly): still drain for a clean exit.
                self._drain_clean = self.service.drain()
        return 0 if self._drain_clean else 1
