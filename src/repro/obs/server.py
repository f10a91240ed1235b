"""The in-run metrics endpoint: a stdlib HTTP daemon over a
:class:`~repro.obs.live.LiveAggregator`.

Opt-in via ``repro run/ensemble run --serve-metrics PORT``.  Three
routes, all read-only:

* ``GET /metrics``  — Prometheus text exposition (PR 6 discipline).
* ``GET /snapshot`` — the canonical-JSON LiveSnapshot.
* ``GET /healthz``  — 200 while healthy/recovering, 503 once the pool
  degrades to in-process draining.

``ThreadingHTTPServer`` on a daemon thread: scrapes never block the
census loop (the aggregator's lock is held only long enough to copy the
snapshot), and the process never waits on the server to exit.  Port 0
binds an ephemeral port (``server.port`` reports the real one), which is
what the tests use.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["MetricsServer", "PROMETHEUS_CONTENT_TYPE"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsServer:
    """Serve a live aggregator's views over HTTP from a daemon thread."""

    def __init__(self, aggregator, port: int = 0, host: str = "127.0.0.1"):
        agg = aggregator

        class _Handler(BaseHTTPRequestHandler):
            server_version = "repro-live"
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):  # noqa: ARG002 - silence stderr
                pass

            def do_GET(self):
                try:
                    if self.path == "/metrics":
                        code, ctype = 200, PROMETHEUS_CONTENT_TYPE
                        body = agg.to_prometheus()
                    elif self.path == "/snapshot":
                        code, ctype = 200, "application/json"
                        body = agg.snapshot_json()
                    elif self.path == "/healthz":
                        ok, status = agg.healthz()
                        code = 200 if ok else 503
                        ctype = "application/json"
                        body = json.dumps(status, sort_keys=True,
                                          separators=(",", ":"))
                    else:
                        code, ctype = 404, "text/plain; charset=utf-8"
                        body = "not found: try /metrics /snapshot /healthz\n"
                except Exception as exc:  # pragma: no cover - defensive
                    code, ctype = 500, "text/plain; charset=utf-8"
                    body = f"internal error: {exc}\n"
                payload = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    def url(self, path: str = "") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
