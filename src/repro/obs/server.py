"""Embedded scrape server: live ``/metrics`` over a running pipeline.

Every exporter so far is post-hoc — a snapshot taken after the run
finishes.  A production monitor needs the
pull model instead: an HTTP endpoint a Prometheus scraper, a readiness
probe, or a human with ``curl`` can hit *while the pipeline runs*.

:class:`ObsServer` is that endpoint — a dependency-free
``http.server.ThreadingHTTPServer`` on a daemon thread:

``GET /metrics``
    The registry in Prometheus text exposition format
    (:func:`~repro.obs.export.to_prometheus`), refreshed through the
    pipeline telemetry's probe hook first so queue depths are current.

``GET /snapshot``
    The JSON document of :func:`~repro.obs.export.to_json`.

``GET /healthz``
    Liveness + stage health as JSON: run state, per-stage
    events/queue-depth summary, the overload detector state, hold-back
    stall flag, and quarantined shards.  Always ``200`` while the
    process lives — degradation is reported in the body (``status``),
    matching the liveness-vs-readiness split.

``GET /readyz``
    ``200`` once the pipeline has started delivering (and from then
    on), ``503`` before.

``GET /spans``
    The most recent span-ring entries of the bound
    :class:`~repro.obs.spans.SpanTracer` as JSON (``?limit=N``,
    default 256) — the live tail of the Perfetto timeline.

Thread safety: request handlers run on server threads while the
pipeline thread keeps publishing.  Registry snapshots and span-ring
reads are internally locked (see :class:`~repro.obs.metrics.MetricsRegistry`
and :meth:`~repro.obs.spans.SpanTracer.events_tail`); the health
callback reads plain attributes, which is safe under the GIL.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional
from urllib.parse import parse_qs, urlparse

from repro.obs.export import to_json, to_prometheus
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_TRACER, SpanTracer

_log = get_logger("obs.server")

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default span-ring entries served by ``/spans``.
DEFAULT_SPANS_LIMIT = 256


class ObsServer:
    """Serves one registry (and optionally one tracer) over HTTP.

    Parameters
    ----------
    registry:
        The metrics registry to expose.
    tracer:
        Span tracer backing ``/spans`` (defaults to the shared no-op
        tracer, which serves an empty ring).
    health:
        Zero-argument callable returning the ``/healthz`` JSON body.
        Must be safe to call from a server thread; defaults to a
        minimal always-ready document.
    refresh:
        Zero-argument callable run before each ``/metrics`` and
        ``/snapshot`` render (the pipeline telemetry's probe pull).
    host / port:
        Bind address; port ``0`` picks a free port (the bound port is
        available as :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        tracer: Optional[SpanTracer] = None,
        health: Optional[Callable[[], Dict]] = None,
        refresh: Optional[Callable[[], None]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._health = health
        self._refresh = refresh
        self._host = host
        self._requested_port = port
        #: The actually bound port, cached at :meth:`start` so the
        #: ephemeral-port case (``port=0``) stays reportable even after
        #: :meth:`stop` tears the socket down (result banners read it
        #: post-run).
        self._bound_port: Optional[int] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        #: Requests served per path (plain ints; scrape self-accounting
        #: lands in the registry on each refresh).
        self.requests_served = 0
        self._requests_counter = registry.counter(
            "ocep_obs_requests_total",
            "HTTP requests served by the embedded scrape server",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The actually bound port — with ``port=0`` this is the
        ephemeral port the OS picked, never the requested ``0``.
        Stays readable after :meth:`stop` (the last bound port)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        if self._bound_port is not None:
            return self._bound_port
        raise RuntimeError("server never started")

    @property
    def url(self) -> str:
        """Scrape base URL with the actual bound port.  A wildcard bind
        address is rendered as a loopback address (a URL containing
        ``0.0.0.0`` is not fetchable)."""
        host = self._host
        if host in ("", "0.0.0.0", "::"):
            host = "127.0.0.1"
        return f"http://{host}:{self.port}"

    def start(self) -> int:
        """Bind, spawn the serving thread (daemon), return the port."""
        if self._httpd is not None:
            return self.port
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), handler
        )
        self._bound_port = self._httpd.server_address[1]
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="ocep-obs-server",
            daemon=True,
        )
        self._thread.start()
        _log.info("scrape server listening", extra={"url": self.url})
        return self.port

    def stop(self) -> None:
        """Shut the server down and join the serving thread."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ObsServer":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # Rendering (called from handler threads)
    # ------------------------------------------------------------------

    def _run_refresh(self) -> None:
        self._requests_counter.set_total(self.requests_served)
        if self._refresh is not None:
            self._refresh()

    def render_metrics(self) -> str:
        self._run_refresh()
        return to_prometheus(self.registry)

    def render_snapshot(self) -> str:
        self._run_refresh()
        return to_json(self.registry)

    def render_health(self) -> Dict:
        if self._health is not None:
            return self._health()
        return {"status": "ok", "ready": True, "running": False}

    def render_spans(self, limit: int) -> Dict:
        return {
            "limit": limit,
            "total_recorded": len(self.tracer),
            "events": self.tracer.events_tail(limit),
        }


def _make_handler(server: ObsServer):
    class _Handler(BaseHTTPRequestHandler):
        # Scrapes are frequent; route access logs to the structured
        # logger at debug instead of spraying stderr.
        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            _log.debug(format % args)

        def _send(self, status: int, body: str, content_type: str) -> None:
            payload = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _send_json(self, status: int, document: Dict) -> None:
            self._send(
                status,
                json.dumps(document, indent=2, sort_keys=True, default=repr)
                + "\n",
                "application/json; charset=utf-8",
            )

        def do_GET(self) -> None:  # noqa: N802 - stdlib casing
            server.requests_served += 1
            parsed = urlparse(self.path)
            try:
                if parsed.path == "/metrics":
                    self._send(200, server.render_metrics(),
                               PROMETHEUS_CONTENT_TYPE)
                elif parsed.path == "/snapshot":
                    self._send(200, server.render_snapshot() + "\n",
                               "application/json; charset=utf-8")
                elif parsed.path == "/healthz":
                    self._send_json(200, server.render_health())
                elif parsed.path == "/readyz":
                    health = server.render_health()
                    ready = bool(health.get("ready"))
                    self._send_json(200 if ready else 503,
                                    {"ready": ready})
                elif parsed.path == "/spans":
                    query = parse_qs(parsed.query)
                    try:
                        limit = int(query.get("limit", [DEFAULT_SPANS_LIMIT])[0])
                        if limit < 0:
                            raise ValueError
                    except ValueError:
                        self._send_json(400, {"error": "bad limit"})
                        return
                    self._send_json(200, server.render_spans(limit))
                else:
                    self._send_json(404, {"error": f"no route {parsed.path}"})
            except BrokenPipeError:
                pass  # scraper went away mid-response
            except Exception as exc:  # pragma: no cover - defensive
                _log.warning("request failed", extra={"error": repr(exc)})
                try:
                    self._send_json(500, {"error": repr(exc)})
                except OSError:
                    pass

    return _Handler


__all__ = [
    "DEFAULT_SPANS_LIMIT",
    "ObsServer",
    "PROMETHEUS_CONTENT_TYPE",
]
