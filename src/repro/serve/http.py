"""Stdlib-only JSON/HTTP front end over a :class:`SessionManager`.

``repro serve`` exposes the session protocol as a tiny REST-ish API (one
JSON object in, one out), deliberately on ``http.server`` alone — the
reproduction adds no web-framework dependency:

=======  ================================  =====================================
Method   Path                              Action
=======  ================================  =====================================
GET      ``/healthz``                      liveness probe
GET      ``/metrics``                      Prometheus text exposition
GET      ``/statusz``                      JSON operational snapshot
GET      ``/sessions``                     list stored sessions (no restore)
POST     ``/sessions``                     create (``{"name", "method", ...}``)
GET      ``/sessions/<name>``              full session info (restores lazily)
POST     ``/sessions/<name>/propose``      run the selector (idempotent)
POST     ``/sessions/<name>/submit``       commit ``{"primitive", "label"}``
POST     ``/sessions/<name>/decline``      close the interaction without an LF
POST     ``/sessions/<name>/step``         one simulated-user interaction
GET      ``/sessions/<name>/score``        current test-split score
POST     ``/sessions/<name>/snapshot``     force a rotated snapshot now
=======  ================================  =====================================

Error mapping is uniform: serve-layer exceptions carry their own status
(404 unknown session, 409 protocol/name conflicts, 400 bad payloads), and
every error body is ``{"error": <message>}``.  The server is a
:class:`ThreadingHTTPServer` speaking HTTP/1.1 (every response carries
Content-Length, so clients keep connections alive instead of paying TCP
setup per command); per-session locks in the manager serialize commands
per session while letting different sessions proceed in parallel, and
client disconnects mid-request *or* mid-response are absorbed rather
than dumped as handler-thread tracebacks.

Each response leaves in one write on a ``TCP_NODELAY`` socket: the status
line, headers and body are rendered into one buffer and sent together.
Written as two pieces with Nagle's algorithm on, the body would wait for
the client's delayed ACK (about 40 ms per request on loopback), which
used to be most of a serve turn.

Observability (ENGINE.md §9): every request gets a request id (an inbound
``X-Request-Id`` is honored, one is minted otherwise — echoed back on the
response) and a span; *every* outcome — success, pre-routing errors
(405/413/unknown route), and swallowed disconnects alike — funnels
through one accounting hook, so ``repro_http_requests_total`` /
``repro_http_request_seconds`` reconcile exactly with what clients sent
and the structured access log (``repro.obs.log``) never undercounts.  A
request is accounted *before* its response is sent, so a client that has
read its reply (and then scrapes ``/metrics``) always finds it counted;
a peer that left during dispatch is detected by a non-blocking peek just
before the write and accounted as ``"disconnect"``.
"""

from __future__ import annotations

import io
import json
import socket
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.protocol import ProtocolError
from repro.obs import log_event, normalize_request_id, request_span
from repro.serve.manager import BadSessionRequest, ServeError, SessionManager

#: Request bodies above this are rejected (no legitimate payload is close).
MAX_BODY_BYTES = 1 << 20


class _HandledError(Exception):
    """Internal carrier for (status, message) error responses."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _TextPayload:
    """A non-JSON response body (``GET /metrics``' exposition text)."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: str, content_type: str) -> None:
        self.body = body
        self.content_type = content_type


#: Actions on /sessions/<name>/<action>; anything else labels as "unknown".
_KNOWN_ACTIONS = frozenset(
    {"propose", "submit", "decline", "step", "score", "snapshot"}
)


class SessionServiceHandler(BaseHTTPRequestHandler):
    """One request: route, run the manager command, write JSON."""

    #: Bound by :func:`make_server` to a concrete manager instance.
    manager: SessionManager = None
    server_version = "repro-serve/1"
    #: Every response carries Content-Length, so HTTP/1.1 keep-alive is
    #: safe — and without it every client request pays a fresh TCP setup.
    protocol_version = "HTTP/1.1"
    #: Responses are complete single writes (see ``_render``), so Nagle's
    #: algorithm has nothing to coalesce; left on, it holds back the tail
    #: of any response spanning several segments until the client's
    #: delayed ACK of the earlier ones.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------- #
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep stdout clean; the CLI prints the one line that matters

    def handle_one_request(self) -> None:
        """One keep-alive request, with client disconnects absorbed.

        Under HTTP/1.1 the handler loops reading request lines off a
        long-lived connection; a client that resets it (RST) raises
        ``ConnectionResetError`` from the *read* side, outside ``_route``'s
        protection — without this guard every abrupt disconnect dumps a
        handler-thread traceback through ``socketserver.handle_error``.
        """
        try:
            super().handle_one_request()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _render(self, status: int, payload) -> bytes:
        """The complete response (status line, headers, body) as one buffer.

        ``send_response``/``send_header``/``end_headers`` write through
        ``self.wfile``; pointing it at an in-memory buffer while they run
        lets the stdlib format the head while the socket sees a single
        write of head and body together.
        """
        if isinstance(payload, _TextPayload):
            body = payload.body.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        sock_writer, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            request_id = getattr(self, "_request_id", None)
            if request_id:
                self.send_header("X-Request-Id", request_id)
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = sock_writer
        return head + body

    def _peer_gone(self) -> bool:
        """Whether the client closed or reset the connection.

        A non-blocking peek: ``BlockingIOError`` means the peer is still
        there with nothing to send, bytes mean a pipelined next request,
        and EOF or a reset mean it left.
        """
        try:
            return self.connection.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) == b""
        except BlockingIOError:
            return False
        except (BrokenPipeError, ConnectionResetError):
            return True

    def _read_body(self) -> dict:
        self._body_consumed = True
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # refuse to read it off the socket
            raise _HandledError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HandledError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HandledError(400, "request body must be a JSON object")
        return payload

    # -- routing -------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def _drain_body(self) -> None:
        """Consume an unread request body so keep-alive stays framed.

        A handler that errors before ``_read_body`` (unknown route, 405,
        …) would otherwise leave the body on the socket, where HTTP/1.1
        connection reuse parses it as the next request line.  Oversized
        bodies are not drained — the connection is closed instead.
        """
        if getattr(self, "_body_consumed", False):
            return
        self._body_consumed = True
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
        elif length > 0:
            self.rfile.read(length)

    def _parts(self) -> list[str]:
        path = self.path.split("?", 1)[0].rstrip("/")
        return [p for p in path.split("/") if p]

    def _command_label(self, verb: str) -> str:
        """The bounded metrics/log label for this request's route.

        Derived from the URL shape alone (wrong-verb requests still label
        as their action) and never contains client-controlled strings —
        session names and unparseable paths collapse to fixed labels so
        metric cardinality cannot grow with traffic.
        """
        parts = self._parts()
        if parts in (["healthz"], ["metrics"], ["statusz"]):
            return parts[0]
        if parts[:1] == ["sessions"]:
            if len(parts) == 1:
                return "list" if verb == "GET" else "create"
            if len(parts) == 2:
                return "info"
            if len(parts) == 3 and parts[2] in _KNOWN_ACTIONS:
                return parts[2]
        return "unknown"

    def _account(self, command: str, outcome: str, seconds: float, span) -> None:
        """The single funnel every request outcome passes through.

        Success, pre-routing errors (405/413/unknown route), and absorbed
        disconnects all land here exactly once, so the request counters
        reconcile with client-side totals and the access log never
        undercounts.  ``outcome`` is the status code as text, or
        ``"disconnect"``.
        """
        registry = self.manager.metrics
        registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by command and outcome (status or disconnect).",
            ("command", "outcome"),
        ).inc(command, outcome)
        registry.histogram(
            "repro_http_request_seconds",
            "HTTP request wall seconds, by command.",
            ("command",),
        ).observe(command, value=seconds)
        log_event("http_request", command=command, outcome=outcome, **span.to_dict())

    def _route(self, verb: str) -> None:
        self._body_consumed = False
        self._request_id = normalize_request_id(self.headers.get("X-Request-Id"))
        command = self._command_label(verb)
        t0 = time.perf_counter()
        disconnected = False
        with request_span(f"http.{command}", request_id=self._request_id) as span:
            try:
                status, payload = 200, self._dispatch(verb)
            except _HandledError as exc:
                status, payload = exc.status, {"error": str(exc)}
            except ServeError as exc:
                status, payload = exc.status, {"error": str(exc)}
            except ProtocolError as exc:
                status, payload = 409, {"error": str(exc)}
            except (KeyError, TypeError, ValueError) as exc:
                status, payload = 400, {"error": f"bad request: {exc}"}
            except (BrokenPipeError, ConnectionResetError):
                # Client went away mid-request; nothing to answer, but the
                # outcome is still accounted below.
                disconnected = True
            except Exception as exc:  # pragma: no cover - defensive last resort
                status, payload = 500, {"error": f"internal error: {exc}"}
            if not disconnected:
                try:
                    self._drain_body()
                    disconnected = self._peer_gone()
                except (BrokenPipeError, ConnectionResetError):
                    disconnected = True
            if not disconnected:
                response = self._render(status, payload)
        # Accounted before the send: once the client can read its reply,
        # the counters and histogram already include this request.
        outcome = "disconnect" if disconnected else str(status)
        self._account(command, outcome, time.perf_counter() - t0, span)
        if disconnected:
            self.close_connection = True
            return
        # A client that disconnects between the peek and the write raises
        # here; the request is already accounted, so only absorb it.
        try:
            self.wfile.write(response)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _dispatch(self, verb: str) -> dict | _TextPayload:
        manager = self.manager
        parts = self._parts()
        if parts == ["healthz"]:
            if verb != "GET":
                raise _HandledError(405, "healthz accepts GET only")
            return {"ok": True, "root": str(manager.root)}
        if parts == ["metrics"]:
            if verb != "GET":
                raise _HandledError(405, "metrics accepts GET only")
            return _TextPayload(
                manager.metrics.render_prometheus(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if parts == ["statusz"]:
            if verb != "GET":
                raise _HandledError(405, "statusz accepts GET only")
            return manager.statusz()
        if parts[:1] != ["sessions"] or len(parts) > 3:
            raise _HandledError(404, f"unknown path {self.path!r}")
        if len(parts) == 1:
            if verb == "GET":
                return {"sessions": manager.sessions()}
            body = self._read_body()
            if "name" not in body:
                raise BadSessionRequest("create requires a 'name' field")
            known = {
                "name",
                "method",
                "dataset",
                "scale",
                "seed",
                "user_threshold",
                "dataset_seed",
            }
            unknown = set(body) - known
            if unknown:
                raise BadSessionRequest(
                    f"unknown create field(s) {sorted(unknown)}; allowed: {sorted(known)}"
                )
            return manager.create(**body)
        name = parts[1]
        if len(parts) == 2:
            if verb != "GET":
                raise _HandledError(405, "session root accepts GET only")
            return manager.info(name)
        action = parts[2]
        if verb == "GET":
            if action == "score":
                return manager.score(name)
            raise _HandledError(405, f"{action!r} requires POST")
        if action == "propose":
            return manager.propose(name)
        if action == "submit":
            body = self._read_body()
            if "primitive" not in body or "label" not in body:
                raise BadSessionRequest("submit requires 'primitive' and 'label'")
            return manager.submit(name, body["primitive"], body["label"])
        if action == "decline":
            return manager.decline(name)
        if action == "step":
            return manager.step(name)
        if action == "snapshot":
            return manager.snapshot(name)
        if action == "score":
            return manager.score(name)
        raise _HandledError(404, f"unknown action {action!r}")


def make_server(
    manager: SessionManager, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-serve threaded HTTP server bound to ``manager``.

    ``port=0`` asks the OS for a free port; read the bound address from
    ``server.server_address``.  Call ``serve_forever()`` (typically on a
    thread) and ``shutdown()``/``server_close()`` to stop.
    """
    handler = type(
        "BoundSessionServiceHandler", (SessionServiceHandler,), {"manager": manager}
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server
