"""The JSON/HTTP front end: routing, error mapping, restart behaviour."""

import http.client
import io
import json
import socket
import threading
from http.server import ThreadingHTTPServer

import pytest

from repro.serve import ServeClientError, SessionClient, SessionManager, make_server
from repro.serve.http import SessionServiceHandler

CFG = dict(method="snorkel", dataset="amazon", scale="tiny", seed=5)
CREATE_S1 = json.dumps({"name": "s1", **CFG}).encode("utf-8")


@pytest.fixture()
def service(tmp_path):
    manager = SessionManager(tmp_path, snapshot_every=2, keep_last=2)
    server = make_server(manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = SessionClient(f"http://{host}:{port}")
    yield manager, client, tmp_path
    server.shutdown()
    server.server_close()


class TestRoutes:
    def test_health_and_unknown_paths(self, service):
        _, client, _ = service
        assert client.health()["ok"] is True
        with pytest.raises(ServeClientError) as err:
            client._request("GET", "/nothing/here")
        assert err.value.status == 404

    def test_full_interaction_flow(self, service):
        _, client, _ = service
        created = client.create("s1", **CFG)
        assert created["iteration"] == 0 and created["n_checkpoints"] == 1

        proposal = client.propose("s1")
        assert proposal["dev_index"] is not None
        assert proposal["primitives"]
        again = client.propose("s1")  # idempotent across HTTP retries
        assert again["token"] == proposal["token"]

        result = client.submit("s1", sorted(proposal["primitives"])[0], 1)
        assert result["outcome"] == "submitted"
        assert result["iteration"] == 1 and result["n_lfs"] == 1

        proposal = client.propose("s1")
        declined = client.decline("s1")
        assert declined["outcome"] == "declined"
        assert declined["iteration"] == 2
        assert declined["snapshotted"] is True  # snapshot_every=2

        stepped = client.step("s1")
        assert stepped["outcome"] in {"submitted", "declined", "exhausted"}
        score = client.score("s1")
        assert 0.0 <= score["test_score"] <= 1.0
        info = client.info("s1")
        assert info["iteration"] == 3
        assert [s["name"] for s in client.sessions()] == ["s1"]

    def test_error_statuses(self, service):
        _, client, _ = service
        client.create("s1", **CFG)
        with pytest.raises(ServeClientError) as err:
            client.create("s1", **CFG)
        assert err.value.status == 409
        with pytest.raises(ServeClientError) as err:
            client.info("ghost")
        assert err.value.status == 404
        with pytest.raises(ServeClientError) as err:
            client.decline("s1")  # no open interaction
        assert err.value.status == 409
        client.propose("s1")
        with pytest.raises(ServeClientError) as err:
            client.submit("s1", "no-such-primitive-token", 1)
        assert err.value.status == 400
        with pytest.raises(ServeClientError) as err:
            client.snapshot("s1")  # open interaction
        assert err.value.status == 409
        with pytest.raises(ServeClientError) as err:
            client._request("POST", "/sessions", {"name": "x", "bogus": 1})
        assert err.value.status == 400
        with pytest.raises(ServeClientError) as err:
            client._request("POST", "/sessions/s1/unknown-verb")
        assert err.value.status == 404

    def test_keepalive_connection_reused_across_commands(self, service):
        """HTTP/1.1 + Content-Length: one TCP connection serves many commands."""
        _, client, _ = service
        client.create("s1", **CFG)
        conn, fresh = client._connection()
        assert not fresh  # create already opened this thread's connection
        for _ in range(3):
            client.step("s1")
        again, fresh = client._connection()
        assert again is conn and not fresh  # never re-dialed
        client.close()

    def test_disconnect_mid_response_does_not_kill_handler(self, service, capsys):
        """A client that vanishes before reading the response must be
        absorbed — the success-path write raises from the handler thread."""
        import socket
        import struct
        import time

        _, client, _ = service
        client.create("s1", **CFG)
        host, port = client._host, client._port
        for _ in range(3):
            raw = socket.create_connection((host, port))
            # RST on close (SO_LINGER 0): the handler's response write
            # raises ConnectionResetError instead of buffering into a FIN.
            raw.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            raw.sendall(b"GET /sessions HTTP/1.1\r\nHost: x\r\n\r\n")
            raw.close()
        time.sleep(0.3)  # let the handler threads hit the dead sockets
        assert client.sessions()  # server still answers
        assert "Traceback" not in capsys.readouterr().err

    def test_unread_body_is_drained_for_keepalive(self, service):
        """An errored POST whose body was never read must not leave the
        body bytes on the socket to corrupt the next keep-alive request."""
        _, client, _ = service
        with pytest.raises(ServeClientError) as err:
            client._request("POST", "/sessions/ghost/unknown-verb", {"pad": "x" * 256})
        assert err.value.status == 404
        # Same connection, next command parses cleanly.
        assert client.health()["ok"] is True

    def test_restart_resumes_over_http(self, service, tmp_path):
        manager, client, root = service
        client.create("s1", **CFG)
        for _ in range(4):
            client.step("s1")
        # a second service over the same root (the restarted server)
        manager2 = SessionManager(root, snapshot_every=2, keep_last=2)
        server2 = make_server(manager2)
        thread = threading.Thread(target=server2.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server2.server_address[:2]
            client2 = SessionClient(f"http://{host}:{port}")
            assert client2.info("s1")["iteration"] == 4
            assert client2.step("s1")["iteration"] == 5
        finally:
            server2.shutdown()
            server2.server_close()


class _RecordingSocket:
    """Proxy for an accepted socket that records every outbound send,
    with the request counters as they stood at that moment."""

    def __init__(self, sock, sends, manager):
        self._sock = sock
        self._sends = sends
        self._manager = manager

    def _record(self, data):
        counter = self._manager.metrics.get("repro_http_requests_total")
        counted = {} if counter is None else dict(counter.items())
        self._sends.append((bytes(data), counted))  # before the send: no race

    def sendall(self, data):
        self._record(data)
        return self._sock.sendall(data)

    def send(self, data):
        self._record(data)
        return self._sock.send(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def recorded(tmp_path):
    """A live server whose handler records each connection's sends and
    its TCP_NODELAY flag as seen on the accepted socket."""
    manager = SessionManager(tmp_path, snapshot_every=2, keep_last=2)
    sends, nodelay = [], []

    class RecordingHandler(SessionServiceHandler):
        def setup(self):
            self.request = _RecordingSocket(self.request, sends, self.manager)
            super().setup()
            nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

    RecordingHandler.manager = manager
    server = ThreadingHTTPServer(("127.0.0.1", 0), RecordingHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    yield conn, sends, nodelay
    conn.close()
    server.shutdown()
    server.server_close()


def _exchange(conn, sends, method, path, body=None):
    """One request on the keep-alive connection; returns (response, body,
    the sends the server made for it)."""
    sends.clear()
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    payload = resp.read()
    return resp, payload, list(sends)


class TestTransport:
    """A response is one write on a TCP_NODELAY socket, made after the
    request is accounted.

    Written as a header segment then a body segment with Nagle's algorithm
    on, every response waits for the client's delayed ACK; these pin the
    two properties that rule the stall out by counting sends rather than
    timing them, and read the request counters at the moment of the send.
    """

    def test_accepted_connection_has_nodelay(self, recorded):
        conn, sends, nodelay = recorded
        resp, _, _ = _exchange(conn, sends, "GET", "/healthz")
        assert resp.status == 200
        assert nodelay and all(flag != 0 for flag in nodelay)

    def _assert_single_send(self, resp, payload, sent):
        assert len(sent) == 1, [chunk[:40] for chunk, _ in sent]
        head, _, body = sent[0][0].partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d" % resp.status)
        assert body == payload
        assert int(resp.getheader("Content-Length")) == len(payload)

    def test_request_is_accounted_before_its_response_is_sent(self, recorded):
        conn, sends, _ = recorded
        for n in (1, 2):
            _, _, sent = _exchange(conn, sends, "GET", "/healthz")
            assert sent[0][1][("healthz", "200")] == n
        _, _, sent = _exchange(conn, sends, "GET", "/nothing/here")
        assert sent[0][1][("unknown", "404")] == 1

    def test_json_200_is_one_send(self, recorded):
        conn, sends, _ = recorded
        resp, _, _ = _exchange(conn, sends, "POST", "/sessions", CREATE_S1)
        assert resp.status == 200
        resp, payload, sent = _exchange(conn, sends, "POST", "/sessions/s1/propose")
        assert resp.status == 200 and b"primitives" in payload
        self._assert_single_send(resp, payload, sent)

    @pytest.mark.parametrize(
        "method, path, status",
        [("GET", "/nothing/here", 404), ("POST", "/healthz", 405)],
    )
    def test_error_body_is_one_send(self, recorded, method, path, status):
        conn, sends, _ = recorded
        resp, payload, sent = _exchange(conn, sends, method, path)
        assert resp.status == status and b"error" in payload
        self._assert_single_send(resp, payload, sent)

    def test_metrics_exposition_is_one_send(self, recorded):
        conn, sends, _ = recorded
        _exchange(conn, sends, "POST", "/sessions", CREATE_S1)
        _exchange(conn, sends, "POST", "/sessions/s1/propose")
        _exchange(conn, sends, "GET", "/sessions/s1/score")
        resp, payload, sent = _exchange(conn, sends, "GET", "/metrics")
        assert resp.status == 200
        assert resp.getheader("Content-Type").startswith("text/plain")
        # Larger than a default buffered writer holds, which would split
        # it into a header write and a body write.
        assert len(payload) > io.DEFAULT_BUFFER_SIZE
        self._assert_single_send(resp, payload, sent)
