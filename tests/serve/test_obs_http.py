"""HTTP-level accounting: every outcome lands in the funnel exactly once."""

import socket
import struct
import threading
import time

import pytest

from repro.serve import ServeClientError, SessionClient, SessionManager, make_server

CFG = dict(method="snorkel", dataset="amazon", scale="tiny", seed=5)


@pytest.fixture()
def service(tmp_path):
    manager = SessionManager(tmp_path, snapshot_every=2, keep_last=2)
    server = make_server(manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = SessionClient(f"http://{host}:{port}")
    yield manager, client
    server.shutdown()
    server.server_close()


def _http_outcomes(manager):
    counter = manager.metrics.get("repro_http_requests_total")
    if counter is None:
        return {}
    return {labels: value for labels, value in counter.items()}


class TestErrorPathAccounting:
    def test_pre_routing_errors_all_funnel(self, service):
        manager, client = service

        # 405: wrong verb on a fixed route (labeled by URL shape).
        with pytest.raises(ServeClientError) as err:
            client._request("POST", "/healthz")
        assert err.value.status == 405

        # 404: unrouteable path.
        with pytest.raises(ServeClientError) as err:
            client._request("GET", "/nothing/here")
        assert err.value.status == 404

        # 404: unknown action under a session (bounded "unknown" label).
        with pytest.raises(ServeClientError) as err:
            client._request("POST", "/sessions/ghost/sideload")
        assert err.value.status == 404

        # 413: oversized body refused before reading it off the socket.
        host, port = client._host, client._port
        raw = socket.create_connection((host, port))
        try:
            raw.sendall(
                b"POST /sessions HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 3000000\r\n\r\n"
            )
            response = raw.recv(4096)
        finally:
            raw.close()
        assert b"413" in response.split(b"\r\n", 1)[0]

        # The funnel accounts a request before sending its response, so
        # the counts below are already final; the poll is only a guard.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if _http_outcomes(manager).get(("create", "413"), 0) >= 1:
                break
            time.sleep(0.01)
        outcomes = _http_outcomes(manager)
        assert outcomes[("healthz", "405")] == 1.0
        assert outcomes[("unknown", "404")] == 2.0
        assert outcomes[("create", "413")] == 1.0
        # ... and the histogram saw the same four requests.
        hist = manager.metrics.get("repro_http_request_seconds")
        total = sum(hist.count(*labels) for labels in hist.label_sets())
        assert total == 4

    def test_disconnect_is_accounted_not_lost(self, service, monkeypatch):
        manager, client = service
        host, port = client._host, client._port
        # A slow command guarantees the RST lands while the handler is
        # still working, so the response write is what fails.  A cold
        # create of the tiny dataset alone takes about as long as the
        # 50 ms grace below, so it is held back on purpose.
        create = manager.create

        def slow_create(**kwargs):
            time.sleep(0.5)
            return create(**kwargs)

        monkeypatch.setattr(manager, "create", slow_create)
        body = (
            b'{"name": "gone", "method": "snorkel", "dataset": "amazon", '
            b'"scale": "tiny", "seed": 5}'
        )
        raw = socket.create_connection((host, port))
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        raw.sendall(
            b"POST /sessions HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        time.sleep(0.05)  # let the server read the request off the socket
        raw.close()  # RST while create is still running
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if _http_outcomes(manager).get(("create", "disconnect"), 0) >= 1:
                break
            time.sleep(0.02)
        else:
            pytest.fail(
                f"disconnect outcome never accounted; saw {_http_outcomes(manager)}"
            )

    def test_request_id_echoed_and_minted(self, service):
        import http.client

        _, client = service
        conn = http.client.HTTPConnection(client._host, client._port, timeout=10)
        try:
            conn.request("GET", "/healthz", headers={"X-Request-Id": "trace-me-42"})
            resp = conn.getresponse()
            resp.read()
            assert resp.getheader("X-Request-Id") == "trace-me-42"
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            resp.read()
            assert resp.getheader("X-Request-Id", "").startswith("req-")
        finally:
            conn.close()


class TestConcurrencyReconciliation:
    def test_histogram_totals_equal_issued_commands(self, service):
        manager, client = service
        client.create("s1", **CFG)
        n_threads, n_cmds = 4, 5
        errors = []

        def worker():
            local = SessionClient(client.base_url)
            try:
                for _ in range(n_cmds):
                    local.step("s1")
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                local.close()

        pool = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert not errors

        issued = n_threads * n_cmds
        outcomes = _http_outcomes(manager)
        assert outcomes[("step", "200")] == issued
        hist = manager.metrics.get("repro_http_request_seconds")
        assert hist.count("step") == issued
        serve_cmds = manager.metrics.get("repro_serve_commands_total")
        by_labels = dict(serve_cmds.items())
        assert by_labels[("step", "ok")] == issued
        # statusz reads the same registry and must agree.
        status = manager.statusz()
        assert status["commands"]["step"]["count"] == issued
        assert status["commands"]["step"]["by_outcome"]["ok"] == issued
