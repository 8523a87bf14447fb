"""Client resilience: reconnect, retries, deadlines, circuit breaker.

Driven against a scripted stub server — a plain threaded TCP listener
speaking the frame protocol — so each test controls exactly when the
connection dies, when replies go missing, and what the server answers.
"""

import socket
import threading
import time

import pytest

from repro.core.ops import UpdateOp
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
)
from repro.net.client import ReachabilityClient
from repro.net.protocol import recv_frame_file, send_frame_sync


class StubServer:
    """Accept one connection per handler in *script*, then stop."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        for handler in self.script:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            try:
                handler(self, conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass
        self.thread.join(timeout=5)


def answer(op_fields):
    """Handler: read one request, reply with *op_fields*, close."""
    def handler(server, conn):
        request = recv_frame_file(conn.makefile("rb"))
        if request is None:
            return
        server.requests.append(request)
        reply = {"v": request["v"], "id": request["id"]}
        reply.update(op_fields)
        send_frame_sync(conn, reply)
    return handler


def drop_after_read(server, conn):
    """Handler: read the request, then close without replying."""
    request = recv_frame_file(conn.makefile("rb"))
    if request is not None:
        server.requests.append(request)


def drop_immediately(server, conn):
    """Handler: close the connection without reading anything."""


def hang_after_read(server, conn):
    """Handler: read the request, then go silent (connection open)."""
    request = recv_frame_file(conn.makefile("rb"))
    if request is not None:
        server.requests.append(request)
    try:
        conn.settimeout(10.0)
        conn.recv(1)  # blocks until the client hangs up
    except OSError:
        pass


def serve_forever(server, conn):
    """Handler: keep answering pings on one connection."""
    rfile = conn.makefile("rb")
    while True:
        request = recv_frame_file(rfile)
        if request is None:
            return
        server.requests.append(request)
        send_frame_sync(
            conn, {"v": request["v"], "id": request["id"], "ok": True}
        )


class TestReconnect:
    def test_idempotent_call_survives_a_server_restart(self):
        # Connection 1 dies after one reply (a restarting server);
        # connection 2 answers — the caller never sees the reset.
        server = StubServer([answer({"ok": True}), serve_forever])
        try:
            with ReachabilityClient(
                "127.0.0.1", server.port, retries=2, backoff=0.01
            ) as client:
                assert client.ping()["ok"] is True
                assert client.ping()["ok"] is True  # transparently redialed
                assert client.resilience["reconnects"] >= 1
                assert client.resilience["retries"] >= 1
        finally:
            server.close()

    def test_retry_budget_is_bounded(self):
        server = StubServer([drop_immediately, drop_immediately,
                             drop_immediately])
        try:
            with ReachabilityClient(
                "127.0.0.1", server.port, retries=1, backoff=0.01,
                breaker_threshold=0,
            ) as client:
                with pytest.raises(ProtocolError):
                    client.ping()
        finally:
            server.close()


class TestNonIdempotent:
    def test_update_is_not_replayed_after_a_lost_reply(self):
        # The update reached the server (the send succeeded) but the
        # reply was lost — replaying could double-apply, so the client
        # must surface the failure instead.  serve_forever would answer
        # a replay; assert it never sees one.
        server = StubServer([drop_after_read, serve_forever])
        try:
            with ReachabilityClient(
                "127.0.0.1", server.port, retries=3, backoff=0.01
            ) as client:
                with pytest.raises(ProtocolError):
                    client.apply(UpdateOp.insert_edge("a", "b"))
                updates = [
                    r for r in server.requests if r.get("op") == "update"
                ]
                assert len(updates) == 1
        finally:
            server.close()


class TestDeadline:
    def test_deadline_caps_a_silent_server(self):
        server = StubServer([hang_after_read, hang_after_read,
                             hang_after_read])
        try:
            client = ReachabilityClient(
                "127.0.0.1", server.port, retries=2, backoff=0.01
            )
            start = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                client.ping(deadline=0.3)
            assert time.monotonic() - start < 5.0
            client.close()
        finally:
            server.close()


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_and_cools_down(self):
        server = StubServer([answer({"ok": True})])
        with ReachabilityClient(
            "127.0.0.1", server.port, retries=0, backoff=0.01,
            breaker_threshold=2, breaker_reset=0.2,
        ) as client:
            assert client.ping()["ok"] is True
            server.close()  # endpoint gone: connects now fail fast
            for _ in range(2):
                with pytest.raises(ProtocolError):
                    client.ping()
            # Threshold reached: the next call fails locally.
            with pytest.raises(CircuitOpenError) as excinfo:
                client.ping()
            assert excinfo.value.retry_after_ms > 0
            assert client.resilience["breaker_opens"] == 1
            # After the cooldown the breaker lets an attempt through
            # (which still fails on the wire, not locally).
            time.sleep(0.25)
            with pytest.raises(ProtocolError):
                client.ping()


class TestServerVerdictsAreNotRetried:
    def test_overloaded_is_raised_once(self):
        server = StubServer([
            answer({
                "ok": False,
                "error": {"code": "overloaded", "message": "shed",
                          "retry_after_ms": 5.0},
            }),
            serve_forever,
        ])
        try:
            with ReachabilityClient(
                "127.0.0.1", server.port, retries=3, backoff=0.01
            ) as client:
                with pytest.raises(OverloadedError):
                    client.ping()
                assert len(server.requests) == 1
        finally:
            server.close()
