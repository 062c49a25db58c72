"""The shared HTTP/1.1 codec at the serve boundary, driven over real sockets.

The router and the worker frame requests with one codec, so a malformed
request gets the same bytes back from either; client mistakes are 400s
(never a dropped connection, never a 503 from the router's retry); an
idle connection is closed once the head-read timeout expires; and a
handler crash is a logged 500 that closes the connection.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import time

import pytest

from repro.serve import (
    ServeClient,
    ServerConfig,
    ShardConfig,
    ShardThread,
    http,
)
from repro.serve.server import EvalServer
from repro.serve.shard import ShardSupervisor, _Worker


def _exchange(host, port, raw):
    """Send raw bytes, read until the server closes the connection."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.fixture(scope="module")
def shard():
    thread = ShardThread(
        ShardConfig(workers=2, server=ServerConfig(batch_window_ms=5.0))
    ).start()
    yield thread
    thread.stop()


MALFORMED = {
    "request-line": b"NONSENSE\r\n\r\n",
    "header-line": b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
    "non-numeric-length": (
        b"POST /evaluate HTTP/1.1\r\nContent-Length: ten\r\n\r\n"
    ),
    "negative-length": (
        b"POST /evaluate HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
    ),
    "oversized-length": (
        b"POST /evaluate HTTP/1.1\r\nContent-Length: 5000000\r\n\r\n"
    ),
}


@pytest.mark.parametrize("raw", MALFORMED.values(), ids=list(MALFORMED))
def test_router_and_worker_answer_malformed_requests_alike(shard, raw):
    worker = shard.supervisor.workers[0]
    routed = _exchange(shard.host, shard.port, raw)
    direct = _exchange(worker.host, worker.port, raw)
    assert routed == direct
    head = routed.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
    assert head[0] in (
        b"HTTP/1.1 400 Bad Request",
        b"HTTP/1.1 413 Payload Too Large",
    )
    assert b"Connection: close" in head


@pytest.mark.parametrize(
    "path,body",
    [
        ("/evaluate", {"design": {"library": ["a"]}}),
        (
            "/splits",
            {"design": {"library": ["a"]}, "pairs": [["7nm", "14nm"]]},
        ),
        ("/evaluate", {"design": {"dies": [{}]}}),
    ],
)
def test_poison_bodies_are_400_through_the_router(shard, path, body):
    client = ServeClient(shard.host, shard.port, timeout=60.0)
    response = client.post(path, body)
    assert response.status == 400, response.body
    assert response.error_code == "invalid_request"


def test_negative_content_length_leaves_no_in_flight_entry(
    serve_factory,
):
    server = serve_factory.server()
    raw = MALFORMED["negative-length"]
    assert _exchange(server.host, server.port, raw).startswith(
        b"HTTP/1.1 400"
    )
    snapshot = serve_factory.client(server).get("/debug/obs").json()
    assert [e["endpoint"] for e in snapshot["in_flight"]] == ["debug/obs"]


def test_idle_connection_is_closed(serve_factory, monkeypatch):
    monkeypatch.setattr(http, "HEAD_TIMEOUT_S", 0.2)
    server = serve_factory.server()
    started = time.perf_counter()
    # Half a head, then silence: the server hangs up without answering.
    half = b"GET /healthz HTTP/1.1\r\n"
    assert _exchange(server.host, server.port, half) == b""
    assert time.perf_counter() - started < 5.0
    assert serve_factory.client(server).get("/healthz").status == 200


def test_router_replaces_pooled_connections_the_worker_closed(
    serve_factory, monkeypatch
):
    # The worker hangs up idle keep-alive connections once the head-read
    # timeout expires; the router's pool then holds several half-open
    # sockets, and the next forward must still reach the worker.
    monkeypatch.setattr(http, "HEAD_TIMEOUT_S", 0.2)
    server = serve_factory.server()
    supervisor = ShardSupervisor(ShardConfig(workers=1))
    worker = _Worker(slot=0, host=server.host, port=server.port)

    async def healthz():
        status, _headers, _payload = await supervisor._forward(
            worker, "GET", "/healthz", {}, b""
        )
        return status

    async def drive():
        warm = await asyncio.gather(*(healthz() for _ in range(3)))
        pooled = len(worker.idle)
        await asyncio.sleep(0.6)
        return warm, pooled, [await healthz() for _ in range(3)]

    warm, pooled, after_idle = asyncio.run(drive())
    assert warm == [200, 200, 200]
    assert pooled == 3
    assert after_idle == [200, 200, 200]


def test_handler_crash_is_a_logged_500(serve_factory, monkeypatch, caplog):
    async def crash(self, request, obs):
        raise RuntimeError("boom")

    server = serve_factory.server()
    monkeypatch.setattr(EvalServer, "_answer", crash)
    with caplog.at_level(logging.ERROR, logger="repro.serve.http"):
        raw = _exchange(
            server.host,
            server.port,
            b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n",
        )
    head, body = raw.split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 500 Internal Server Error")
    assert b"Connection: close" in head.split(b"\r\n")
    assert json.loads(body)["error"]["message"] == "RuntimeError: boom"
    assert "unhandled error serving GET /healthz" in caplog.text
    monkeypatch.undo()
    assert serve_factory.client(server).get("/healthz").status == 200
    obs = serve_factory.client(server).get("/debug/obs").json()
    assert [e["endpoint"] for e in obs["in_flight"]] == ["debug/obs"]
