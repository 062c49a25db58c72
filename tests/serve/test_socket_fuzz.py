"""Arbitrary bytes on a live worker socket never produce a 5xx.

Hypothesis draws raw request bytes — pure noise, and request-shaped
heads with fuzzed methods, paths, headers, lengths and bodies — sends
them to an in-process :class:`~repro.serve.ServerThread` and half-closes
the connection. Every exchange must end, well inside the head-read
timeout, in zero or more complete 2xx/4xx responses whose bodies are
strict JSON (no ``NaN``/``Infinity``), followed by a clean close.
"""

from __future__ import annotations

import json
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import ServerConfig, ServerThread, http

#: An exchange must finish in a fraction of the head-read timeout: the
#: half-close hands the server EOF, so nothing may wait for the timer.
EXCHANGE_BUDGET_S = http.HEAD_TIMEOUT_S / 3

_METHODS = st.sampled_from([b"GET", b"POST", b"PUT", b"HEAD", b"", b"\x00"])
_PATHS = st.sampled_from(
    [b"/evaluate", b"/mc", b"/splits", b"/scenarios", b"/healthz",
     b"/debug/obs", b"/nope", b"", b"*"]
)
_BODIES = st.one_of(
    st.binary(max_size=256),
    st.sampled_from(
        [b"{}", b"[]", b"null", b'{"design": "a11"}', b'{"design": NaN}',
         b'{"design": "a11", "n_chips": 1e300}', b'{"pairs": []}']
    ),
)


@st.composite
def raw_requests(draw) -> bytes:
    """Noise, or a request-shaped head over a fuzzed body."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=512))
    body = draw(_BODIES)
    length = draw(
        st.one_of(st.just(str(len(body)).encode()), st.binary(max_size=8))
    )
    headers = draw(st.lists(st.binary(max_size=40), max_size=3))
    head = (
        draw(_METHODS) + b" " + draw(_PATHS) + b" HTTP/1.1\r\n"
        + b"Content-Length: " + length + b"\r\n"
        + b"".join(header + b"\r\n" for header in headers)
        + b"\r\n"
    )
    return head + body


def _strict_json(body: bytes) -> object:
    def refuse(token: str) -> object:
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(body, parse_constant=refuse)


def _exchange(host: str, port: int, raw: bytes) -> bytes:
    """Send ``raw``, half-close, and read until the server closes."""
    with socket.create_connection(
        (host, port), timeout=EXCHANGE_BUDGET_S
    ) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _responses(stream: bytes):
    """Split a byte stream into ``(status, headers, body)`` responses."""
    while stream:
        head, sep, rest = stream.partition(b"\r\n\r\n")
        assert sep, f"truncated response head {stream[:80]!r}"
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {
            name.strip().lower(): value.strip()
            for name, _, value in (line.partition(":") for line in lines[1:])
        }
        length = int(headers["content-length"])
        assert len(rest) >= length, "truncated response body"
        yield status, headers, rest[:length]
        stream = rest[length:]


@pytest.fixture(scope="module")
def worker():
    with ServerThread(ServerConfig(port=0, batch_window_ms=1.0)) as thread:
        yield thread


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=raw_requests())
def test_arbitrary_bytes_never_get_a_5xx(worker, raw):
    started = time.perf_counter()
    stream = _exchange(worker.host, worker.port, raw)
    assert time.perf_counter() - started < EXCHANGE_BUDGET_S
    for status, headers, body in _responses(stream):
        assert 200 <= status < 500, (status, body)
        if headers.get("content-type", "").startswith("application/json"):
            _strict_json(body)
