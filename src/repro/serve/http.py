"""The one HTTP/1.1 codec behind the serve worker and the shard router.

Just enough HTTP/1.1 for a JSON service on loopback: a request line,
headers, ``Content-Length`` bodies (no chunked encoding) and keep-alive.
:class:`~repro.serve.server.EvalServer` and
:class:`~repro.serve.shard.ShardSupervisor` both serve through
:class:`HttpFrontEnd`, and the router talks to its workers with
:func:`write_request` / :func:`read_response`, so every framing rule —
status texts, head parsing, the body limit, the idle timeout, the
``Connection: close`` policy and the route/method table — has exactly
one definition, and a malformed request gets the same bytes back from
either process.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .protocol import BATCHED_ENDPOINTS, error_body

STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Seconds a connection may take to deliver its next request (head and
#: body); an idle or stalled client is disconnected when it expires.
HEAD_TIMEOUT_S = 30.0

#: Every route either front end serves, with the one method it accepts.
ROUTES: Dict[str, str] = {
    **{
        path: "GET"
        for path in ("/healthz", "/metrics", "/debug/obs", "/debug/trace")
    },
    **{f"/{endpoint}": "POST" for endpoint in BATCHED_ENDPOINTS},
}

#: ``(status, payload, headers)`` — what a route handler answers.
Reply = Tuple[int, bytes, Dict[str, str]]

_log = logging.getLogger(__name__)


@dataclass
class Request:
    """One parsed request. ``path`` has its query string stripped,
    header names are lower-cased, and ``started``/``started_ns`` are
    stamped right after the head arrived. ``context`` is scratch space
    a front end fills while routing (the worker keeps its per-request
    observability identity there)."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes = b""
    started: float = 0.0
    started_ns: int = 0
    context: Dict[str, Any] = field(default_factory=dict)

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


class HttpError(Exception):
    """A request the codec rejects before routing; always closes the
    connection. ``request`` is set when the head parsed."""

    def __init__(
        self,
        status: int,
        message: str,
        code: str = "invalid_request",
        request: Optional[Request] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.request = request


def _parse_head(
    head: bytes, version_at: int
) -> Tuple[List[str], Dict[str, str]]:
    """(start-line fields, lower-cased headers) of one message head.

    ``version_at`` is where the ``HTTP/`` field sits: 2 on a request
    line, 0 on a status line.
    """
    lines = head.decode("latin-1").split("\r\n")
    start = lines[0].split(" ", 2)
    if len(start) != 3 or not start[version_at].startswith("HTTP/"):
        kind = "request" if version_at else "status"
        raise ValueError(f"malformed {kind} line {lines[0]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"malformed header line {line!r}")
        name, value = line.split(":", 1)
        headers[name.strip().lower()] = value.strip()
    return start, headers


def _content_length(headers: Mapping[str, str]) -> int:
    value = headers.get("content-length", "") or "0"
    if not (value.isascii() and value.isdigit()):
        raise ValueError("bad Content-Length header")
    return int(value)


async def read_request(
    reader: asyncio.StreamReader, max_body: int
) -> Request:
    """Read one request.

    Raises :class:`HttpError` for a request the codec refuses, and lets
    ``IncompleteReadError`` through for a connection that should just be
    closed.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise HttpError(400, "headers too large") from None
    started, started_ns = time.perf_counter(), time.time_ns()
    try:
        start, headers = _parse_head(head, version_at=2)
    except ValueError as error:
        raise HttpError(400, str(error)) from None
    request = Request(
        method=start[0].upper(),
        path=start[1].split("?", 1)[0],
        headers=headers,
        started=started,
        started_ns=started_ns,
    )
    try:
        length = _content_length(headers)
    except ValueError as error:
        raise HttpError(400, str(error), request=request) from None
    if length > max_body:
        raise HttpError(
            413,
            f"body of {length} bytes exceeds the {max_body}-byte limit",
            "payload_too_large",
            request,
        )
    if length:
        request.body = await reader.readexactly(length)
    return request


def _encode(start: str, headers: Mapping[str, str], payload: bytes) -> bytes:
    lines = [start, *(f"{name}: {value}" for name, value in headers.items())]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: bytes,
    headers: Optional[Mapping[str, str]] = None,
    close: bool = False,
) -> None:
    """Write one response (head and payload in a single write).

    A ``Content-Type`` entry in ``headers`` replaces the JSON default.
    """
    fields = {
        "Content-Type": "application/json",
        "Content-Length": str(len(payload)),
        **(headers or {}),
    }
    if close:
        fields["Connection"] = "close"
    start = f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}"
    writer.write(_encode(start, fields, payload))
    try:
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass


async def write_request(
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    headers: Mapping[str, str],
    body: bytes,
) -> None:
    """Write one request (head and body in a single write)."""
    fields = {**headers, "Content-Length": str(len(body))}
    writer.write(_encode(f"{method} {path} HTTP/1.1", fields, body))
    await writer.drain()


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    """Read one response: status, lower-cased headers, exact body.

    A malformed response raises ``ConnectionError``, so callers treat
    it like a dropped connection.
    """
    head = await reader.readuntil(b"\r\n\r\n")
    try:
        start, headers = _parse_head(head, version_at=0)
        status = int(start[1])
        length = _content_length(headers)
    except ValueError as error:
        raise ConnectionError(f"malformed response: {error}") from None
    payload = await reader.readexactly(length) if length else b""
    return status, headers, payload


def route_error(request: Request) -> Optional[Reply]:
    """The 404 or 405 for a request :data:`ROUTES` does not serve."""
    allowed = ROUTES.get(request.path)
    if allowed is None:
        return (
            404,
            error_body("not_found", f"no route for {request.path!r}"),
            {},
        )
    if request.method != allowed:
        return (
            405,
            error_body("method_not_allowed", f"use {allowed}"),
            {"Allow": allowed},
        )
    return None


class HttpFrontEnd:
    """The keep-alive connection loop the worker and the router share.

    A subclass sets ``_connections`` (live connection tasks, awaited at
    drain), ``_draining``, ``_max_body_bytes``, ``host`` and ``port``,
    implements ``start``/``stop`` and :meth:`_route`, and may override
    :meth:`_request_done`, which runs after each response is written. A
    handler exception becomes a logged 500 that closes the connection.
    """

    _connections: Dict[asyncio.Task, None]
    _draining: bool
    _max_body_bytes: int
    host: str
    port: int

    async def _route(self, request: Request) -> Reply:
        raise NotImplementedError

    def _request_done(
        self, request: Request, status: int, headers: Mapping[str, str]
    ) -> None:
        """Per-request accounting hook (the default does nothing)."""

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = None
        try:
            while await self._serve_one(reader, writer):
                if self._draining:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            if task is not None:
                self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        # A client idle or stalled past HEAD_TIMEOUT_S is hung up on:
        # aborting the transport ends the pending read with
        # IncompleteReadError. A timer, unlike asyncio.wait_for, costs
        # no extra task per request and works on every supported Python.
        expiry = asyncio.get_running_loop().call_later(
            HEAD_TIMEOUT_S, writer.transport.abort
        )
        try:
            try:
                request = await read_request(reader, self._max_body_bytes)
            finally:
                expiry.cancel()
        except HttpError as error:
            await write_response(
                writer,
                error.status,
                error_body(error.code, str(error)),
                close=True,
            )
            if error.request is not None:
                self._request_done(error.request, error.status, {})
            return False
        try:
            status, payload, headers = await self._route(request)
            keep = (
                request.keep_alive and not self._draining and status != 503
            )
        except Exception as error:  # noqa: BLE001 - the 500 boundary
            _log.exception(
                "unhandled error serving %s %s", request.method, request.path
            )
            status, payload, headers = (
                500,
                error_body("internal", f"{type(error).__name__}: {error}"),
                {},
            )
            keep = False
        await write_response(writer, status, payload, headers, close=not keep)
        self._request_done(request, status, headers)
        return keep

    async def _close_connections(self) -> None:
        """Drain-time: let open connections finish, then cancel them."""
        if self._connections:
            _done, pending = await asyncio.wait(
                set(self._connections), timeout=2.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)

    def run_forever(
        self,
        stop_event: Optional[threading.Event] = None,
        ready: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Serve until SIGINT/SIGTERM (or ``stop_event``), then drain.

        ``ready`` is called with ``(host, port)`` once the socket is
        bound — the CLI uses it to announce the ephemeral port.
        """

        async def _main() -> None:
            await self.start()
            if ready is not None:
                ready(self.host, self.port)
            loop = asyncio.get_running_loop()
            stopper: asyncio.Future = loop.create_future()

            def _request_stop() -> None:
                if not stopper.done():
                    stopper.set_result(None)

            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, _request_stop)
                except (NotImplementedError, RuntimeError):
                    pass
            waiter = None
            if stop_event is not None:
                waiter = loop.run_in_executor(None, stop_event.wait)
                waiter.add_done_callback(lambda _: _request_stop())
            try:
                await stopper
            finally:
                await self.stop()
                if waiter is not None and stop_event is not None:
                    stop_event.set()
                    await waiter

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass


class FrontEndThread:
    """A front end on a dedicated thread + event loop.

    The in-process harness used by tests, benchmarks and the smoke
    client: ``start()`` blocks until the front end is serving,
    ``stop()`` drains gracefully and joins the thread. Usable as a
    context manager.
    """

    _START_TIMEOUT_S = 30.0
    _JOIN_TIMEOUT_S = 30.0

    def __init__(self, front_end: HttpFrontEnd, name: str) -> None:
        # ``name`` labels the thread and the startup errors.
        self._front_end = front_end
        self._name = name
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self._front_end.host

    @property
    def port(self) -> int:
        return self._front_end.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self, timeout: Optional[float] = None) -> "FrontEndThread":
        if timeout is None:
            timeout = self._START_TIMEOUT_S
        self._thread = threading.Thread(
            target=self._run, name=f"{self._name}-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=timeout)
        if self._startup_error is not None:
            raise RuntimeError(
                f"{self._name} failed to start"
            ) from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError(
                f"{self._name} did not start within {timeout:g} s"
            )
        return self

    def _run(self) -> None:
        async def _main() -> None:
            loop = asyncio.get_running_loop()
            self._loop = loop
            self._stop_future: asyncio.Future = loop.create_future()
            try:
                await self._front_end.start()
            except BaseException as error:
                self._startup_error = error
                self._ready.set()
                try:  # release whatever the failed start acquired
                    await self._front_end.stop()
                except Exception:
                    pass
                return
            self._ready.set()
            await self._stop_future
            await self._front_end.stop()

        asyncio.run(_main())
        self._stopped.set()

    def stop(self) -> None:
        """Drain and shut down; safe to call from any thread, once."""
        loop = self._loop
        if loop is None or self._stopped.is_set():
            return

        def _request() -> None:
            if not self._stop_future.done():
                self._stop_future.set_result(None)

        try:
            loop.call_soon_threadsafe(_request)
        except RuntimeError:  # loop already closed
            pass
        if self._thread is not None:
            self._thread.join(timeout=self._JOIN_TIMEOUT_S)

    def __enter__(self) -> "FrontEndThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


__all__ = [
    "FrontEndThread",
    "HEAD_TIMEOUT_S",
    "HttpError",
    "HttpFrontEnd",
    "ROUTES",
    "Reply",
    "Request",
    "STATUS_TEXT",
    "read_request",
    "read_response",
    "route_error",
    "write_request",
    "write_response",
]
