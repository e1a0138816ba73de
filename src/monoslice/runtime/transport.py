"""HTTP/JSON wire transport.

Everything is POST. A request-response call posts the encoded request
tree to /<operation> and gets 200 with the encoded response, or 500
with a fault envelope {"fault": name, "data": encoded-or-null}. A
one-way posts the same way and gets 202 with an empty body once the
message is accepted. The clients mark each post with the kind of call
they make in the Monoslice-Kind header, "rr" or "ow". The server hands
every post to the same inbound step that local:// calls go through,
which refuses a call of the wrong kind before any handler runs: a
request-response call gets the UnknownOperation envelope and a one-way
call gets 503. A post without the header is taken as the operation's
declared kind. A body or Content-Length that cannot be read, a
Content-Length over MAX_BODY_BYTES, and a reply that cannot be encoded
get the TypeMismatch envelope, and a service that has stopped answers
503.

Each port's server runs an accept loop that hands every connection to
a pool of at most MAX_WORKERS threads. A worker reads the requests of
its connection one after another, parsing the request line and headers
by hand within MAX_LINE_BYTES and MAX_HEADERS, and writes each response
with one send. A connection stays open for the next request unless the
client asks to close it or a request was refused; one that sends
nothing for READ_TIMEOUT seconds is closed, so idle or stalled clients
hold a worker for that long at most. Servers bind all interfaces on the
port; the host part of a location is for dialing.

The clients open one connection per call, dialed by HTTPConnection,
and frame the call by hand: the request head, with Connection: close,
and the body go out in one send, and the response is read by the
server's own reader, within the same line and header limits, with a
Content-Length that must be present and at most MAX_BODY_BYTES. A
response that breaks them or ends early is a TransportError, and no
response within the call's timeout plus REPLY_GRACE is the Timeout
fault (TransportError for a one-way call). A request-response client
can be handed a waiting callback, through which another thread ends its
wait by shutting the connection down. An operation name travels
percent-encoded as UTF-8, so an ASCII name is unchanged on the wire.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from functools import partial
from http import HTTPStatus
from http.client import HTTPConnection
from typing import Callable
from urllib.parse import quote, unquote

from ..config import Location
from ..errors import MonosliceError
from ..values import (
    JsonError,
    ValueTree,
    decode_json,
    encode_json,
    from_json_value,
    load_json,
    to_json_value,
)
from .interpreter import Fault
from .pool import MAX_WORKERS, WorkerPool

CONTENT_TYPE = "application/json; charset=utf-8"
KIND_HEADER = "Monoslice-Kind"
_KIND_KEY = KIND_HEADER.lower().encode()  # as the server's header table holds it
# how often the accept loop looks for a shutdown request, which bounds how long close() takes
_POLL_SECONDS = 0.05

# what one connection may send the server
MAX_LINE_BYTES = 8192  # the request line and each header line
MAX_HEADERS = 100
MAX_BODY_BYTES = 4 * 1024 * 1024
READ_TIMEOUT = 10.0  # seconds a connection may wait for its client's next bytes
# how much longer than the call's timeout a client waits for the reply, so that
# a server-side Timeout fault arrives before the client gives up
REPLY_GRACE = 2.0


class TransportError(MonosliceError):
    """The target endpoint is unreachable or spoke garbage."""


def encode_fault(fault: Fault) -> bytes:
    envelope = {
        "fault": fault.name,
        "data": to_json_value(fault.data) if fault.data is not None else None,
    }
    text = json.dumps(envelope, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
    return text.encode("utf-8")


def decode_fault(body: bytes) -> Fault:
    try:
        envelope = load_json(body.decode("utf-8"))
        name, data = envelope["fault"], envelope.get("data")
        if not isinstance(name, str):
            raise TypeError(f"fault name {name!r} is not a string")
        return Fault(name, from_json_value(data) if data is not None else None)
    except (ValueError, LookupError, TypeError, RecursionError, JsonError) as exc:
        raise TransportError(f"malformed fault envelope: {exc}") from exc


# ---------------------------------------------------------------------------
# server

# offer(operation, request, kind or None, timeout) -> reply tree | Fault | None (one-way
# accepted); raises TransportError when the call is refused
Offer = Callable[[str, ValueTree, str | None, float], ValueTree | Fault | None]


class HttpPortServer:
    """One HTTP server per socket input port, handing each post to offer."""

    def __init__(self, port: int, offer: Offer, timeout: float):
        self.offer = offer
        self.timeout = timeout
        self._pool = WorkerPool(f"http-port-{port}-worker", MAX_WORKERS, lambda: self._serve)
        self._open: set[socket.socket] = set()  # accepted connections not yet closed
        self._open_lock = threading.Lock()
        self._listener = _Listener(("", port), self._accept)
        self._thread = threading.Thread(
            target=self._listener.serve_forever,
            args=(_POLL_SECONDS,),
            name=f"http-port-{port}",
            daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    def close(self) -> None:
        # shutdown() blocks forever unless serve_forever is actually running
        if self._thread.is_alive():
            self._listener.shutdown()
        self._listener.server_close()
        # a worker waiting for a request reads the end of its connection at once,
        # while one still answering a request can send its response
        with self._open_lock:
            for connection in self._open:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        self._pool.stop()

    def _accept(self, connection: socket.socket) -> None:
        with self._open_lock:
            self._open.add(connection)
        self._pool.submit(connection)

    def _serve(self, connection: socket.socket) -> None:
        try:
            connection.settimeout(READ_TIMEOUT)
            reader = _Reader(connection)
            while self._answer(reader):
                pass
        except OSError:  # the client went away, or stopped reading its response
            pass
        finally:
            with self._open_lock:
                self._open.discard(connection)
            connection.close()

    def _answer(self, reader: "_Reader") -> bool:
        """Read one request and answer it; returns whether to read another."""
        try:
            operation, request, kind, keep = _read_request(reader)
        except _Refused as refused:
            return _send(reader.connection, refused.status, refused.body, False)
        except (EOFError, socket.timeout) as exc:
            if not reader.started:  # idle, or the client closed between requests
                return False
            status = 408 if isinstance(exc, socket.timeout) else 400
            return _send(reader.connection, status, b'"incomplete request"', False)
        try:
            result = self.offer(operation, request, kind, self.timeout)
        except TransportError as exc:
            return _send(reader.connection, 503, encode_json(ValueTree(str(exc))), keep)
        try:
            if result is None:
                status, body = 202, b""
            elif isinstance(result, Fault):
                status, body = 500, encode_fault(result)
            else:
                status, body = 200, encode_json(result)
        except ValueError as exc:  # say, an integer with more digits than JSON converts
            status, body = 500, _mismatch(f"the reply cannot be encoded: {exc}")
        return _send(reader.connection, status, body, keep)


def _read_request(reader: "_Reader") -> tuple[str, ValueTree, str | None, bool]:
    """The operation, request tree, call kind and keep-alive of the next post.

    Raises _Refused for a request that gets no call, and EOFError or
    socket.timeout when the client stops sending.
    """
    method, target, version, headers = reader.head()
    if method != b"POST":
        raise _Refused(405 if method == b"GET" else 501, "only POST is served")
    if b"transfer-encoding" in headers:
        raise _Refused(411, "the body must come with a Content-Length")
    try:
        length = _content_length(headers.get(b"content-length", b"0"))
        if length and version == b"HTTP/1.1" and (
            headers.get(b"expect", b"").lower() == b"100-continue"
        ):
            reader.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        request = decode_json(reader.read(length)) if length else ValueTree()
    except (ValueError, JsonError) as exc:
        # the connection closes: the unread rest of the body is no request
        raise _Refused(500, str(exc), _mismatch(str(exc))) from None
    kind = headers.get(_KIND_KEY)
    connection = headers.get(b"connection", b"").lower()
    return (
        unquote(target.decode("utf-8", "replace").lstrip("/")),
        request,
        None if kind is None else kind.decode("latin-1"),
        connection != b"close" if version == b"HTTP/1.1" else connection == b"keep-alive",
    )


def _content_length(value: bytes) -> int:
    """A Content-Length header's value; ValueError unless it is digits within MAX_BODY_BYTES."""
    if not value.isdigit():
        raise ValueError(f"Content-Length {value.decode('latin-1')!r} is not a number")
    length = int(value)
    if length > MAX_BODY_BYTES:
        raise ValueError(f"Content-Length {length} is over the limit of {MAX_BODY_BYTES}")
    return length


class _Listener(socketserver.TCPServer):
    """The accept loop of one port; every accepted connection goes to on_accept."""

    allow_reuse_address = True
    request_queue_size = 2 * MAX_WORKERS

    def __init__(self, address, on_accept: Callable[[socket.socket], None]):
        self.on_accept = on_accept
        super().__init__(address, None)

    def process_request(self, request, client_address) -> None:
        self.on_accept(request)


class _Refused(Exception):
    """Input that breaks the protocol or a limit, named by reason.

    The server answers it with status and body and closes the connection;
    the client raises TransportError.
    """

    def __init__(self, status: int, reason: str, body: bytes | None = None):
        super().__init__(reason)
        self.status = status
        self.body = json.dumps(reason).encode() if body is None else body


_VERSIONS = (b"HTTP/1.1", b"HTTP/1.0")


class _Reader:
    """The bytes a connection has sent and not yet been parsed."""

    def __init__(self, connection: socket.socket):
        self.connection = connection
        self.buffer = b""
        self.started = False  # whether any byte of the current request arrived

    def _recv(self, size: int) -> bytes:
        chunk = self.connection.recv(size)
        if not chunk:
            raise EOFError()
        self.started = True
        return chunk

    def line(self, too_long: int) -> bytes:
        """The next line, without its line end; a longer one is refused with too_long."""
        while (end := self.buffer.find(b"\n")) < 0:
            if len(self.buffer) > MAX_LINE_BYTES:
                raise _Refused(too_long, "line too long")
            self.buffer += self._recv(65536)
        if end > MAX_LINE_BYTES:
            raise _Refused(too_long, "line too long")
        line, self.buffer = self.buffer[:end], self.buffer[end + 1 :]
        return line[:-1] if line.endswith(b"\r") else line

    def head(self) -> tuple[bytes, bytes, bytes, dict[bytes, bytes]]:
        """The method, target and version of a request line, and the headers."""
        self.started = bool(self.buffer)
        words = self.line(414).split()
        if len(words) != 3:
            raise _Refused(400, "malformed request line")
        method, target, version = words
        if version not in _VERSIONS:
            if version.startswith(b"HTTP/"):
                raise _Refused(505, "only HTTP/1.0 and HTTP/1.1 are spoken here")
            raise _Refused(400, "malformed request line")
        return method, target, version, self.headers()

    def headers(self) -> dict[bytes, bytes]:
        """The header lines up to the blank line (lower-case names, first wins)."""
        headers: dict[bytes, bytes] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self.line(431)
            if not line:
                return headers
            name, colon, value = line.partition(b":")
            if not colon or not name or name != name.strip():
                raise _Refused(400, "malformed header line")
            headers.setdefault(name.lower(), value.strip())
        raise _Refused(431, "too many headers")

    def read(self, size: int) -> bytes:
        """Exactly size bytes."""
        if len(self.buffer) < size:
            parts, have = [self.buffer], len(self.buffer)
            while have < size:
                chunk = self._recv(min(size - have, 1 << 20))
                parts.append(chunk)
                have += len(chunk)
            self.buffer = b"".join(parts)
        data, self.buffer = self.buffer[:size], self.buffer[size:]
        return data


def _mismatch(reason: str) -> bytes:
    return encode_fault(Fault("TypeMismatch", ValueTree(reason)))


_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n".encode() for s in HTTPStatus}
_HEADERS = b"Content-Type: " + CONTENT_TYPE.encode() + b"\r\nContent-Length: %d\r\n"


def _send(connection: socket.socket, status: int, body: bytes, keep: bool) -> bool:
    """Write one response in one send; returns keep."""
    end = b"\r\n" if keep else b"Connection: close\r\n\r\n"
    connection.sendall(_STATUS_LINES[status] + _HEADERS % len(body) + end + body)
    return keep


# ---------------------------------------------------------------------------
# client

# waiting(wake) is told how another thread can end a caller's wait for its
# reply, and waiting(None) once the wait is over
Waiting = Callable[[Callable[[], None] | None], None]


def http_invoke_rr(
    location: Location, operation: str, request: ValueTree, timeout: float, waiting: Waiting | None = None
) -> ValueTree | Fault:
    """Call a request-response operation over HTTP.

    Returns the response tree or the remote fault; a server-side timeout
    comes back as the fault named Timeout. Raises TransportError when
    the endpoint is unreachable and converts a client-side socket
    timeout into the Timeout fault as well. The request must already be
    its JSON image, as RunningSystem.call makes every message it sends.
    waiting, when given, is handed a function that shuts the call's
    connection down, so that another thread can end the wait with a
    TransportError, and then None once the call is over.
    """
    try:
        status, body = _post(location, operation, "rr", encode_json(request), timeout, waiting)
    except _TimeoutFault:
        return Fault("Timeout", ValueTree(f"no reply from {location} within {timeout}s"))
    if status == 200:
        try:
            return decode_json(body)
        except JsonError as exc:
            raise TransportError(f"undecodable response from {location}: {exc}") from exc
    if status == 500:
        return decode_fault(body)
    raise TransportError(f"unexpected status {status} from {location}")


def http_invoke_ow(location: Location, operation: str, message: ValueTree, timeout: float) -> None:
    """Send a one-way message over HTTP; returns once the target accepts it.

    The message must already be its JSON image, as RunningSystem.call
    makes every message it sends.
    """
    try:
        status, _ = _post(location, operation, "ow", encode_json(message), timeout)
    except _TimeoutFault:
        raise TransportError(f"{location} did not accept the message in time") from None
    if status == 202:
        return
    raise TransportError(f"unexpected status {status} from {location}")


class _TimeoutFault(Exception):
    pass


_REQUEST_HEAD = (
    b"POST /%s HTTP/1.1\r\nHost: %s:%d\r\nContent-Type: "
    + CONTENT_TYPE.encode()
    + b"\r\nContent-Length: %d\r\n"
    + KIND_HEADER.encode()
    + b": %s\r\nConnection: close\r\n\r\n"
)


def _post(
    location: Location, operation: str, kind: str, body: bytes, timeout: float, waiting: Waiting | None = None
) -> tuple[int, bytes]:
    """Post one encoded call on a connection of its own; returns the status and body.

    Raises _TimeoutFault when no reply comes within timeout plus
    REPLY_GRACE, and TransportError when the target cannot be reached,
    answers outside the protocol or its limits, or refuses the call with
    503.
    """
    host = location.host.encode("idna")
    head = _REQUEST_HEAD % (
        quote(operation, safe="").encode("ascii"),
        b"[%s]" % host if b":" in host else host,
        location.port,
        len(body),
        kind.encode("ascii"),
    )
    # HTTPConnection only dials: it resolves the host, sets the timeout and TCP_NODELAY
    connection = HTTPConnection(location.host, location.port, timeout=timeout + REPLY_GRACE)
    try:
        connection.connect()
        if waiting is not None:
            waiting(partial(_shut_down, connection.sock))
        connection.sock.sendall(head + body)
        status, reply = _read_response(_Reader(connection.sock))
    except socket.timeout:
        raise _TimeoutFault() from None
    except EOFError:
        raise TransportError(f"{location} closed the connection mid-response") from None
    except _Refused as exc:
        raise TransportError(f"malformed response from {location}: {exc}") from None
    except OSError as exc:
        raise TransportError(f"cannot reach {location}: {exc}") from exc
    finally:
        if waiting is not None:
            waiting(None)
        connection.close()
    if status == 503:
        reason = reply.decode("utf-8", errors="replace")
        raise TransportError(f"{location} refused the call: {reason}")
    return status, reply


def _shut_down(sock: socket.socket) -> None:
    """End a client's wait for its response: what it reads next is the end of the stream."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # the call ended and closed its socket first
        pass


# the status of the client's refusals, which it raises as TransportError whatever the status
_BAD_RESPONSE = 502


def _read_response(reader: _Reader) -> tuple[int, bytes]:
    """The status and body of the response to a post, within the server's limits."""
    version, _, rest = reader.line(_BAD_RESPONSE).partition(b" ")
    code = rest[:3]
    if version not in _VERSIONS or not code.isdigit() or rest[3:4] not in (b"", b" "):
        raise _Refused(_BAD_RESPONSE, "malformed status line")
    length = reader.headers().get(b"content-length")
    if length is None:
        raise _Refused(_BAD_RESPONSE, "no Content-Length")
    try:
        size = _content_length(length)
    except ValueError as exc:
        raise _Refused(_BAD_RESPONSE, str(exc)) from None
    return int(code), reader.read(size)
