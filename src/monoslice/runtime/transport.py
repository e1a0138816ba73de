"""HTTP/JSON wire transport.

Everything is POST. A request-response call posts the encoded request
tree to /<operation> and gets 200 with the encoded response, or 500
with a fault envelope {"fault": name, "data": encoded-or-null}, which
encode_json itself writes as the value tree {fault, data}, and which
decode_fault reads by the rule values.py holds for what JSON can carry,
the one every message is held to. A one-way
posts the same way and gets 202 with an empty body once the
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

The workers of each port's pool, at most MAX_WORKERS threads, take
turns to wait on the port's selector, which holds the listener and the
parked connections. The worker holding the turn takes one new or
parked connection with bytes waiting, passes the turn on to an idle
worker or a new one, and serves the connection itself. When the
listener wakes it, it accepts new connections without blocking until
one has bytes waiting or none is left, and parks each one that has sent
nothing yet, so a burst of connections leaves the listen backlog in one
wake. So the server serves at most MAX_WORKERS connections at once, and
new connections wait in a listen backlog of MAX_PARKED, which holds a
burst as large as the port may park even while a client in the same
process keeps the turn holder from running for a switch interval.
A worker reads the requests of its connection one after another,
parsing the request line and headers by hand within MAX_LINE_BYTES and
MAX_HEADERS, and writes each response with one send. A connection stays
open for the next request unless the client asks to close it, a
request was refused, or it has had MAX_REQUESTS answers: the last one
carries Connection: close, so a long-lived caller dials again now and
then (a traced perfbench query-socket run expects to count a connect in
its window). A balancer that routes per connection could then spread
that caller's traffic over a slice's replicas, but every deployment
here runs one replica. Once a connection has been answered and no byte
of a next request waits, its worker waits on it for up to LINGER
seconds, if no other worker of the port is lingering, and serves the
next request itself if one comes, with no selector and no hand-off.
Otherwise it parks the connection in the selector and is free: an idle
connection, new or answered, costs a descriptor, not a worker, and at
most one worker per port lingers. A port keeps at most MAX_PARKED
connections parked, and parking one more closes the oldest. The turn
holder closes a connection parked for READ_TIMEOUT seconds; a
connection that stalls in a request while a worker reads it is closed
after READ_TIMEOUT too. An accept that fails for want of a descriptor
or of memory makes the turn holder pause _POLL_SECONDS before it looks
again, rather than spin on a listener that stays readable.
close() shuts the connections workers serve down for reading, which
ends a linger at once, closes the parked connections and shuts the
listener down, which ends the turn holder's wait at once where the
platform allows it; elsewhere it sees the port closed within
_POLL_SECONDS. Servers bind all interfaces on the port; the host part
of a location is for dialing.

The clients take their connections from a ConnectionPool, which the
caller owns and closes: a RunningSystem has one, which shutdown closes.
A call reuses an idle connection to its (host, port), or dials a new
one with HTTPConnection, and frames the call by hand: the request head
and the body go out in one send, and the response is read by the
server's own reader, within the same line and header limits, with a
Content-Length that must be present and at most MAX_BODY_BYTES. A
response that breaks them or ends early is a TransportError, and no
response within the call's timeout plus REPLY_GRACE is the Timeout
fault (TransportError for a one-way call). A connection goes back to
the pool, which keeps at most MAX_IDLE per (host, port), only after a
call that ended normally on a response that leaves it open; a
TransportError, a timeout and a woken wait close it. A connection idle
for more than READ_TIMEOUT / 2, or readable while idle (its server
closed it), is closed instead of reused. A call is never sent twice: a
failure once the request went out is a TransportError and is not
retried. A request-response client can be handed a waiting callback,
through which another thread ends its wait by shutting the connection
down. An operation name travels percent-encoded as UTF-8, so an ASCII
name is unchanged on the wire; a name UTF-8 cannot encode, which no
service declares, is refused before anything is sent, as local://
refuses an unknown operation.
"""

from __future__ import annotations

import select
import selectors
import socket
import threading
import time
from functools import partial
from http import HTTPStatus
from http.client import HTTPConnection
from typing import Callable
from urllib.parse import quote, unquote

from ..config import Location
from ..errors import MonosliceError
from ..values import JsonError, ValueTree, _image, decode_json, encode_json
from .interpreter import Fault
from .pool import MAX_WORKERS, WorkerPool

CONTENT_TYPE = "application/json; charset=utf-8"
KIND_HEADER = "Monoslice-Kind"
_KIND_KEY = KIND_HEADER.lower().encode()  # as the server's header table holds it
# how long the turn holder waits on the selector before it looks again, which bounds
# how long close() takes where shutting the listener down does not end the wait
_POLL_SECONDS = 0.05

# what one connection may send the server
MAX_LINE_BYTES = 8192  # the request line and each header line
MAX_HEADERS = 100
MAX_BODY_BYTES = 4 * 1024 * 1024
_BODY_DIGITS = len(str(MAX_BODY_BYTES))  # no wider Content-Length is within it
READ_TIMEOUT = 10.0  # seconds a connection may wait for its client's next bytes
# seconds one worker of a port waits on a connection it answered for the next request
# before it parks the connection: a caller that sends again at once is then served
# with no selector and no hand-off
LINGER = 0.005
# requests one connection is answered, as Apache's MaxKeepAliveRequests and
# nginx's keepalive_requests (before 1.19.10) default to, so that a busy
# caller still dials now and then
MAX_REQUESTS = 100
# connections a port keeps parked; parking one more closes the oldest, so that idle
# clients cannot take every descriptor (nginx's worker_connections defaults to 512)
MAX_PARKED = 512
MAX_IDLE = 8  # idle connections a client keeps to one (host, port)
# how much longer than the call's timeout a client waits for the reply, so that
# a server-side Timeout fault arrives before the client gives up
REPLY_GRACE = 2.0


class TransportError(MonosliceError):
    """The target endpoint is unreachable or spoke garbage."""


def encode_fault(fault: Fault) -> bytes:
    # an empty tree is written null, so absent data is "data":null
    data = ValueTree() if fault.data is None else fault.data
    return encode_json(ValueTree(children={"fault": [ValueTree(fault.name)], "data": [data]}))


def decode_fault(body: bytes) -> Fault:
    """The fault an envelope names, read by the wire rule of a message.

    decode_json reads the envelope, nested at most MAX_NESTING deep, and
    its data is taken to its JSON image as a message a port admits
    (values._image), so data JSON cannot carry, such as a string with a
    lone surrogate, is refused here on whichever transport relays the
    fault on. The envelope's fault is one childless node whose root is a
    non-empty string, and it has at most one data node; an empty one
    (null or {}) is no data. Anything else is a TransportError
    "malformed fault envelope: ...".
    """
    try:
        envelope = decode_json(body).children
    except JsonError as exc:
        raise TransportError(f"malformed fault envelope: {exc}") from exc
    names, data = envelope.get("fault", ()), envelope.get("data", ())
    name = names[0].root if len(names) == 1 and not names[0].children else None
    if type(name) is not str or not name:
        raise TransportError("malformed fault envelope: its fault is not one name")
    if len(data) > 1:
        raise TransportError("malformed fault envelope: it holds more than one data")
    if not data or data[0].root is None and not data[0].children:
        return Fault(name)
    image, violation = _image(data[0])
    if violation is not None:
        raise TransportError(f"malformed fault envelope: {violation}")
    return Fault(name, image)


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
        self._pool = WorkerPool(f"http-port-{port}-worker", MAX_WORKERS)
        self._open: set[socket.socket] = set()  # connections a worker serves
        # parked connections, oldest first, to the monotonic time the turn holder closes them
        self._parked: dict[socket.socket, float] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._lingering = False  # whether a worker waits on its answered connection
        self._listener = socket.create_server(("", port), backlog=MAX_PARKED)
        self._listener.setblocking(False)  # an accept with nothing waiting returns at once
        # made by start and closed by the last turn; workers register and unregister
        # connections under _lock while the turn holder waits in select, as epoll
        # and kqueue, the selectors of Linux and the BSDs, allow
        self._selector: selectors.BaseSelector | None = None

    def start(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._pool.submit(self._take_turn, self._selector)

    def close(self) -> None:
        # a worker waiting for a request reads the end of its connection at once,
        # while one still answering a request can send its response; a parked
        # connection has no worker, so it closes here
        with self._lock:
            self._closed = True
            for connection in self._open:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            for connection in list(self._parked):
                self._drop(connection)
        _shut_down(self._listener)
        self._listener.close()
        self._pool.stop()

    def join(self, deadline: float) -> None:
        """Wait for the port's workers, once closed, until the monotonic deadline."""
        self._pool.join(deadline)

    def _take_turn(self, selector: selectors.BaseSelector) -> None:
        """Wait for a new connection or a parked one with bytes waiting, pass the turn on, then serve it."""
        while True:
            ready = selector.select(_POLL_SECONDS)
            with self._lock:
                if self._closed:  # close() closed the parked connections: no next turn
                    selector.close()
                    return
                reader = next((key.data for key, _ in ready if key.data is not None), None)
                if reader is not None:
                    selector.unregister(reader.connection)
                    del self._parked[reader.connection]
                    self._open.add(reader.connection)
                self._close_expired()
            if reader is None and ready:  # only the listener is ready
                reader = self._accept()
            if reader is not None:
                break
        self._pool.submit(self._take_turn, selector)
        self._serve(reader)

    def _close_expired(self) -> None:
        """Close the connections parked past their time; the caller holds _lock."""
        now = time.monotonic()
        expired = []
        for connection, until in self._parked.items():
            if until > now:
                break
            expired.append(connection)
        for connection in expired:
            self._drop(connection)

    def _drop(self, connection: socket.socket) -> None:
        """Close a parked connection; the caller holds _lock."""
        del self._parked[connection]
        self._selector.unregister(connection)
        connection.close()

    def _accept(self) -> "_Reader | None":
        """The first connection waiting on the listener that has sent a byte.

        Accepts until a connection has bytes to read or none waits, so
        that a burst of new connections leaves the listen backlog in one
        wake. A new connection that has sent nothing yet is parked, as an
        answered one is, so that it holds no worker while it is silent.
        None when no waiting connection has sent anything, or the port
        closed. An accept that fails for want of a descriptor or of
        memory leaves the listener readable, so it pauses _POLL_SECONDS
        before the turn holder looks again, rather than spin.
        """
        while True:
            try:
                connection, _ = self._listener.accept()
            except ConnectionAbortedError:  # the client gave up
                continue
            except BlockingIOError:  # nothing waits
                return None
            except OSError:  # the port closed, or EMFILE, ENFILE, ENOBUFS or ENOMEM
                if not self._closed:
                    time.sleep(_POLL_SECONDS)
                return None
            connection.settimeout(READ_TIMEOUT)
            reader = _Reader(connection)
            with self._lock:
                if self._closed:  # accepted as the port closed: no answer
                    connection.close()
                    return None
                if _readable(connection):
                    self._open.add(connection)
                    return reader
                self._add_parked(reader)

    def _park(self, reader: "_Reader") -> bool:
        """Leave an answered connection to the selector until it sends again; False once the port closed."""
        with self._lock:
            if self._closed:
                return False
            self._open.discard(reader.connection)
            self._add_parked(reader)
        return True

    def _add_parked(self, reader: "_Reader") -> None:
        """Park a connection until it sends or READ_TIMEOUT passes; the caller holds _lock.

        Parking one more than MAX_PARKED closes the oldest.
        """
        if len(self._parked) >= MAX_PARKED:
            self._drop(next(iter(self._parked)))
        self._parked[reader.connection] = time.monotonic() + READ_TIMEOUT
        self._selector.register(reader.connection, selectors.EVENT_READ, reader)

    def _linger(self, reader: "_Reader") -> bool:
        """Whether a next request, or the end, arrives on an answered connection within LINGER.

        At most one worker of a port lingers at a time, and none once the
        port closed, so every other answered connection parks at once and
        an idle connection costs a descriptor, not a worker. The lingering
        connection stays open, so close() ends the wait at once.
        """
        with self._lock:
            if self._lingering or self._closed:
                return False
            self._lingering = True
        try:
            return _readable(reader.connection, LINGER)
        finally:
            self._lingering = False  # only the lingering worker clears it, so no lock is needed

    def _serve(self, reader: "_Reader") -> None:
        """Answer a connection's requests until it is idle, and park it, or until it ends."""
        parked = False
        try:
            while not parked and self._answer(reader):
                parked = not reader.buffer and not self._linger(reader) and self._park(reader)
        except OSError:  # the client went away, or stopped reading its response
            pass
        finally:
            if not parked:
                with self._lock:
                    self._open.discard(reader.connection)
                reader.connection.close()

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
        reader.requests += 1
        keep = keep and reader.requests < MAX_REQUESTS
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
        # say, an integer with more digits than JSON converts, or a tree nested past the stack
        except (ValueError, RecursionError) as exc:
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
    return (
        unquote(target.decode("utf-8", "replace").lstrip("/")),
        request,
        None if kind is None else kind.decode("latin-1"),
        _keep_alive(version, headers),
    )


def _keep_alive(version: bytes, headers: dict[bytes, bytes]) -> bool:
    """Whether a message of this HTTP version and these headers leaves its connection open."""
    connection = headers.get(b"connection", b"").lower()
    return connection != b"close" if version == b"HTTP/1.1" else connection == b"keep-alive"


def _content_length(value: bytes) -> int:
    """A Content-Length header's value; ValueError unless it is digits within MAX_BODY_BYTES."""
    if not value.isdigit():
        raise ValueError(f"Content-Length {value.decode('latin-1')!r} is not a number")
    digits = value.lstrip(b"0") or b"0"  # its width is judged first, so int() takes at most _BODY_DIGITS
    if len(digits) > _BODY_DIGITS or int(digits) > MAX_BODY_BYTES:
        raise ValueError(f"Content-Length {digits.decode()} is over the limit of {MAX_BODY_BYTES}")
    return int(digits)


class _Refused(Exception):
    """Input that breaks the protocol or a limit, named by reason.

    The server answers it with status and body and closes the connection;
    the client raises TransportError.
    """

    def __init__(self, status: int, reason: str, body: bytes | None = None):
        super().__init__(reason)
        self.status = status
        self.body = encode_json(ValueTree(reason)) if body is None else body


_VERSIONS = (b"HTTP/1.1", b"HTTP/1.0")


class _Reader:
    """The bytes a connection has sent and not yet been parsed."""

    def __init__(self, connection: socket.socket):
        self.connection = connection
        self.buffer = b""
        self.started = False  # whether any byte of the current request arrived
        self.requests = 0  # requests read from the connection so far

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


class ConnectionPool:
    """A caller's idle client connections, at most MAX_IDLE to each (host, port).

    Once closed, it closes every connection given back to it.
    """

    def __init__(self):
        self._idle: dict[tuple[str, int], list[tuple[socket.socket, float]]] = {}
        self._lock = threading.Lock()
        self._closed = False

    def take(self, key: tuple[str, int]) -> socket.socket | None:
        """The most recently used idle connection to key that is fit to carry a call, or None.

        A connection idle for more than READ_TIMEOUT / 2, which its server
        may be about to close, or readable while idle, which its server
        closed (urllib3's is_connection_dropped), is closed instead.
        """
        while True:
            with self._lock:
                idle = self._idle.get(key)
                if not idle:
                    return None
                sock, since = idle.pop()
            if time.monotonic() - since <= READ_TIMEOUT / 2 and not _readable(sock):
                return sock
            sock.close()

    def give(self, key: tuple[str, int], sock: socket.socket) -> None:
        """Keep a connection that ended a call normally for the next call to key."""
        with self._lock:
            idle = self._idle.setdefault(key, [])
            if not self._closed and len(idle) < MAX_IDLE:
                idle.append((sock, time.monotonic()))
                return
        sock.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
        for connections in idle.values():
            for sock, _ in connections:
                sock.close()


def _readable(sock: socket.socket, timeout: float = 0.0) -> bool:
    """Whether bytes, or the end of the stream, wait to be read from sock or arrive within timeout seconds."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(timeout * 1000))


def http_invoke_rr(
    connections: ConnectionPool,
    location: Location,
    operation: str,
    request: ValueTree,
    timeout: float,
    waiting: Waiting | None = None,
) -> ValueTree | Fault:
    """Call a request-response operation over HTTP, on a connection of the pool.

    Returns the response tree or the remote fault; a server-side timeout
    comes back as the fault named Timeout. Raises TransportError when
    the endpoint is unreachable and converts a client-side socket
    timeout into the Timeout fault as well. The request must already be
    its JSON image, and the operation a name UTF-8 can encode, as
    system.call makes every call it sends.
    waiting, when given, is handed a function that shuts the call's
    connection down, so that another thread can end the wait with a
    TransportError, and then None once the call is over.
    """
    try:
        return _post(connections, location, operation, "rr", encode_json(request), timeout, waiting)
    except _TimeoutFault:
        return Fault("Timeout", ValueTree(f"no reply from {location} within {timeout}s"))


def http_invoke_ow(
    connections: ConnectionPool, location: Location, operation: str, message: ValueTree, timeout: float
) -> None:
    """Send a one-way message over HTTP, on a connection of the pool; returns once the target accepts it.

    The message must already be its JSON image, and the operation a name
    UTF-8 can encode, as system.call makes every call it sends.
    """
    try:
        _post(connections, location, operation, "ow", encode_json(message), timeout)
    except _TimeoutFault:
        raise TransportError(f"{location} did not accept the message in time") from None


class _TimeoutFault(Exception):
    pass


_REQUEST_HEAD = (
    b"POST /%s HTTP/1.1\r\nHost: %s:%d\r\nContent-Type: "
    + CONTENT_TYPE.encode()
    + b"\r\nContent-Length: %d\r\n"
    + KIND_HEADER.encode()
    + b": %s\r\n\r\n"
)


def _post(
    connections: ConnectionPool,
    location: Location,
    operation: str,
    kind: str,
    body: bytes,
    timeout: float,
    waiting: Waiting | None = None,
) -> ValueTree | Fault | None:
    """Post one encoded call of kind "rr" or "ow"; returns what the response says (_outcome).

    The call goes on an idle connection of the pool, or on a new one, and
    the connection goes back to the pool only when the call ends
    normally and the response leaves it open. Raises _TimeoutFault when
    no reply comes within timeout plus REPLY_GRACE, and TransportError
    when the target cannot be reached, answers outside the protocol or
    its limits, or refuses the call with 503.
    """
    target = quote(operation, safe="").encode("ascii")
    host = location.host.encode("idna")
    head = _REQUEST_HEAD % (
        target,
        b"[%s]" % host if b":" in host else host,
        location.port,
        len(body),
        kind.encode("ascii"),
    )
    key = (location.host, location.port)
    sock = connections.take(key)
    if sock is None:
        sock = _dial(location, timeout + REPLY_GRACE)
    else:
        sock.settimeout(timeout + REPLY_GRACE)
    reusable = False
    try:
        if waiting is not None:
            waiting(partial(_shut_down, sock))
        sock.sendall(head + body)
        reader = _Reader(sock)
        status, reply, keep = _read_response(reader)
        outcome = _outcome(location, kind, status, reply)
        reusable = keep and not reader.buffer
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
        if reusable:
            connections.give(key, sock)
        else:
            sock.close()
    return outcome


def _dial(location: Location, timeout: float) -> socket.socket:
    """A new connection to location; TransportError when it cannot be made."""
    # HTTPConnection only dials: it resolves the host, sets the timeout and TCP_NODELAY
    connection = HTTPConnection(location.host, location.port, timeout=timeout)
    try:
        connection.connect()
    except OSError as exc:
        connection.close()
        raise TransportError(f"cannot reach {location}: {exc}") from exc
    return connection.sock


def _outcome(location: Location, kind: str, status: int, body: bytes) -> ValueTree | Fault | None:
    """The reply tree or fault of a request-response call, or None for an accepted one-way.

    Raises TransportError for a refusal (503), a status the call's kind
    does not get, or a body that does not decode.
    """
    if kind == "rr" and status == 200:
        try:
            return decode_json(body)
        except JsonError as exc:
            raise TransportError(f"undecodable response from {location}: {exc}") from exc
    if kind == "rr" and status == 500:
        return decode_fault(body)
    if kind == "ow" and status == 202:
        return None
    if status == 503:
        reason = body.decode("utf-8", errors="replace")
        raise TransportError(f"{location} refused the call: {reason}")
    raise TransportError(f"unexpected status {status} from {location}")


def _shut_down(sock: socket.socket) -> None:
    """End a wait on sock: a client's read returns the end of the stream, a listener's accept fails."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # the call ended and closed its socket first, or the platform refuses
        pass


# the status of the client's refusals, which it raises as TransportError whatever the status
_BAD_RESPONSE = 502


def _read_response(reader: _Reader) -> tuple[int, bytes, bool]:
    """The status, body and keep-alive of the response to a post, within the server's limits."""
    version, _, rest = reader.line(_BAD_RESPONSE).partition(b" ")
    code = rest[:3]
    if version not in _VERSIONS or not code.isdigit() or rest[3:4] not in (b"", b" "):
        raise _Refused(_BAD_RESPONSE, "malformed status line")
    headers = reader.headers()
    length = headers.get(b"content-length")
    if length is None:
        raise _Refused(_BAD_RESPONSE, "no Content-Length")
    try:
        size = _content_length(length)
    except ValueError as exc:
        raise _Refused(_BAD_RESPONSE, str(exc)) from None
    return int(code), reader.read(size), _keep_alive(version, headers)
