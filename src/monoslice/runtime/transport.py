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
declared kind. A body or Content-Length that cannot be read gets the
TypeMismatch envelope, and a service that has stopped answers 503.
Servers bind all interfaces on the port; the host part of a location is
for dialing.
"""

from __future__ import annotations

import json
import socket
import threading
from http.client import HTTPConnection, HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from ..config import Location
from ..errors import MonosliceError
from ..values import JsonError, ValueTree, decode_json, encode_json, from_json_value, to_json_value
from .interpreter import Fault

CONTENT_TYPE = "application/json; charset=utf-8"
KIND_HEADER = "Monoslice-Kind"
# how often serve_forever looks for a shutdown request, which bounds how long close() takes
_POLL_SECONDS = 0.05


class TransportError(MonosliceError):
    """The target endpoint is unreachable or spoke garbage."""


def encode_fault(fault: Fault) -> bytes:
    envelope = {
        "fault": fault.name,
        "data": to_json_value(fault.data) if fault.data is not None else None,
    }
    return json.dumps(envelope, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def decode_fault(body: bytes) -> Fault:
    try:
        envelope = json.loads(body.decode("utf-8"))
        name = envelope["fault"]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise TransportError(f"malformed fault envelope: {exc}") from exc
    data = envelope.get("data")
    return Fault(name, from_json_value(data) if data is not None else None)


# ---------------------------------------------------------------------------
# server

# offer(operation, request, kind or None, timeout) -> reply tree | Fault | None (one-way
# accepted); raises TransportError when the call is refused
Offer = Callable[[str, ValueTree, str | None, float], ValueTree | Fault | None]


class HttpPortServer:
    """One HTTP server per socket input port, handing each post to offer."""

    def __init__(self, port: int, offer: Offer, timeout: float):
        outer = self
        self.offer = offer
        self.timeout = timeout

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):  # keep stderr clean
                pass

            def _respond(self, status: int, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                if body:
                    self.wfile.write(body)

            def do_POST(self) -> None:
                operation = self.path.lstrip("/")
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    if length < 0:
                        raise ValueError(f"negative Content-Length {length}")
                    request = decode_json(self.rfile.read(length)) if length else ValueTree()
                except (ValueError, JsonError) as exc:
                    self.close_connection = True  # the unread rest of the body is no request
                    self._respond(500, encode_fault(Fault("TypeMismatch", ValueTree(str(exc)))))
                    return
                kind = self.headers.get(KIND_HEADER)
                try:
                    result = outer.offer(operation, request, kind, outer.timeout)
                except TransportError as exc:
                    self._respond(503, encode_json(ValueTree(str(exc))))
                    return
                if result is None:
                    self._respond(202, b"")
                elif isinstance(result, Fault):
                    self._respond(500, encode_fault(result))
                else:
                    self._respond(200, encode_json(result))

            def do_GET(self) -> None:
                self._respond(405, b"")

        self._server = ThreadingHTTPServer(("", port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            args=(_POLL_SECONDS,),
            name=f"http-port-{port}",
            daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    def close(self) -> None:
        # shutdown() blocks forever unless serve_forever is actually running
        if self._thread.is_alive():
            self._server.shutdown()
        self._server.server_close()


# ---------------------------------------------------------------------------
# client


def http_invoke_rr(
    location: Location, operation: str, request: ValueTree, timeout: float
) -> ValueTree | Fault:
    """Call a request-response operation over HTTP.

    Returns the response tree or the remote fault; a server-side timeout
    comes back as the fault named Timeout. Raises TransportError when
    the endpoint is unreachable and converts a client-side socket
    timeout into the Timeout fault as well.
    """
    try:
        status, body = _post(location, operation, "rr", request, timeout)
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
    """Send a one-way message over HTTP; returns once the target accepts it."""
    try:
        status, _ = _post(location, operation, "ow", message, timeout)
    except _TimeoutFault:
        raise TransportError(f"{location} did not accept the message in time") from None
    if status == 202:
        return
    raise TransportError(f"unexpected status {status} from {location}")


class _TimeoutFault(Exception):
    pass


def _post(
    location: Location, operation: str, kind: str, request: ValueTree, timeout: float
) -> tuple[int, bytes]:
    """Post one call; raises TransportError when the target refuses it with 503."""
    body = encode_json(request)
    # a little grace so a server-side Timeout fault arrives before we give up
    connection = HTTPConnection(location.host, location.port, timeout=timeout + 2.0)
    try:
        connection.request(
            "POST",
            f"/{operation}",
            body=body,
            headers={
                "Content-Type": CONTENT_TYPE,
                "Content-Length": str(len(body)),
                KIND_HEADER: kind,
            },
        )
        response = connection.getresponse()
        status, reply = response.status, response.read()
    except socket.timeout:
        raise _TimeoutFault() from None
    except (ConnectionError, HTTPException, OSError) as exc:
        raise TransportError(f"cannot reach {location}: {exc}") from exc
    finally:
        connection.close()
    if status == 503:
        reason = reply.decode("utf-8", errors="replace")
        raise TransportError(f"{location} refused the call: {reason}")
    return status, reply
