"""The HTTP server of a socket:// port, driven over raw sockets against a stub service."""

import http.client
import io
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoslice.config import Location
from monoslice.runtime import Fault, TransportError, http_invoke_rr, transport
from monoslice.values import Long, ValueTree

from conftest import free_ports

STATUSES = {200, 202, 400, 405, 408, 411, 414, 431, 500, 501, 503, 505}


def stub_offer(operation, tree, kind, timeout):
    """put accepts a one-way message, fault and refuse do as named; the rest echo the request."""
    if operation == "put":
        return None
    if operation == "fault":
        return Fault("Stub", ValueTree("stub fault"))
    if operation == "refuse":
        raise TransportError("refused by the stub")
    if operation == "slow":
        time.sleep(0.05)
    return tree


class Server:
    def __init__(self):
        [self.port] = free_ports(1)
        self.server = transport.HttpPortServer(self.port, stub_offer, 5.0)
        self.server.start()
        self.location = Location.parse(f"socket://127.0.0.1:{self.port}")

    def workers(self):
        return [t for t in threading.enumerate() if t.name == f"http-port-{self.port}-worker"]

    def connect(self):
        return socket.create_connection(("127.0.0.1", self.port), timeout=5)


@pytest.fixture()
def server():
    started = Server()
    try:
        yield started
    finally:
        started.server.close()


@pytest.fixture(scope="module")
def shared_server():
    started = Server()
    try:
        yield started
    finally:
        started.server.close()


def post(path, body, *headers, version=b"HTTP/1.1"):
    lines = [b"POST " + path + b" " + version, b"Content-Length: %d" % len(body), *headers]
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


def receive_all(connection):
    """Everything the server sends until it closes the connection."""
    received = b""
    try:
        while chunk := connection.recv(65536):
            received += chunk
    except ConnectionResetError:  # a refusal may close the connection with input unread
        pass
    return received


class _Canned:
    def __init__(self, data):
        self.data = data

    def makefile(self, mode):
        return io.BytesIO(self.data)


def parse_response(data):
    """The status and body of the first final response in data, by http.client's parser."""
    response = http.client.HTTPResponse(_Canned(data))
    response.begin()  # skips any 100 Continue
    return response.status, response.read()


def test_expect_continue_gets_100_before_the_body(server):
    body = b'{"n":' + b"1" * 2000 + b"}"
    with server.connect() as connection:
        head, _, _ = post(b"/echo", body, b"Expect: 100-continue").partition(b"\r\n\r\n")
        connection.sendall(head + b"\r\n\r\n")
        assert connection.recv(100) == b"HTTP/1.1 100 Continue\r\n\r\n"
        connection.sendall(body)
        connection.shutdown(socket.SHUT_WR)
        assert parse_response(receive_all(connection)) == (200, body)


def test_two_posts_on_one_connection_both_get_answers(server):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
    try:
        for n in (1, 2):
            connection.request("POST", "/echo", body=b"%d" % n)
            response = connection.getresponse()
            assert (response.status, response.read()) == (200, b"%d" % n)
    finally:
        connection.close()


def test_connection_close_is_honoured(server):
    with server.connect() as connection:
        # the second request on the connection is never read
        connection.sendall(post(b"/echo", b"1", b"Connection: close") + post(b"/echo", b"2"))
        received = receive_all(connection)
    assert received.count(b"HTTP/1.1 ") == 1
    assert b"Connection: close\r\n" in received
    assert parse_response(received) == (200, b"1")


def test_a_body_over_the_cap_is_refused_before_it_is_read(server):
    with server.connect() as connection:
        head = b"POST /echo HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (transport.MAX_BODY_BYTES + 1)
        connection.sendall(head)
        # no body byte is sent: the answer must come without one, and the connection closes
        status, body = parse_response(receive_all(connection))
    assert status == 500
    assert json.loads(body)["fault"] == "TypeMismatch"
    assert http_invoke_rr(server.location, "echo", ValueTree(Long(3)), 5) == ValueTree(Long(3))


def test_forty_callers_are_served_by_at_most_32_connection_threads(server):
    most = 0
    done = threading.Event()

    def watch():
        nonlocal most
        while not done.is_set():
            most = max(most, len(server.workers()))
            time.sleep(0.001)

    start = threading.Barrier(40)

    def call(n):
        start.wait(timeout=10)
        return http_invoke_rr(server.location, "slow", ValueTree(Long(n)), 10)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        with ThreadPoolExecutor(max_workers=40) as pool:
            replies = list(pool.map(call, range(40)))
    finally:
        done.set()
        watcher.join(timeout=10)
    assert not watcher.is_alive()
    assert replies == [ValueTree(Long(n)) for n in range(40)]
    assert 0 < most <= 32


def test_idle_connections_hold_the_workers_no_longer_than_the_read_timeout(server, monkeypatch):
    monkeypatch.setattr(transport, "READ_TIMEOUT", 0.5)
    opened = time.monotonic()
    idle = [server.connect() for _ in range(32)]
    try:
        deadline = time.monotonic() + 5
        while len(server.workers()) < 32 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(server.workers()) == 32
        started = time.monotonic()
        assert http_invoke_rr(server.location, "echo", ValueTree(Long(1)), 5) == ValueTree(Long(1))
        # the call waited for an idle connection to time out, and not much longer
        assert time.monotonic() - opened >= 0.5
        assert time.monotonic() - started < 0.5 + 2.0
        assert len(server.workers()) <= 32
        # the timed-out connections were closed without an answer
        assert all(receive_all(connection) == b"" for connection in idle)
    finally:
        for connection in idle:
            connection.close()


def test_close_ends_the_workers_of_idle_connections(server):
    idle = server.connect()
    try:
        deadline = time.monotonic() + 5
        while not server.workers() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.workers()
        server.server.close()
        deadline = time.monotonic() + 2
        while server.workers() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server.workers()
    finally:
        idle.close()


def wait_for(condition, seconds=5):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def test_connections_no_worker_is_free_to_accept_wait_in_the_backlog(server):
    idle = [server.connect() for _ in range(32)]
    flood = []
    try:
        assert wait_for(lambda: len(server.server._open) == 32)
        for n in range(60):
            flood.append(server.connect())
            flood[-1].sendall(post(b"/echo", b"%d" % n, b"Connection: close"))
        most = 0
        deadline = time.monotonic() + 0.3
        while time.monotonic() < deadline:
            most = max(most, len(server.server._open))
            time.sleep(0.005)
        assert most <= 32
        for connection in idle:
            connection.close()
        for n, connection in enumerate(flood):
            assert parse_response(receive_all(connection)) == (200, b"%d" % n)
    finally:
        for connection in idle + flood:
            connection.close()


def test_close_ends_a_worker_waiting_to_accept_and_frees_the_port(server):
    assert wait_for(lambda: len(server.workers()) == 1)
    server.server.close()
    assert wait_for(lambda: not server.workers(), seconds=1)
    socket.create_server(("", server.port)).close()


class _LateListener:
    """A listener whose accept returns its one connection only once the server closed it."""

    def __init__(self, connection):
        self.connection = connection
        self.closed = threading.Event()

    def accept(self):
        self.closed.wait(5)
        return self.connection, None

    def shutdown(self, how):
        pass

    def close(self):
        self.closed.set()


def test_a_connection_accepted_as_the_port_closes_is_closed_unanswered():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname(), timeout=5)
        accepted, _ = listener.accept()
    [port] = free_ports(1)
    server = transport.HttpPortServer(port, stub_offer, 5.0)
    server._listener.close()
    server._listener = _LateListener(accepted)
    workers = lambda: [t for t in threading.enumerate() if t.name == f"http-port-{port}-worker"]
    with client:
        client.sendall(post(b"/echo", b"1"))
        server.start()
        assert wait_for(lambda: len(workers()) == 1)
        server.close()
        assert receive_all(client) == b""
    assert wait_for(lambda: not workers(), seconds=1)
    assert not server._open


LONG =b"a" * transport.MAX_LINE_BYTES
MANY_HEADERS = b"X: 1\r\n" * (transport.MAX_HEADERS + 1)
REQUESTS = {
    "blank-line": (b"\r\n", 400),
    "no-version": (b"POST /echo\r\n\r\n", 400),
    "http-2": (b"POST /echo HTTP/2.0\r\n\r\n", 505),
    "put": (b"PUT /echo HTTP/1.1\r\n\r\n", 501),
    "get": (b"GET /echo HTTP/1.1\r\n\r\n", 405),
    "header-without-colon": (b"POST /echo HTTP/1.1\r\nno colon\r\n\r\n", 400),
    "chunked": (b"POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1\r\n1\r\n0\r\n\r\n", 411),
    "long-request-line": (b"POST /" + LONG + b" HTTP/1.1\r\n\r\n", 414),
    "long-header-line": (b"POST /echo HTTP/1.1\r\nX: " + LONG + b"\r\n\r\n", 431),
    "too-many-headers": (b"POST /echo HTTP/1.1\r\n" + MANY_HEADERS + b"\r\n", 431),
    "short-body": (b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\n12", 400),
    "unrepresentable-body": (post(b"/echo", b"[1]"), 500),
    "refused": (post(b"/refuse", b"1"), 503),
    "fault": (post(b"/fault", b"1"), 500),
    "http-1.0": (post(b"/echo", b"1", version=b"HTTP/1.0"), 200),
    "one-way": (post(b"/put", b"1"), 202),
}


@pytest.mark.parametrize("request_bytes, status", REQUESTS.values(), ids=REQUESTS.keys())
def test_every_request_gets_a_status(shared_server, request_bytes, status):
    with shared_server.connect() as connection:
        connection.sendall(request_bytes)
        connection.shutdown(socket.SHUT_WR)
        assert parse_response(receive_all(connection))[0] == status


@pytest.mark.parametrize(
    "body, reason",
    [
        (b'{"x":NaN}', "NaN is not a JSON number"),
        (b'{"x":1e999}', "number is out of the range of a double"),
    ],
)
def test_a_number_that_is_not_finite_gets_the_type_mismatch_envelope(shared_server, body, reason):
    with shared_server.connect() as connection:
        connection.sendall(post(b"/echo", body))
        connection.shutdown(socket.SHUT_WR)
        status, reply = parse_response(receive_all(connection))
    assert (status, json.loads(reply)) == (500, {"fault": "TypeMismatch", "data": reason})


def test_a_stalled_request_gets_408(server, monkeypatch):
    monkeypatch.setattr(transport, "READ_TIMEOUT", 0.2)
    with server.connect() as connection:
        connection.sendall(b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\n12")
        assert parse_response(receive_all(connection))[0] == 408


# ---------------------------------------------------------------------------
# fuzzing

_eol = st.sampled_from([b"\r\n", b"\n"])
_token = st.one_of(
    st.sampled_from([b"POST", b"GET", b"PUT", b"HEAD", b"post", b""]),
    st.binary(max_size=8),
)
_target = st.one_of(
    st.sampled_from([b"/echo", b"/fault", b"/refuse", b"/put", b"/", b"echo"]),
    st.binary(max_size=12),
)
_version = st.one_of(
    st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2", b"HTTP/1.1x", b"http/1.1"]),
    st.binary(max_size=10),
)
_header_value = st.one_of(
    st.integers(-3, 2 * transport.MAX_BODY_BYTES).map(lambda n: b"%d" % n),
    st.sampled_from([b"close", b"keep-alive", b"100-continue", b"rr", b"ow", b"chunked", b""]),
    st.binary(max_size=12),
)
_header = st.tuples(
    st.one_of(
        st.sampled_from(
            [b"Content-Length", b"Connection", b"Expect", b"Monoslice-Kind", b"Transfer-Encoding"]
        ),
        st.binary(max_size=10),
    ),
    st.sampled_from([b": ", b":", b" : ", b""]),
    _header_value,
)
_body = st.one_of(
    st.sampled_from([b"", b"1", b'"text"', b'{"a":[1,2],"$":3}', b"[1]", b"{"]),
    st.binary(max_size=64),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    method=_token,
    target=_target,
    version=_version,
    separator=st.sampled_from([b" ", b"  ", b"\t"]),
    headers=st.lists(_header, max_size=5),
    eol=_eol,
    body=_body,
)
def test_fuzzed_requests_get_a_status_and_the_server_keeps_serving(
    shared_server, method, target, version, separator, headers, eol, body
):
    request_line = separator.join([method, target, version])
    header_lines = [name + sep + value for name, sep, value in headers]
    data = eol.join([request_line, *header_lines, b""]) + eol + body
    with shared_server.connect() as connection:
        try:
            connection.sendall(data)
            connection.shutdown(socket.SHUT_WR)
        except OSError:  # the server may answer and close before all of it is sent
            pass
        received = receive_all(connection)
    status, answer = parse_response(received)
    assert status in STATUSES, received
    if status == 500:
        assert "fault" in json.loads(answer)
    reply = http_invoke_rr(shared_server.location, "echo", ValueTree(Long(7)), 5)
    assert reply == ValueTree(Long(7))
