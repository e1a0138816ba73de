"""The HTTP server of a socket:// port, driven over raw sockets against a stub service."""

import errno
import http.client
import io
import json
import math
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoslice.config import Location
from monoslice.runtime import Fault, TransportError, transport
from monoslice.values import Long, ValueTree

from conftest import free_ports, http_call

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
    assert http_call(server.location, "echo", ValueTree(Long(3)), 5) == ValueTree(Long(3))


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
        return http_call(server.location, "slow", ValueTree(Long(n)), 10)

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


def test_new_connections_that_send_nothing_hold_no_worker_and_close_after_the_read_timeout(server, monkeypatch):
    threads = threading.active_count()
    silent = []
    try:
        for count in (32, 200):  # as many as the port has workers, then many more
            silent += [server.connect() for _ in range(count - len(silent))]
            assert wait_for(lambda: len(server.server._parked) == count)
            assert threading.active_count() <= threads
            started = time.monotonic()
            assert http_call(server.location, "echo", ValueTree(Long(1)), 5) == ValueTree(Long(1))
            assert time.monotonic() - started < 0.5
            # one more worker may start when a hand-off finds the last one not yet idle
            assert threading.active_count() <= threads + 1
            threads = threading.active_count()
    finally:
        for connection in silent:
            connection.close()
    assert wait_for(lambda: not server.server._parked)
    monkeypatch.setattr(transport, "READ_TIMEOUT", 0.5)
    opened = time.monotonic()
    silent = [server.connect() for _ in range(32)]
    try:
        assert all(receive_all(connection) == b"" for connection in silent)  # closed unanswered
        assert time.monotonic() - opened >= 0.5
        assert wait_for(lambda: not server.server._parked)
    finally:
        for connection in silent:
            connection.close()


def answered(server, n=1):
    """A keep-alive connection to the server that has had n answers and is idle."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
    for _ in range(n):
        connection.request("POST", "/echo", body=b"1")
        response = connection.getresponse()
        assert (response.status, response.read()) == (200, b"1")
    return connection


def test_idle_keep_alive_connections_hold_no_worker(server):
    idle = [answered(server) for _ in range(32)]
    try:
        started = time.monotonic()
        assert http_call(server.location, "echo", ValueTree(Long(1)), 5) == ValueTree(Long(1))
        assert time.monotonic() - started < 0.5
        assert wait_for(lambda: len(server.server._parked) == 32)  # the call's own connection closed
    finally:
        for connection in idle:
            connection.close()


def test_idle_keep_alive_connections_start_no_thread(server):
    idle = [answered(server) for _ in range(20)]
    try:
        threads = threading.active_count()
        idle += [answered(server) for _ in range(200)]
        # one more worker may start when a hand-off finds the last one not yet idle
        assert threading.active_count() <= threads + 1
        assert wait_for(lambda: len(server.server._parked) == 220)
        # and each is still served
        assert all(answered_again(connection) for connection in idle[::22])
    finally:
        for connection in idle:
            connection.close()


def answered_again(connection):
    connection.request("POST", "/echo", body=b"2")
    response = connection.getresponse()
    return (response.status, response.read()) == (200, b"2")


def test_a_parked_connection_silent_past_the_read_timeout_is_closed(server, monkeypatch):
    monkeypatch.setattr(transport, "READ_TIMEOUT", 0.3)
    connection = answered(server)
    try:
        parked = time.monotonic()
        assert receive_all(connection.sock) == b""
        assert 0.3 <= time.monotonic() - parked < 2.0
        assert not server.server._parked
    finally:
        connection.close()


def test_a_port_parks_at_most_max_parked_connections_and_closes_the_oldest(server, monkeypatch):
    assert transport.MAX_PARKED == 512
    monkeypatch.setattr(transport, "MAX_PARKED", 2)
    idle = []
    try:
        for n in (1, 2, 2):
            idle.append(answered(server))
            assert wait_for(lambda: len(server.server._parked) == n)
        assert receive_all(idle[0].sock) == b""  # parking the third closed the first
        assert all(answered_again(connection) for connection in idle[1:])
    finally:
        for connection in idle:
            connection.close()


def test_close_closes_the_parked_connections(server):
    connection = answered(server)
    try:
        assert wait_for(lambda: len(server.server._parked) == 1)
        server.server.close()
        closing = time.monotonic()
        assert receive_all(connection.sock) == b""
        assert time.monotonic() - closing < 1.0
        assert not server.server._parked
    finally:
        connection.close()


def test_a_connection_is_answered_at_most_max_requests_times(server):
    assert transport.MAX_REQUESTS == 100
    with server.connect() as connection:
        connection.sendall(b"".join(post(b"/echo", b"%d" % n) for n in range(100)))
        received = receive_all(connection)  # the server closes after the 100th answer
    responses = received.split(b"HTTP/1.1 200 OK\r\n")[1:]
    assert len(responses) == 100
    assert [b"Connection: close" in r for r in responses] == [False] * 99 + [True]
    assert responses[-1].endswith(b"\r\n\r\n99")


def test_the_client_dials_again_after_the_last_answer_a_connection_gives(server, monkeypatch):
    dials = []

    class CountingConnection(transport.HTTPConnection):
        def connect(self):
            dials.append(self.port)
            super().connect()

    monkeypatch.setattr(transport, "HTTPConnection", CountingConnection)
    connections = transport.ConnectionPool()
    try:
        for n in range(transport.MAX_REQUESTS + 1):
            assert transport.http_invoke_rr(connections, server.location, "echo", ValueTree(Long(n)), 5) == ValueTree(
                Long(n)
            )
    finally:
        connections.close()
    assert dials == [server.port] * 2


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
    # each of 32 connections stalls in its request, holding the worker that reads it
    idle = [server.connect() for _ in range(32)]
    flood = []
    try:
        for connection in idle:
            connection.sendall(b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\n12")
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
    """A listener whose accept returns its one connection only once the server closed it.

    The selector watches the connection itself, which is readable as soon as
    the client has sent its post.
    """

    def __init__(self, connection):
        self.connection = connection
        self.accepting = threading.Event()
        self.closed = threading.Event()

    def fileno(self):
        return self.connection.fileno()

    def accept(self):
        self.accepting.set()
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
    server._listener = late = _LateListener(accepted)
    workers = lambda: [t for t in threading.enumerate() if t.name == f"http-port-{port}-worker"]
    with client:
        client.sendall(post(b"/echo", b"1"))
        server.start()
        assert late.accepting.wait(5)
        server.close()
        assert receive_all(client) == b""
    assert wait_for(lambda: not workers(), seconds=1)
    assert not server._open


class _FailingListener:
    """A listener whose first `times` accepts raise error(), counting the failures."""

    def __init__(self, listener, error, times):
        self.listener = listener
        self.error = error
        self.times = times
        self.failures = 0

    def fileno(self):
        return self.listener.fileno()

    def accept(self):
        if self.failures < self.times:
            self.failures += 1
            raise self.error()
        return self.listener.accept()

    def shutdown(self, how):
        self.listener.shutdown(how)

    def close(self):
        self.listener.close()


def test_a_failed_accept_leaves_the_port_serving():
    [port] = free_ports(1)
    server = transport.HttpPortServer(port, stub_offer, 5.0)
    # as when the client gave up before the accept
    server._listener = aborting = _FailingListener(server._listener, lambda: ConnectionAbortedError("gave up"), 1)
    server.start()
    try:
        location = Location.parse(f"socket://127.0.0.1:{port}")
        assert http_call(location, "echo", ValueTree(Long(4)), 5) == ValueTree(Long(4))
        assert aborting.failures == 1
    finally:
        server.close()


def test_a_port_out_of_descriptors_pauses_between_accepts_and_serves_once_one_is_free():
    [port] = free_ports(1)
    server = transport.HttpPortServer(port, stub_offer, 5.0)
    exhausted = _FailingListener(server._listener, lambda: OSError(errno.EMFILE, "Too many open files"), math.inf)
    server._listener = exhausted
    server.start()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as client:
            client.sendall(post(b"/echo", b"5", b"Connection: close"))
            time.sleep(0.5)  # the waiting connection keeps the listener readable
            # one accept each _POLL_SECONDS, not a spin of thousands
            assert 1 <= exhausted.failures <= 0.5 / transport._POLL_SECONDS + 3
            exhausted.times = exhausted.failures  # a descriptor is free
            assert parse_response(receive_all(client)) == (200, b"5")
    finally:
        server.close()


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
    reply = http_call(shared_server.location, "echo", ValueTree(Long(7)), 5)
    assert reply == ValueTree(Long(7))
