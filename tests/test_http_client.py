"""The HTTP client of socket:// calls, against a raw-socket fake server with scripted replies."""

import queue
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoslice.config import Location
from monoslice.runtime import Fault, TransportError, http_invoke_rr, transport
from monoslice.runtime.transport import MAX_IDLE, ConnectionPool, http_invoke_ow
from monoslice.values import Long, ValueTree, encode_json

# how the fake server ends its side after the reply
OPEN, SHUT = "open", "shut"


class FakeServer:
    """Answers every request with the scripted reply, one connection at a time.

    After a reply that ends SHUT, or no reply, it waits for the client to
    close; after one that leaves the connection OPEN, it reads the next
    request on it. It sends each reply `delay` seconds after its request,
    as scripted when the request arrived. It counts the connections it
    accepts and keeps every request it reads. For every connection,
    outcomes receives "closed" once the client's end is closed, or "open"
    if it is still open after 10 s without a request.
    """

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.location = Location.parse(f"socket://127.0.0.1:{self.listener.getsockname()[1]}")
        self.reply: bytes | None = b""  # None: never answer
        self.end = SHUT
        self.delay = 0.0
        self.connections = 0
        self.requests: list[bytes] = []
        self.outcomes: "queue.Queue[str]" = queue.Queue()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def script(self, reply, end=SHUT, delay=0.0):
        self.reply, self.end, self.delay = reply, end, delay

    def close(self):
        self._stop.set()
        self._thread.join(timeout=15)
        self.listener.close()

    def _serve(self):
        while not self._stop.is_set():
            try:
                connection, _ = self.listener.accept()
            except socket.timeout:
                continue
            self.connections += 1
            with connection:
                connection.settimeout(10)
                self.outcomes.put(self._answer(connection))

    def _answer(self, connection):
        try:
            while request := read_request(connection):
                self.requests.append(request)
                reply, end, delay = self.reply, self.end, self.delay
                if reply is not None:
                    time.sleep(delay)
                    connection.sendall(reply)
                if reply is None or end == SHUT:
                    if reply is not None:
                        connection.shutdown(socket.SHUT_WR)
                    while connection.recv(65536):
                        pass
                    break
        except socket.timeout:
            return "open"
        except ConnectionResetError:  # the client closed with some of the reply unread
            pass
        except BrokenPipeError:  # the client closed before all of the reply was sent
            pass
        return "closed"


def read_request(connection):
    """One request's bytes: its head, then as many body bytes as its Content-Length says."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = connection.recv(65536)
        if not chunk:
            return data
        data += chunk
    head = data.partition(b"\r\n\r\n")[0]
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(data) < len(head) + 4 + length:
        chunk = connection.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


@pytest.fixture(scope="module")
def fake():
    server = FakeServer()
    try:
        yield server
    finally:
        server.close()


@pytest.fixture()
def fresh():
    """A fake server of the test's own, whose counts start at 0."""
    server = FakeServer()
    try:
        yield server
    finally:
        server.close()


@pytest.fixture()
def connections():
    pool = ConnectionPool()
    try:
        yield pool
    finally:
        pool.close()


def call(fake, reply, end=SHUT, operation="echo", request=ValueTree(Long(7)), timeout=5.0):
    """http_invoke_rr against fake's scripted reply, on a pool of its own; returns the result, or the TransportError.

    A call that ended normally, on a tree or a fault other than Timeout,
    may leave its connection in the pool, so the pool is closed before
    the fake must see the connection closed; after any other end, the
    client itself must have closed it while the pool is still open.
    """
    fake.script(reply, end)
    pool = ConnectionPool()
    result = None
    try:
        result = http_invoke_rr(pool, fake.location, operation, request, timeout)
        return result
    except TransportError as exc:
        return exc
    finally:
        if isinstance(result, ValueTree) or isinstance(result, Fault) and result.name != "Timeout":
            pool.close()
        assert fake.outcomes.get(timeout=15) == "closed"
        pool.close()


def response(status, body, *headers):
    lines = [b"HTTP/1.1 %d Whatever" % status, b"Content-Length: %d" % len(body), *headers]
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


def test_a_well_formed_reply_is_decoded(fake):
    assert call(fake, response(200, b'{"a":1}')) == ValueTree(children={"a": [ValueTree(Long(1))]})
    assert call(fake, response(500, b'{"fault":"Stub","data":null}')) == Fault("Stub")
    assert isinstance(call(fake, response(503, b'"stopped"')), TransportError)


LONG = b"a" * transport.MAX_LINE_BYTES
MANY_HEADERS = b"X: 1\r\n" * (transport.MAX_HEADERS + 1)
OVER_CAP = transport.MAX_BODY_BYTES + 1
DEEP = b'{"a":' * 5000 + b"1" + b"}" * 5000
OK = b"HTTP/1.1 200 OK\r\n"
HOSTILE = {
    # each reply but the two that close leaves the connection open, so a client
    # that waited for more would get the Timeout fault instead of TransportError
    "malformed-status-line": (b"HTTP/1.1 two hundred\r\nContent-Length: 1\r\n\r\n1", OPEN),
    "status-line-of-a-request": (b"POST /echo HTTP/1.1\r\nContent-Length: 1\r\n\r\n1", OPEN),
    "close-before-the-headers-end": (OK + b"Content-Len", SHUT),
    "long-header-line": (OK + b"X: " + LONG + b"\r\nContent-Length: 1\r\n\r\n1", OPEN),
    "too-many-headers": (OK + MANY_HEADERS + b"Content-Length: 1\r\n\r\n1", OPEN),
    "malformed-header-line": (OK + b"no colon\r\nContent-Length: 1\r\n\r\n1", OPEN),
    "no-content-length": (OK + b"Content-Type: application/json\r\n\r\n1", OPEN),
    "signed-content-length": (OK + b"Content-Length: +1\r\n\r\n1", OPEN),
    # no body byte follows: the client must refuse the length before it reads one
    "content-length-over-the-cap": (OK + b"Content-Length: %d\r\n\r\n" % OVER_CAP, OPEN),
    "short-body-then-close": (OK + b"Content-Length: 10\r\n\r\n12", SHUT),
    "undecodable-body": (response(200, b"[1]"), OPEN),
    "malformed-fault-envelope": (response(500, b'["fault"]'), OPEN),
    "fault-name-not-a-string": (response(500, b'{"fault":1}'), OPEN),
    "fault-data-unrepresentable": (response(500, b'{"fault":"F","data":[[1]]}'), OPEN),
    "fault-data-too-deep": (response(500, b'{"fault":"F","data":' + DEEP + b"}"), OPEN),
    "unexpected-status": (response(404, b""), OPEN),
    # no line end within the longest read: refused before the rest arrives
    "status-line-longer-than-a-read": (b"HTTP/1.1 200 " + b"a" * 70_000 + b"\r\n\r\n", OPEN),
    "fault-name-empty": (response(500, b'{"fault":""}'), OPEN),
}


@pytest.mark.parametrize("reply, end", HOSTILE.values(), ids=HOSTILE.keys())
def test_a_hostile_reply_is_a_transport_error_and_the_socket_closes(fake, reply, end):
    started = time.monotonic()
    assert isinstance(call(fake, reply, end), TransportError)
    assert time.monotonic() - started < 5


@pytest.mark.parametrize("data", [b"NaN", b"Infinity", b"1e999"])
def test_a_fault_envelope_holding_a_number_json_refuses_is_malformed(fake, data):
    reply = call(fake, response(500, b'{"fault":"F","data":' + data + b"}"), OPEN)
    assert isinstance(reply, TransportError) and "malformed fault envelope" in str(reply)


@pytest.mark.parametrize(
    "envelope, fault",
    [
        (b'{"fault":"X"}', Fault("X")),
        (b'{"fault":"X","data":null}', Fault("X")),
        (b'{"fault":"X","data":{}}', Fault("X")),
        (b'{"fault":"X","data":[]}', Fault("X")),
        (b'{"data":"d","fault":"X"}', Fault("X", ValueTree("d"))),
        (
            b'{"fault":"X","data":{"$":"why","at":[1,2],"by":{"who":"me"}}}',
            Fault("X", ValueTree.make("why", at=[Long(1), Long(2)], by=ValueTree.make(who="me"))),
        ),
        # read by the rules of a message: a one-element array is one node
        (b'{"fault":["X"],"data":[{"a":1}]}', Fault("X", ValueTree.make(a=Long(1)))),
        (b'{"fault":1}', "its fault is not one name"),
        (b'{"fault":["X","Y"]}', "its fault is not one name"),
        (b'{"fault":{"$":"X","why":1}}', "its fault is not one name"),
        (b'{"fault":null}', "its fault is not one name"),
        (b"{}", "its fault is not one name"),
        (b'"X"', "its fault is not one name"),
        (b'{"fault":"X","data":[1,2]}', "it holds more than one data"),
        (b'{"fault":"X","data":{"$":[]}}', 'reserved key "$" must hold a scalar root value'),
    ],
)
def test_a_fault_envelope_is_read_as_a_message(envelope, fault):
    if isinstance(fault, Fault):
        assert transport.decode_fault(envelope) == fault
    else:
        with pytest.raises(TransportError, match="^malformed fault envelope: ") as exc:
            transport.decode_fault(envelope)
        assert fault in str(exc.value)


def test_a_fault_envelope_is_written_as_json():
    fault = Fault("F", ValueTree.make(1.5, a=Long(1), b="é"))
    assert transport.encode_fault(fault) == '{"fault":"F","data":{"$":1.5,"a":1,"b":"é"}}'.encode()
    with pytest.raises(ValueError):
        transport.encode_fault(Fault("F", ValueTree(float("nan"))))


def test_a_server_that_never_answers_gives_the_timeout_fault(fake, monkeypatch):
    monkeypatch.setattr(transport, "REPLY_GRACE", 0.0)
    started = time.monotonic()
    reply = call(fake, None, OPEN, timeout=0.3)
    assert isinstance(reply, Fault) and reply.name == "Timeout"
    assert time.monotonic() - started < 3


@pytest.mark.parametrize(
    "reply, timeout", [(response(200, b"1"), 5.0), (None, 0.3)], ids=["status-200", "no-reply"]
)
def test_a_one_way_post_not_accepted_with_202_is_a_transport_error(fake, connections, monkeypatch, reply, timeout):
    monkeypatch.setattr(transport, "REPLY_GRACE", 0.0)
    fake.script(reply, OPEN)
    try:
        with pytest.raises(TransportError):
            http_invoke_ow(connections, fake.location, "note", ValueTree(Long(7)), timeout)
    finally:
        assert fake.outcomes.get(timeout=15) == "closed"


def test_nothing_listening_is_a_transport_error(connections):
    with socket.create_server(("127.0.0.1", 0)) as placeholder:
        location = Location.parse(f"socket://127.0.0.1:{placeholder.getsockname()[1]}")
    with pytest.raises(TransportError):
        http_invoke_rr(connections, location, "echo", ValueTree(), 5)


class _RecordingSocket:
    """A socket that records what is sent through it."""

    def __init__(self, sock, sends):
        self._sock = sock
        self._sends = sends

    def sendall(self, data):
        self._sends.append(bytes(data))
        return self._sock.sendall(data)

    def send(self, data):
        self._sends.append(bytes(data))
        return self._sock.send(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def sends(monkeypatch):
    recorded = []

    class RecordingConnection(transport.HTTPConnection):
        def connect(self):
            super().connect()
            self.sock = _RecordingSocket(self.sock, recorded)

    monkeypatch.setattr(transport, "HTTPConnection", RecordingConnection)
    return recorded


def test_a_call_is_one_well_formed_post_in_one_send(fake, sends):
    request = ValueTree(children={"id": [ValueTree(Long(5))], "name": [ValueTree("crème")]})
    assert call(fake, response(200, b"1"), request=request) == ValueTree(Long(1))
    assert sends == [fake.requests[-1]]
    head, _, body = sends[0].partition(b"\r\n\r\n")
    request_line, *header_lines = head.split(b"\r\n")
    assert request_line == b"POST /echo HTTP/1.1"
    headers = dict(line.split(b": ", 1) for line in header_lines)
    assert len(headers) == len(header_lines)
    assert headers == {
        b"Host": b"127.0.0.1:%d" % fake.location.port,
        b"Content-Type": b"application/json; charset=utf-8",
        b"Content-Length": b"%d" % len(body),
        b"Monoslice-Kind": b"rr",
    }
    assert body == encode_json(request)


def test_an_operation_name_outside_ascii_is_percent_encoded(fake, sends):
    assert call(fake, response(200, b"1"), operation="café") == ValueTree(Long(1))
    assert sends[0].startswith(b"POST /caf%C3%A9 HTTP/1.1\r\n")


# ---------------------------------------------------------------------------
# pooled connections


def rr(connections, fake, timeout=5.0):
    """One echo call through connections; returns the result, or the TransportError."""
    try:
        return http_invoke_rr(connections, fake.location, "echo", ValueTree(Long(7)), timeout)
    except TransportError as exc:
        return exc


def closed_after(fake, connections):
    """Close the pool, and the fake's outcome for each connection it accepted."""
    connections.close()
    return [fake.outcomes.get(timeout=15) for _ in range(fake.connections)]


def test_a_call_that_ended_normally_leaves_its_connection_to_the_next(fresh, connections):
    fresh.script(response(200, b"1"), OPEN)
    assert [rr(connections, fresh) for _ in range(3)] == [ValueTree(Long(1))] * 3
    fresh.script(response(500, b'{"fault":"F"}'), OPEN)
    assert rr(connections, fresh) == Fault("F")
    assert rr(connections, fresh) == Fault("F")
    assert (fresh.connections, len(fresh.requests)) == (1, 5)
    assert closed_after(fresh, connections) == ["closed"]


@pytest.mark.parametrize(
    "reply, end",
    [(response(200, b"1"), SHUT), (response(200, b"1") + b"HTTP/1.1 200 OK\r\n", OPEN)],
    ids=["closed-by-the-server", "stray-bytes"],
)
def test_a_connection_readable_while_idle_is_closed_and_a_new_one_dialed(fresh, connections, reply, end):
    fresh.script(reply, end)
    assert rr(connections, fresh) == ValueTree(Long(1))
    time.sleep(0.1)  # the server's end, or its stray bytes, arrive
    fresh.script(response(200, b"2"), OPEN)
    assert rr(connections, fresh) == ValueTree(Long(2))
    assert (fresh.connections, len(fresh.requests)) == (2, 2)
    assert closed_after(fresh, connections) == ["closed", "closed"]


@pytest.mark.parametrize(
    "reply",
    [response(200, b"1", b"Connection: close"), b"HTTP/1.0 200 OK\r\nContent-Length: 1\r\n\r\n1"],
    ids=["connection-close", "http-1.0"],
)
def test_a_response_that_closes_its_connection_leaves_it_out_of_the_pool(fresh, connections, reply):
    fresh.script(reply, OPEN)  # the fake would read a next request all the same
    assert rr(connections, fresh) == ValueTree(Long(1))
    assert fresh.outcomes.get(timeout=15) == "closed"  # the pool still open
    assert rr(connections, fresh) == ValueTree(Long(1))
    assert (fresh.connections, len(fresh.requests)) == (2, 2)
    connections.close()
    assert fresh.outcomes.get(timeout=15) == "closed"


def test_a_connection_idle_for_half_the_read_timeout_is_not_reused(fresh, connections, monkeypatch):
    monkeypatch.setattr(transport, "READ_TIMEOUT", 0.4)
    fresh.script(response(200, b"1"), OPEN)
    assert rr(connections, fresh) == ValueTree(Long(1))
    assert rr(connections, fresh) == ValueTree(Long(1))
    time.sleep(0.25)
    assert rr(connections, fresh) == ValueTree(Long(1))
    assert (fresh.connections, len(fresh.requests)) == (2, 3)
    assert closed_after(fresh, connections) == ["closed", "closed"]


def test_a_reused_connection_that_fails_after_the_request_went_out_is_not_retried(fresh, connections):
    fresh.script(response(200, b"1"), OPEN)
    assert rr(connections, fresh) == ValueTree(Long(1))
    fresh.script(b"", SHUT)  # the server reads the request and closes without a reply
    assert isinstance(rr(connections, fresh), TransportError)
    assert (fresh.connections, len(fresh.requests)) == (1, 2)
    fresh.script(response(200, b"3"), OPEN)
    assert rr(connections, fresh) == ValueTree(Long(3))  # on a new connection, the failed one closed
    assert (fresh.connections, len(fresh.requests)) == (2, 3)
    assert closed_after(fresh, connections) == ["closed", "closed"]


@pytest.mark.parametrize(
    "reply", [response(503, b'"stopped"'), response(200, b"[1]"), response(404, b"")], ids=["503", "hostile", "404"]
)
def test_a_call_ending_in_a_transport_error_closes_its_connection(fresh, connections, reply):
    fresh.script(reply, OPEN)
    assert isinstance(rr(connections, fresh), TransportError)
    assert fresh.outcomes.get(timeout=15) == "closed"  # the pool still open
    fresh.script(response(200, b"1"), OPEN)
    assert rr(connections, fresh) == ValueTree(Long(1))
    assert (fresh.connections, len(fresh.requests)) == (2, 2)
    connections.close()
    assert fresh.outcomes.get(timeout=15) == "closed"


def test_a_call_after_a_timed_out_call_gets_its_own_reply(fresh, connections, monkeypatch):
    monkeypatch.setattr(transport, "REPLY_GRACE", 0.0)
    fresh.script(response(200, b"1"), OPEN, delay=0.5)  # the reply comes after the caller gave up
    reply = rr(connections, fresh, timeout=0.2)
    assert isinstance(reply, Fault) and reply.name == "Timeout"
    fresh.script(response(200, b"2"), OPEN)
    assert rr(connections, fresh) == ValueTree(Long(2))
    assert (fresh.connections, len(fresh.requests)) == (2, 2)
    assert closed_after(fresh, connections)[0] == "closed"


def test_the_pool_keeps_at_most_max_idle_connections_to_a_port():
    assert MAX_IDLE == 8
    pairs = [socket.socketpair() for _ in range(MAX_IDLE + 2)]
    pool = ConnectionPool()
    try:
        for ours, _ in pairs:
            pool.give(("somewhere", 1), ours)
        assert pool.take(("elsewhere", 1)) is None
        taken = [pool.take(("somewhere", 1)) for _ in range(MAX_IDLE + 1)]
        assert taken == [ours for ours, _ in reversed(pairs[:MAX_IDLE])] + [None]
        assert [ours.fileno() == -1 for ours, _ in pairs] == [False] * MAX_IDLE + [True] * 2
        pool.give(("somewhere", 1), taken[0])
        pool.close()
        assert taken[0].fileno() == -1
        pool.give(("somewhere", 1), taken[1])  # given back after close: closed at once
        assert taken[1].fileno() == -1
    finally:
        pool.close()
        for pair in pairs:
            for sock in pair:
                sock.close()


# ---------------------------------------------------------------------------
# fuzzing

_status_line = st.builds(
    lambda version, code, reason: version + b" " + code + reason,
    st.one_of(st.just(b"HTTP/1.1"), st.sampled_from([b"HTTP/1.0", b"HTTP/2", b"http/1.1", b""])),
    st.one_of(
        st.sampled_from([b"200", b"500", b"202", b"503", b"404"]),
        st.sampled_from([b"20", b"2000", b"-20"]),
        st.binary(max_size=4),
    ),
    st.sampled_from([b" OK", b"", b" ", b" Internal Server Error"]),
)
_body = st.one_of(
    st.sampled_from(
        [
            b"",
            b"1",
            b'"text"',
            b'{"a":[1,2],"$":3}',
            b"[1]",
            b"{",
            b'{"fault":"F","data":{"x":1}}',
            b'{"fault":1}',
            b'{"fault":""}',
            b'{"fault":"F","data":[1]}',
            b'"fault"',
            b"[" * 5000,
        ]
    ),
    st.binary(max_size=64),
)
_length = st.one_of(st.integers(-2, 80).map(lambda n: b"%d" % n), st.binary(max_size=6))


@st.composite
def _responses(draw):
    """Random bytes a quarter of the time, else a status line, headers and a body."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=200))
    body = draw(_body)
    length = b"%d" % len(body) if draw(st.integers(0, 3)) else draw(_length)
    others = st.one_of(st.just(b"Connection: close"), st.binary(max_size=16))
    headers = [b"Content-Length: " + length, *draw(st.lists(others, max_size=3))]
    headers = draw(st.permutations(headers))
    if not draw(st.integers(0, 7)):
        headers = headers[1:]  # no Content-Length, unless another header says it
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    return eol.join([draw(_status_line), *headers, b""]) + eol + body


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reply=_responses())
def test_any_reply_gives_a_tree_a_fault_or_a_transport_error(fake, reply):
    result = call(fake, reply)
    assert isinstance(result, (ValueTree, Fault, TransportError)), result


def test_waiting_is_handed_a_wake_that_ends_the_wait_and_is_harmless_once_the_call_is_over(fake, connections):
    wakes = []

    def waiting(wake):
        wakes.append(wake)
        if wake is not None and len(wakes) == 1:
            threading.Timer(0.1, wake).start()  # another thread ends the wait

    fake.script(None, OPEN)  # the fake never answers
    started = time.monotonic()
    with pytest.raises(TransportError):
        http_invoke_rr(connections, fake.location, "echo", ValueTree(Long(7)), 5.0, waiting)
    assert time.monotonic() - started < 4.0
    assert fake.outcomes.get(timeout=15) == "closed"
    assert wakes[1] is None  # told once the call was over
    wakes[0]()  # a late wake finds the socket closed, and does nothing
