import contextlib
import http.client
import json
import random
import socket
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoslice import runtime, semantics, values
from monoslice.config import LocationCollision
from monoslice.errors import MonosliceError, NoServices
from monoslice.parser import parse_source
from monoslice.runtime import BindError, Fault, TransportError
from monoslice.runtime import system as system_module
from monoslice.runtime.interpreter import FaultSignal
from monoslice.runtime.pool import WorkerPool
from monoslice.semantics import check_value, resolve
from monoslice.values import (
    LONE_SURROGATE,
    ROOT_KEY,
    TOO_DEEP,
    JsonError,
    Long,
    ValueTree,
    decode_json,
    encode_json,
)

from conftest import free_ports, loopback_config, no_cyclic_garbage
from script import (
    CAFE,
    COLLECTOR,
    GROWER,
    ONE_SHOT,
    SPINNER,
    area,
    corrupted_fixture_source,
    run_script,
)


def start_source(source, names=None, **kwargs):
    checked = resolve(parse_source(source))
    config, ports = loopback_config(names or [s.name for s in checked.program.services])
    return runtime.start(checked, config, **kwargs), ports


def test_loopback_config_gives_each_service_its_own_port():
    names = [f"S{i}" for i in range(6)]
    config, ports = loopback_config(names)
    assert list(ports) == names
    assert len(set(ports.values())) == 6
    assert {name: config.children[name][0].children["location"][0].root for name in names} == {
        name: f"socket://127.0.0.1:{port}" for name, port in ports.items()
    }


def local_tree_config(names):
    obj = {name: {"location": f"local://{name.lower()}"} for name in names}
    return decode_json(json.dumps(obj))


SERVICE_NAMES = ["QuerySide", "CommandSide", "EventStore", "TestClient"]


def executable_faults(report):
    """Each executable's verdict in a run report: its fault's name, or None."""
    return {r.name: r.executable_fault for r in report.services if r.executable}


def aborted_total(report):
    return sum(r.aborted for r in report.services)


# ---------------------------------------------------------------------------
# startup and teardown


def test_start_binds_every_selected_input(fixture_checked, local_config):
    with runtime.start(fixture_checked, local_config, ["QuerySide", "CommandSide", "EventStore"]) as system:
        assert len(system.instances) == 3
        # one copy of the configuration for the whole system, never the caller's tree
        trees = {id(instance.config_tree) for instance in system.instances.values()}
        assert len(trees) == 1 and id(local_config) not in trees
        reply = system.invoke_rr("CommandSide", "deleteParkingArea", ValueTree(Long(5)))
        assert reply == ValueTree("OK")


def test_start_with_empty_subset_raises(fixture_checked, local_config):
    with pytest.raises(NoServices):
        runtime.start(fixture_checked, local_config, [])


def test_start_unknown_service_rejected(fixture_checked, local_config):
    with pytest.raises(Exception):
        runtime.start(fixture_checked, local_config, ["Ghost"])


def test_start_refuses_two_inputs_on_one_local_name_before_binding_any(monkeypatch):
    source = (
        "interface I { RequestResponse: op( int )( int ) }"
        'service A { inputPort Web { location: "socket://127.0.0.1:9" protocol: http interfaces: I } '
        'inputPort In { location: "local://same" protocol: http interfaces: I } main { op( a )( b ) { b = 1 } } }'
        'service B { inputPort In { location: "local://same" protocol: http interfaces: I } main { op( a )( b ) { b = 1 } } }'
    )
    servers = []
    monkeypatch.setattr(system_module, "HttpPortServer", lambda *args: servers.append(args))
    with pytest.raises(LocationCollision):
        runtime.start(resolve(parse_source(source)), ValueTree())
    assert servers == []


def test_second_bind_on_same_socket_fails(fixture_checked):
    config, _ = loopback_config(SERVICE_NAMES)
    subset = ["QuerySide", "CommandSide", "EventStore"]
    with runtime.start(fixture_checked, config, subset):
        with pytest.raises(BindError):
            runtime.start(fixture_checked, config, subset)


def test_partial_bind_failure_unwinds_promptly(fixture_checked):
    import socket as socketlib

    blocker = socketlib.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    taken = blocker.getsockname()[1]
    try:
        config, ports = loopback_config(SERVICE_NAMES)
        config.child("EventStore").child("location").root = f"socket://127.0.0.1:{taken}"
        started = time.monotonic()
        with pytest.raises(BindError):
            runtime.start(fixture_checked, config, ["QuerySide", "CommandSide", "EventStore"])
        assert time.monotonic() - started < 5.0
        # the ports bound before the failure were released again
        probe = socketlib.socket()
        probe.bind(("127.0.0.1", ports["QuerySide"]))
        probe.close()
    finally:
        blocker.close()


def test_shutdown_is_idempotent(fixture_checked, local_config):
    system = runtime.start(fixture_checked, local_config, ["QuerySide", "EventStore"])
    first = system.shutdown()
    assert system.shutdown() is first


def test_socket_shutdown_is_prompt():
    system, _ = start_source(COLLECTOR)
    assert system.invoke_rr("Collector", "drain", ValueTree()) == ValueTree()
    started = time.monotonic()
    system.shutdown()
    assert time.monotonic() - started < 0.3


# ---------------------------------------------------------------------------
# the smart-city integration flow


def test_fixture_integration_over_local_transport(fixture_checked, local_config):
    with runtime.start(fixture_checked, local_config) as system:
        faults = system.wait_executables(timeout=15)
        assert faults == {"TestClient": None}
        report = system.shutdown()
        assert executable_faults(report) == {"TestClient": None}


def test_fixture_integration_over_loopback_http(fixture_checked):
    config, _ = loopback_config(SERVICE_NAMES)
    with runtime.start(fixture_checked, config) as system:
        faults = system.wait_executables(timeout=20)
        assert faults == {"TestClient": None}


def test_corrupted_event_store_fails_the_integration_test(fixture_source, local_config):
    checked = resolve(parse_source(corrupted_fixture_source(fixture_source), "smart-city"))
    with runtime.start(checked, local_config) as system:
        faults = system.wait_executables(timeout=15)
        assert faults["TestClient"] is not None
        assert faults["TestClient"].name == "AssertionFailed"


# ---------------------------------------------------------------------------
# request-response semantics


def test_delete_returns_string_reply(fixture_checked, local_config):
    with runtime.start(fixture_checked, local_config, ["CommandSide", "EventStore"]) as system:
        reply = system.invoke_rr("CommandSide", "deleteParkingArea", ValueTree(Long(123)))
        assert reply == ValueTree("OK")


def test_boundary_rejects_wrong_request_kind(fixture_checked, local_config):
    with runtime.start(fixture_checked, local_config, ["CommandSide", "EventStore"]) as system:
        reply = system.invoke_rr("CommandSide", "deleteParkingArea", ValueTree("abc"))
        assert isinstance(reply, Fault)
        assert reply.name == "TypeMismatch"


def test_handler_fault_reaches_the_caller_by_name(fixture_checked, local_config):
    with runtime.start(fixture_checked, local_config, ["QuerySide", "EventStore"]) as system:
        reply = system.invoke_rr("QuerySide", "getParkingArea", ValueTree(Long(404)))
        assert isinstance(reply, Fault)
        assert reply.name == "NotFound"


def test_a_call_names_its_target_by_service_by_location_or_by_location_text(
    fixture_checked, local_config
):
    with runtime.start(fixture_checked, local_config, ["EventStore"]) as system:
        location = system.instances["EventStore"].input_locations[0]
        for target in ("EventStore", location, str(location)):
            assert system.invoke_rr(target, "lookup", ValueTree(Long(1))) == ValueTree()
        with pytest.raises(MonosliceError):
            system.invoke_rr("Nobody", "lookup", ValueTree(Long(1)))


def test_unknown_operation_fault(fixture_checked, local_config):
    with runtime.start(fixture_checked, local_config, ["CommandSide", "EventStore"]) as system:
        reply = system.invoke_rr("CommandSide", "bogus", ValueTree())
        assert isinstance(reply, Fault)
        assert reply.name == "UnknownOperation"


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_call_of_the_wrong_kind_is_refused_before_any_handler_runs(transport):
    if transport == "local":
        system = runtime.start(resolve(parse_source(COLLECTOR)), local_tree_config(["Collector"]))
    else:
        system, _ = start_source(COLLECTOR)
    try:
        reply = system.invoke_rr("Collector", "put", ValueTree(1))
        assert isinstance(reply, Fault) and reply.name == "UnknownOperation"
        with pytest.raises(TransportError):
            system.invoke_ow("Collector", "drain", ValueTree())
        # drain runs after anything queued before it, so nothing else ran
        assert system.invoke_rr("Collector", "drain", ValueTree()) == ValueTree()
        assert system.instances["Collector"].served == 1
    finally:
        system.shutdown()


COUNTED = """
interface Echo {
    RequestResponse:
        echo( int )( int )
}

service Counted( config ) {
    execution: sequential
    inputPort In {
        location: config.Counted.location
        protocol: http { format = "json" }
        interfaces: Echo
    }
    main {
        echo( x )( y ) {
            if( x == 0 )
                throw( NotFound )
            y = x
            if( x < 0 )
                y = "negative"
        }
    }
}
"""


def test_the_report_counts_each_fault_by_name():
    system = runtime.start(resolve(parse_source(COUNTED)), local_tree_config(["Counted"]))
    try:
        for request in (-1, 0, -2, 5, -3):
            system.invoke_rr("Counted", "echo", ValueTree(Long(request)))
        # a request refused at the port never starts an activation, so it is no fault of the service
        assert system.invoke_rr("Counted", "echo", ValueTree("x")).name == "TypeMismatch"
    finally:
        report = system.shutdown()
    [counted] = report.services
    assert counted.faults == {"TypeMismatch": 3, "NotFound": 1}
    assert counted.line() == "Counted: served=5 faults=4 refused=1"


DESK = """
interface Front {
    RequestResponse:
        ask( int )( int ),
        unanswered( int )( int )
    OneWay:
        note( int ),
        unheard( int )
}

service Desk( config ) {
    execution: sequential
    inputPort In {
        location: config.Desk.location
        protocol: http { format = "json" }
        interfaces: Front
    }
    main {
        ask( x )( y ) {
            y = x
        }
        note( x ) {
            kept = x
        }
    }
}
"""


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_request_refused_for_its_type_or_for_want_of_a_handler_is_counted(transport):
    system = _start_on(transport, DESK, ["Desk"])
    try:
        assert system.invoke_rr("Desk", "ask", ValueTree("x")).name == "TypeMismatch"
        assert system.invoke_rr("Desk", "unanswered", ValueTree(1)).name == "UnknownOperation"
        system.invoke_ow("Desk", "note", ValueTree("x"))
        system.invoke_ow("Desk", "unheard", ValueTree(1))
        assert system.invoke_rr("Desk", "ask", ValueTree(1)) == ValueTree(1)
        system.invoke_ow("Desk", "note", ValueTree(2))
    finally:
        report = system.shutdown()
    [desk] = report.services
    assert (desk.served, desk.refused, desk.faults.total()) == (2, 4, 0)
    assert desk.line() == "Desk: served=2 faults=0 refused=4"


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_call_the_port_refuses_is_counted_as_refused(fixture_checked, transport):
    names = ["QuerySide", "EventStore"]
    config = local_tree_config(names) if transport == "local" else loopback_config(names)[0]
    system = runtime.start(fixture_checked, config, ["QuerySide"])
    try:
        # an operation the port does not offer, one of the wrong kind, and a request of the wrong type
        assert system.invoke_rr("QuerySide", "noSuchOp", ValueTree()).name == "UnknownOperation"
        with pytest.raises(TransportError, match="no one-way operation 'hasParkingArea'"):
            system.invoke_ow("QuerySide", "hasParkingArea", ValueTree(Long(1)))
        assert system.invoke_rr("QuerySide", "hasParkingArea", ValueTree("x")).name == "TypeMismatch"
        endpoint = system._local.get("queryside")
    finally:
        report = system.shutdown()
    [query] = report.services
    assert (query.served, query.refused, query.faults.total()) == (0, 3, 0)
    assert query.line() == "QuerySide: served=0 faults=0 refused=3"
    if endpoint is not None:  # a call refused because the service stopped is not counted
        with pytest.raises(TransportError, match="has stopped"):
            endpoint.offer("noSuchOp", ValueTree(), "rr", 1.0)
        assert system.instances["QuerySide"].refused == 3


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_an_activation_that_raises_past_the_interpreter_is_an_internal_error(transport, monkeypatch, caplog):
    def broken(block, ctx):
        raise RuntimeError("broken interpreter")

    monkeypatch.setattr(system_module, "exec_statements", broken)
    system = _start_on(transport, COUNTED, ["Counted"])
    try:
        with caplog.at_level("ERROR", logger="monoslice.runtime"):
            reply = system.invoke_rr("Counted", "echo", ValueTree(Long(1)))
    finally:
        report = system.shutdown()
    assert reply == Fault("InternalError", ValueTree("broken interpreter"))
    assert report.services[0].faults == {"InternalError": 1}
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage() == "internal error in Counted.echo"
    assert record.exc_info[0] is RuntimeError


def test_a_pool_job_that_raises_is_logged_and_its_thread_runs_the_next_job(caplog):
    ran = []
    release = threading.Event()

    def handle(job):
        ran.append((job, threading.current_thread()))
        if job == "bad":
            raise RuntimeError("bad job")
        release.wait(10)

    pool = WorkerPool("Jobs", 1)
    with caplog.at_level("ERROR", logger="monoslice.runtime"):
        pool.submit(handle, "bad")
        pool.submit(handle, "good")
        pool.stop()
        # the good job holds the thread until released
        assert pool.join(time.monotonic() + 0.2) is False
        release.set()
        assert pool.join(None) is True
    assert [job for job, _ in ran] == ["bad", "good"]
    assert ran[0][1] is ran[1][1]
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage() == "unhandled error in Jobs: handle"
    assert record.exc_info[0] is RuntimeError


def test_a_behavior_compiles_once_per_checked_program_on_its_first_activation(monkeypatch):
    checked = resolve(parse_source(DESK))
    compiled = []
    original = system_module.compile_block

    def compile_block(statements, ports, name):
        compiled.append(name)
        return original(statements, ports, name)

    monkeypatch.setattr(system_module, "compile_block", compile_block)
    for restart in range(2):  # a system restarted from the same checked program
        system = runtime.start(checked, local_tree_config(["Desk"]))
        try:
            assert compiled == (["Desk.ask"] if restart else [])  # start compiles nothing
            assert system.invoke_rr("Desk", "ask", ValueTree(1)) == ValueTree(1)
        finally:
            system.shutdown()
    assert compiled == ["Desk.ask"]


def test_request_timeout_and_aborted_handler_reporting():
    checked = resolve(parse_source(SPINNER))
    system = runtime.start(checked, local_tree_config(["Spinner"]))
    reply = system.invoke_rr("Spinner", "spin", ValueTree(), timeout=0.25)
    assert isinstance(reply, Fault)
    assert reply.name == "Timeout"
    report = system.shutdown(timeout=0.5)
    assert aborted_total(report) >= 1
    # an aborted activation stops at its loop's next iteration, and its worker with it
    deadline = time.monotonic() + 1.0
    for thread in threading.enumerate():
        if thread.name == "Spinner-worker":
            thread.join(max(0.0, deadline - time.monotonic()))
    assert not [t for t in threading.enumerate() if t.name == "Spinner-worker" and t.is_alive()]


WAITER = """
interface Notes {
    OneWay:
        note( string )
}

service Waiter( config ) {
    execution: single
    inputPort In {
        location: config.Waiter.location
        protocol: http { format = "json" }
        interfaces: Notes
    }
    main {
        note( x )
    }
}
"""


def test_shutdown_wakes_an_executable_blocked_in_receive():
    system = runtime.start(resolve(parse_source(WAITER)), local_tree_config(["Waiter"]))
    report = system.shutdown(timeout=0.3)
    assert aborted_total(report) == 1
    assert executable_faults(report) == {"Waiter": "Aborted"}
    assert "executable=Aborted" in str(report)
    deadline = time.monotonic() + 1.0
    for thread in threading.enumerate():
        if thread.name == "Waiter-main":
            thread.join(max(0.0, deadline - time.monotonic()))
    assert not [t for t in threading.enumerate() if t.name == "Waiter-main" and t.is_alive()]
    # an activation aborted before its receive waits is woken at once, as one in solicit is
    ctx = system_module._ActivationContext(system.instances["Waiter"], ValueTree())
    ctx.aborted = True
    started = time.monotonic()
    with pytest.raises(FaultSignal) as raised:
        ctx.receive("note")
    assert raised.value.fault.name == "Aborted"
    assert time.monotonic() - started < 1.0


ASKER = """
interface Ask {
    RequestResponse:
        ask( int )( int )
}

service Asker( config ) {
    execution: concurrent
    inputPort In {
        location: config.Asker.location
        protocol: http { format = "json" }
        interfaces: Ask
    }
    outputPort Sink {
        location: config.Sink.location
        protocol: http { format = "json" }
        interfaces: Ask
    }
    main {
        ask( x )( y ) {
            ask@Sink( x )( y )
        }
    }
}

service Sink( config ) {
    execution: concurrent
    inputPort In {
        location: config.Sink.location
        protocol: http { format = "json" }
        interfaces: Ask
    }
    main {
        ask( x )( y ) {
            y = x
        }
    }
}
"""


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_shutdown_wakes_an_activation_waiting_for_a_solicits_reply(transport):
    checked = resolve(parse_source(ASKER))
    # over socket://, a listener that accepts connections and never answers
    with socket.create_server(("127.0.0.1", 0)) as listener:
        if transport == "local":
            system = runtime.start(checked, local_tree_config(["Asker", "Sink"]))
            # Sink admits the call, and its pool drops the work: no reply ever comes
            system.instances["Sink"]._pool.submit = lambda handle, work: None
        else:
            port = listener.getsockname()[1]
            config = decode_json(json.dumps({
                "Asker": {"location": "local://asker"},
                "Sink": {"location": f"socket://127.0.0.1:{port}"},
            }))
            system = runtime.start(checked, config, ["Asker"])
        reply = system.invoke_rr("Asker", "ask", ValueTree(1), timeout=0.2)
        assert isinstance(reply, Fault) and reply.name == "Timeout"
        report = system.shutdown(timeout=0.3)
    assert aborted_total(report) == 1
    deadline = time.monotonic() + 1.0
    for thread in threading.enumerate():
        if thread.name == "Asker-worker":
            thread.join(max(0.0, deadline - time.monotonic()))
    assert not [t for t in threading.enumerate() if t.name == "Asker-worker" and t.is_alive()]
    # the woken solicit ends in Aborted on both transports, not in TransportError
    assert system.instances["Asker"].faults == {"Aborted": 1}


def test_an_activation_aborted_before_its_solicit_waits_is_woken_at_once():
    checked = resolve(parse_source(ASKER))
    system = runtime.start(checked, local_tree_config(["Asker", "Sink"]))
    try:
        system.instances["Sink"]._pool.submit = lambda handle, work: None
        ctx = system_module._ActivationContext(system.instances["Asker"], ValueTree())
        ctx.aborted = True
        started = time.monotonic()
        with pytest.raises(FaultSignal) as raised:
            ctx.solicit("Sink", "ask", ValueTree(1))
        assert raised.value.fault.name == "Aborted"
        assert time.monotonic() - started < 1.0
    finally:
        system.shutdown(timeout=0.3)


def test_an_executable_that_receives_nothing_in_time_ends_in_timeout():
    # receive waits the invoke timeout, as a call does
    system = runtime.start(resolve(parse_source(WAITER)), local_tree_config(["Waiter"]), invoke_timeout=0.1)
    try:
        faults = system.wait_executables(timeout=10)
    finally:
        system.shutdown()
    assert faults == {"Waiter": Fault("Timeout", ValueTree("no 'note' message arrived"))}


TWO_WAITERS = WAITER + WAITER[WAITER.index("service Waiter("):].replace("Waiter", "Waiter2")


def test_wait_executables_has_one_deadline_and_names_every_executable_still_running():
    system = runtime.start(resolve(parse_source(TWO_WAITERS)), local_tree_config(["Waiter", "Waiter2"]))
    try:
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="running: Waiter, Waiter2$"):
            system.wait_executables(timeout=0.5)
        # one deadline for the whole wait, not one for each executable
        assert time.monotonic() - started < 1.0
        system.invoke_ow("local://waiter", "note", ValueTree("x"))
        with pytest.raises(TimeoutError, match="running: Waiter2$"):
            system.wait_executables(timeout=0.5)
        system.invoke_ow("local://waiter2", "note", ValueTree("x"))
        assert system.wait_executables(timeout=10) == {"Waiter": None, "Waiter2": None}
    finally:
        report = system.shutdown(timeout=0.3)
    assert executable_faults(report) == {"Waiter": None, "Waiter2": None}


# ---------------------------------------------------------------------------
# one-way semantics


BOTH_KINDS = """
interface Ask {
    RequestResponse:
        op( long )( long )
}

interface Tell {
    OneWay:
        op( long )
}

service Twice( config ) {
    execution: concurrent
    inputPort Asked {
        location: config.Twice.location
        protocol: http { format = "json" }
        interfaces: Ask
    }
    inputPort Told {
        location: config.Told.location
        protocol: http { format = "json" }
        interfaces: Tell
    }
    main {
        op( x )( y ) {
            y = x
        }
    }
}
"""


def test_a_one_way_message_to_an_operation_handled_as_request_response_is_dropped(caplog):
    system = runtime.start(resolve(parse_source(BOTH_KINDS)), local_tree_config(["Twice", "Told"]))
    try:
        with caplog.at_level("WARNING", logger="monoslice.runtime"):
            assert system.invoke_ow("local://told", "op", ValueTree(1)) is None
        assert "dropping one-way op to Twice: service Twice has no handler for 'op'" in caplog.text
        assert system.invoke_rr("local://twice", "op", ValueTree(1)) == ValueTree(Long(1))
    finally:
        report = system.shutdown()
    assert (report.services[0].served, report.services[0].refused) == (1, 1)


def test_one_way_to_unbound_local_name_is_a_transport_error(fixture_checked, local_config):
    with runtime.start(fixture_checked, local_config, ["EventStore"]) as system:
        with pytest.raises(TransportError):
            system.invoke_ow("local://nobody", "notify", ValueTree())


def test_one_way_fifo_holds_for_a_thousand_messages():
    system, _ = start_source(COLLECTOR)
    try:
        for i in range(1000):
            system.invoke_ow("Collector", "put", ValueTree(i))
        drained = system.invoke_rr("Collector", "drain", ValueTree())
        items = drained.children["items"]
        assert [int(t.root) for t in items] == list(range(1000))
    finally:
        system.shutdown()


def test_one_way_fifo_holds_over_http_too():
    system, _ = start_source(COLLECTOR)  # loopback socket config
    try:
        for i in range(200):
            system.invoke_ow("Collector", "put", ValueTree(i))
        drained = system.invoke_rr("Collector", "drain", ValueTree())
        assert [int(t.root) for t in drained.children["items"]] == list(range(200))
    finally:
        system.shutdown()


def test_one_way_type_violations_are_dropped_at_the_receiver():
    system, _ = start_source(COLLECTOR)
    try:
        system.invoke_ow("Collector", "put", ValueTree("not an int"))
        system.invoke_ow("Collector", "put", ValueTree(7))
        drained = system.invoke_rr("Collector", "drain", ValueTree())
        assert [int(t.root) for t in drained.children["items"]] == [7]
    finally:
        system.shutdown()


def _nested(depth):
    tree = ValueTree(Long(1))
    for _ in range(depth):
        tree = ValueTree(children={"a": [tree]})
    return tree


def test_too_deep_messages_are_type_mismatches_over_local():
    system = runtime.start(resolve(parse_source(COLLECTOR)), local_tree_config(["Collector"]))
    try:
        reply = system.invoke_rr("Collector", "drain", _nested(800))
        assert isinstance(reply, Fault) and reply.name == "TypeMismatch"
        system.invoke_ow("Collector", "put", _nested(800))  # dropped at the receiver
        system.invoke_ow("Collector", "put", ValueTree(7))
        drained = system.invoke_rr("Collector", "drain", ValueTree())
        assert [int(t.root) for t in drained.children["items"]] == [7]
    finally:
        system.shutdown()


# ---------------------------------------------------------------------------
# execution modes


def test_concurrent_activations_get_isolated_scopes_and_distinct_ids(fixture_checked, local_config):
    with runtime.start(fixture_checked, local_config, ["CommandSide", "EventStore"]) as system:
        def create(i):
            return system.invoke_rr("CommandSide", "createParkingArea", area(f"lot-{i}"))

        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = list(pool.map(create, range(8)))
        assert all(isinstance(r, ValueTree) for r in replies), [
            r.name for r in replies if isinstance(r, Fault)
        ]
        ids = sorted(int(r.root) for r in replies)
        assert ids == list(range(1000, 1008))


def test_pool_holds_at_most_32_workers_under_40_callers(fixture_checked, local_config):
    with runtime.start(fixture_checked, local_config, ["QuerySide", "CommandSide", "EventStore"]) as system:
        # a longer log makes each EventStore.lookup slower, so QuerySide activations pile up
        for i in range(300):
            system.invoke_rr("CommandSide", "createParkingArea", area(f"lot-{i}"))
        created = system.invoke_rr("CommandSide", "createParkingArea", area("busy"))
        expected = ValueTree.make(id=ValueTree(created.root), info=area("busy"))
        most = 0
        done = threading.Event()

        def watch():
            nonlocal most
            while not done.is_set():
                workers = [t for t in threading.enumerate() if t.name.startswith("QuerySide-")]
                most = max(most, len(workers))
                time.sleep(0.001)

        start = threading.Barrier(40)

        def get(_):
            start.wait(timeout=10)
            return system.invoke_rr("QuerySide", "getParkingArea", ValueTree(created.root))

        watcher = threading.Thread(target=watch)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so unlocked pool updates would show
        watcher.start()
        try:
            with ThreadPoolExecutor(max_workers=40) as pool:
                replies = list(pool.map(get, range(40)))
        finally:
            sys.setswitchinterval(switch)
            done.set()
            watcher.join(timeout=10)
        assert not watcher.is_alive()
        assert replies == [expected] * 40
        assert 0 < most <= 32


def test_local_messages_are_isolated_from_the_caller_on_both_sides():
    system = runtime.start(resolve(parse_source(COLLECTOR)), local_tree_config(["Collector"]))
    try:
        message = ValueTree(5)
        system.invoke_ow("Collector", "put", message)
        message.root = 99  # the service holds its own copy of what was sent
        request = ValueTree()
        reply = system.invoke_rr("Collector", "drain", request)
        request.root = 7
        # drain's reply variable persists in the sequential scope and is only
        # overwritten item by item, so a shared reply would keep this extra item
        reply.children["items"].append(ValueTree(Long(99)))
        again = system.invoke_rr("Collector", "drain", ValueTree())
        assert [int(t.root) for t in again.children["items"]] == [5]
    finally:
        system.shutdown()


EVENT_LOG = """
type Event {
    id : long
    type : string
}

type Found {
    event? : Event
}

interface Log {
    RequestResponse:
        put( Event )( void ),
        get( long )( Found )
}

service EventLog( config ) {
    execution: sequential
    inputPort In {
        location: config.EventLog.location
        protocol: http { format = "json" }
        interfaces: Log
    }
    main {
        put( e )( ok ) {
            if( state.count == {} )
                state.count = 0
            state.log[state.count] = e
            state.count = state.count + 1
        }
        get( id )( result ) {
            i = 0
            while( state.log[i].id != {} ) {
                if( state.log[i].id == id ) {
                    result.event = state.log[i]
                    state.log[i].type = "READ"
                }
                i = i + 1
            }
        }
    }
}
"""


def test_a_stored_read_is_a_copy_of_the_state_it_was_read_from():
    system = runtime.start(resolve(parse_source(EVENT_LOG)), local_tree_config(["EventLog"]))
    try:
        assert system.invoke_rr("EventLog", "put", ValueTree.make(id=Long(1), type="CREATED")) == ValueTree()
        first = system.invoke_rr("EventLog", "get", ValueTree(Long(1)))
        again = system.invoke_rr("EventLog", "get", ValueTree(Long(1)))
        assert first == ValueTree.make(event=ValueTree.make(id=Long(1), type="CREATED"))
        assert again == ValueTree.make(event=ValueTree.make(id=Long(1), type="READ"))
    finally:
        system.shutdown()


# ---------------------------------------------------------------------------
# sharing across boundaries

DEEP = """
interface Build {
    RequestResponse:
        build( long )( any )
}

service Deep( config ) {
    execution: concurrent
    inputPort In {
        location: config.Deep.location
        protocol: http { format = "json" }
        interfaces: Build
    }
    main {
        // each pass nests the tree one level deeper
        build( n )( r ) {
            i = 0
            while( i < n ) {
                b.a = b
                i = i + 1
            }
            r = b
        }
    }
}
"""


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_deep_tree_built_by_assignment_reaches_the_reply_check(transport):
    system = _start_on(transport, DEEP, ["Deep"])
    try:
        shallow = system.invoke_rr("Deep", "build", ValueTree(Long(50)))
        assert isinstance(shallow, Fault) and shallow.name == "TypeMismatch"
        assert system.invoke_rr("Deep", "build", ValueTree(Long(800))) == shallow
        too_deep = system.invoke_rr("Deep", "build", ValueTree(Long(2000)))
        assert too_deep == Fault("TypeMismatch", ValueTree("payload nests too deeply"))
    finally:
        system.shutdown()


NUMBERS = """
type Scaled { x:double }

interface NumberInterface {
RequestResponse:
    ping( int )( int ),
    scale( int )( Scaled )
}

service Numbers( config ) {
    execution: concurrent
    inputPort In {
        location: config.Numbers.location
        protocol: http { format = "json" }
        interfaces: NumberInterface
    }
    main {
        ping( n )( r ) {
            r = n + 1
        }
        scale( n )( s ) {
            s.x = 1
        }
    }
}
"""


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_int_and_double_declarations_take_the_longs_a_port_delivers(transport):
    system = _start_on(transport, NUMBERS, ["Numbers"])
    try:
        reply = system.invoke_rr("Numbers", "ping", ValueTree(5))
        assert reply == ValueTree(6) and type(reply.root) is Long
        assert system.invoke_rr("Numbers", "ping", ValueTree(Long(-(2**31)))) == ValueTree(1 - 2**31)
        scaled = system.invoke_rr("Numbers", "scale", ValueTree(5))
        assert scaled == ValueTree.make(x=ValueTree(1)) and type(scaled.child("x").root) is Long
        too_wide = Fault("TypeMismatch", ValueTree("at '<root>': expected root of kind int, found long"))
        assert system.invoke_rr("Numbers", "ping", ValueTree(Long(2**31))) == too_wide
        assert system.invoke_rr("Numbers", "ping", ValueTree(2**31 - 1)) == too_wide  # the reply
    finally:
        system.shutdown()


CHAIN = """
type Chain { a?:Chain }

interface ChainInterface {
RequestResponse:
    grow( long )( Chain ),
    echo( Chain )( Chain )
}

service Chainer( config ) {
    execution: sequential
    inputPort In {
        location: config.Chainer.location
        protocol: http { format = "json" }
        interfaces: ChainInterface
    }
    main {
        // each call nests the kept chain n levels deeper and replies with all of it
        grow( n )( c ) {
            i = 0
            while( i < n ) {
                s.a = s
                i = i + 1
            }
            c = s
        }
        echo( x )( y ) {
            y = x
        }
    }
}
"""


def _chain(levels):
    tree = ValueTree()
    for _ in range(levels):
        tree = ValueTree(children={"a": [tree]})
    return tree


def _levels(tree):
    levels = 0
    while tree.children:
        (tree,) = tree.children["a"]
        levels += 1
    return levels


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_chain_grown_across_crossings_is_refused_where_one_sent_whole_is(transport):
    system = _start_on(transport, CHAIN, ["Chainer"])
    limit = values.MAX_NESTING
    too_deep = Fault("TypeMismatch", ValueTree("payload nests too deeply"))
    try:
        for _ in range(limit // 100):  # each reply walks its 100 new levels, not those admitted before
            chain = system.invoke_rr("Chainer", "grow", ValueTree(Long(100)))
            assert not isinstance(chain, Fault)
        assert _levels(chain) == limit
        assert _levels(system.invoke_rr("Chainer", "echo", _chain(limit))) == limit
        assert system.invoke_rr("Chainer", "echo", _chain(limit + 1)) == too_deep
        assert system.invoke_rr("Chainer", "echo", _chain(5 * limit)) == too_deep  # past the walk's recursion
        assert system.invoke_rr("Chainer", "grow", ValueTree(Long(1))) == too_deep
    finally:
        system.shutdown()


def test_a_walk_that_runs_out_of_stack_refuses_its_message_as_too_deep(monkeypatch):
    # A caller already deep in its own stack leaves the imaging walk or the
    # check too little room. The walks raise here at once: a line tracer, such
    # as tests/line_audit.py's, stops when the recursion limit is reached.
    # The imaging walk is the sender's, and its overflow means too deep on both
    # transports; the check's predicate hands over to the naming walk, which
    # does not recurse, so the verdict is the one a shallow caller gets.
    types = resolve(parse_source(CHAIN)).type_table
    tree = _chain(3)
    bad = _chain(3)
    bad.children["b"] = [ValueTree(Long(1))]
    violations = check_value(bad, types["Chain"], types)
    assert violations

    def overflow(*args):
        raise RecursionError

    monkeypatch.setattr(semantics, "_conformance", lambda type_, types: overflow)
    assert system_module._admit(tree, types["Chain"], types) == (tree, [])
    assert system_module._admit(bad, types["Chain"], types) == (bad, violations)
    monkeypatch.setattr(values, "_wire_image", overflow)
    assert system_module._admit(tree, types["Chain"], types) == (tree, [TOO_DEEP])


def _at_depth(depth, call):
    """call() from a frame this many frames deep in the calling thread."""
    frame, frames = sys._getframe(), 0
    while frame is not None:
        frame, frames = frame.f_back, frames + 1

    def descend(more):
        return call() if more <= 0 else descend(more - 1)

    return descend(depth - frames - 1)


def test_a_message_within_max_nesting_is_admitted_however_deep_its_caller_is():
    # over local:// the receiving port checks a message on its caller's stack;
    # this caller leaves it 100 frames, less than the message's 900 levels
    types = resolve(parse_source(CHAIN)).type_table
    chain, violation = values._image(_chain(values.MAX_NESTING))
    assert violation is None
    admitted, violations = _at_depth(
        sys.getrecursionlimit() - 100, lambda: system_module._admit(chain, types["Chain"], types)
    )
    assert admitted is chain and violations == []


# text with a lone surrogate, which Hypothesis's default text never holds
_SURROGATE_TEXT = st.builds(
    lambda before, surrogate, after: before + surrogate + after,
    st.text(max_size=2),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    st.text(max_size=2),
)
_WIRE_ROOTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(Long),
    # as many digits as int-to-text conversion allows by default, and one more
    st.builds(lambda sign, zeros: sign * 10**zeros, st.sampled_from([1, -1]), st.sampled_from([4299, 4300])),
    st.floats(),  # nan and both infinities among them
    st.text(max_size=4),
    _SURROGATE_TEXT,
)
_WIRE_NAMES = st.one_of(st.text(max_size=4), _SURROGATE_TEXT, st.just("$"))
_WIRE_TREES = st.recursive(
    st.builds(ValueTree, _WIRE_ROOTS),
    lambda children: st.builds(
        ValueTree,
        _WIRE_ROOTS,
        st.dictionaries(_WIRE_NAMES, st.lists(children, min_size=1, max_size=3), max_size=3),
    ),
    max_leaves=12,
)


def _typed(tree):
    """The tree with each root's type and exact text, so 5 differs from 5L and 0.0 from -0.0."""
    return repr(tree.root), {name: [_typed(t) for t in seq] for name, seq in tree.children.items()}


@given(_WIRE_TREES)
# the example count comes from the loaded profile when it asks for more (tests/conftest.py)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_the_wire_image_agrees_with_the_json_codec(tree):
    try:
        encoded = encode_json(tree)
        carried = decode_json(encoded) == tree
    except (ValueError, JsonError):
        encoded, carried = None, False
    image, violation = values._image(tree)
    assert (violation is None) == carried, violation
    if violation is None:
        assert encode_json(image) == encoded
        assert _typed(decode_json(encoded)) == _typed(image)


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_python_caller_changing_its_trees_changes_no_service_state(fixture_source, transport):
    system = _start_on(transport, fixture_source, ["CommandSide", "EventStore"])
    try:
        request = area("Oak Street 12")
        created = system.invoke_rr("CommandSide", "createParkingArea", request)
        request.children["name"][0].root = "changed after the call"
        request.children["availability"].append(ValueTree.make(start="00:00", end="01:00"))
        expected = ValueTree.make(
            event=ValueTree.make(type="PA_CREATED", id=created.root, info=area("Oak Street 12"))
        )
        reply = system.invoke_rr("EventStore", "lookup", ValueTree(created.root))
        assert reply == expected
        reply.child("event").child("info").child("name").root = "changed reply"
        reply.child("event").children["type"] = [ValueTree("PA_DELETED")]
        assert system.invoke_rr("EventStore", "lookup", ValueTree(created.root)) == expected
    finally:
        system.shutdown()


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_python_caller_writing_a_non_finite_double_into_a_sent_request_gets_a_type_mismatch(
    fixture_source, transport
):
    system = _start_on(transport, fixture_source, ["CommandSide", "EventStore"])
    try:
        request = area("Oak Street 12")
        created = system.invoke_rr("CommandSide", "createParkingArea", request)
        assert not isinstance(created, Fault)
        request.children["name"][0].root = float("nan")
        reply = system.invoke_rr("CommandSide", "createParkingArea", request)
        assert reply == Fault("TypeMismatch", ValueTree("double is not finite, which JSON cannot carry"))
    finally:
        system.shutdown()


KEEPER = """
type Msg {
    count : long
    big : Big
}

type Big {
    deep : string
}

interface Keep {
    RequestResponse:
        keep( Msg )( void ),
        give( void )( Msg )
}

interface Send {
    RequestResponse:
        send( void )( Msg )
}

service Keeper( config ) {
    execution: sequential
    inputPort In {
        location: config.Keeper.location
        protocol: http { format = "json" }
        interfaces: Keep
    }
    main {
        keep( m )( ok ) {
            state.kept = m
        }
        give( a )( m ) {
            m = state.kept
        }
    }
}

service Sender( config ) {
    execution: concurrent
    inputPort In {
        location: config.Sender.location
        protocol: http { format = "json" }
        interfaces: Send
    }
    outputPort Keeper {
        location: config.Keeper.location
        protocol: http { format = "json" }
        interfaces: Keep
    }
    main {
        // the plain int makes the port copy the message's root, and share the rest
        send( a )( r ) {
            msg.count = 5
            msg.big.deep = "sent"
            keep@Keeper( msg )()
            msg.big.deep = "changed after sending"
            give@Keeper( a )( r )
        }
    }
}
"""


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_sender_changing_what_it_sent_changes_no_receiver_state(transport):
    system = _start_on(transport, KEEPER, ["Keeper", "Sender"])
    try:
        reply = system.invoke_rr("Sender", "send", ValueTree())
        assert reply == ValueTree.make(count=Long(5), big=ValueTree.make(deep="sent"))
    finally:
        system.shutdown()


def test_a_message_crossing_a_local_port_is_not_changed_for_its_sender():
    system = _start_on("local", KEEPER, ["Keeper"])
    try:
        # as an activation's solicit passes a node of its scope: the port takes the
        # plain int to a long in a copy of the path to it, not in the sender's tree
        message = ValueTree.make(count=5, big=ValueTree.make(deep="sent"))
        keeper = system.instances["Keeper"].input_locations[0]
        assert system_module.call(system._local, system._connections, keeper, "keep", message, "rr", 10) == ValueTree()
        assert type(message.child("count").root) is int
        kept = system.invoke_rr("Keeper", "give", ValueTree())
        assert kept == ValueTree.make(count=Long(5), big=ValueTree.make(deep="sent"))
        assert type(kept.child("count").root) is Long
    finally:
        system.shutdown()


MEDDLER = """
interface MeddlerInterface {
RequestResponse:
    meddle( PAID )( string )
}

service Meddler( config ) {
    execution: concurrent
    inputPort In {
        location: config.Meddler.location
        protocol: http { format = "json" }
        interfaces: MeddlerInterface
    }
    outputPort EventStore {
        location: config.EventStore.location
        protocol: http { format = "json" }
        interfaces: EventStoreInterface
    }
    main {
        meddle( id )( name ) {
            lookup@EventStore( id )( res )
            res.event.info.name = "x"
            res.meddled = true
            name = res.event.info.name
        }
    }
}
"""


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_handler_changing_a_reply_leaves_the_event_log_alone(fixture_source, transport):
    system = _start_on(transport, fixture_source + MEDDLER, ["CommandSide", "EventStore", "Meddler"])
    try:
        created = system.invoke_rr("CommandSide", "createParkingArea", area("Oak Street 12"))
        assert system.invoke_rr("Meddler", "meddle", ValueTree(created.root)) == ValueTree("x")
        reply = system.invoke_rr("EventStore", "lookup", ValueTree(created.root))
        assert reply == ValueTree.make(
            event=ValueTree.make(type="PA_CREATED", id=created.root, info=area("Oak Street 12"))
        )
    finally:
        system.shutdown()


RELAY = """
type Item { name:string n*:long }
type Held { info:Item }

interface StoreInterface {
RequestResponse:
    put( Item )( string ),
    get( void )( Held )
}

interface RelayInterface {
RequestResponse:
    relay( void )( Held )
}

service Store( config ) {
    execution: sequential
    inputPort In {
        location: config.Store.location
        protocol: http { format = "json" }
        interfaces: StoreInterface
    }
    main {
        put( item )( ok ) {
            state.item = item
            ok = "OK"
        }
        get( req )( res ) {
            res.info = state.item
        }
    }
}

service Relay( config ) {
    execution: concurrent
    inputPort In {
        location: config.Relay.location
        protocol: http { format = "json" }
        interfaces: RelayInterface
    }
    outputPort Store {
        location: config.Store.location
        protocol: http { format = "json" }
        interfaces: StoreInterface
    }
    main {
        relay( req )( res ) {
            get@Store( req )( res )
            res.info.n[1] = "bad"
        }
    }
}
"""


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_write_under_an_admitted_reply_is_checked_again(transport):
    system = _start_on(transport, RELAY, ["Store", "Relay"])
    try:
        item = ValueTree.make(name="box", n=[Long(1), Long(2), Long(3)])
        assert system.invoke_rr("Store", "put", item) == ValueTree("OK")
        for _ in range(2):  # the second time, every node the store replies with was admitted
            reply = system.invoke_rr("Relay", "relay", ValueTree())
            assert isinstance(reply, Fault) and reply.name == "TypeMismatch"
            assert reply.data.root == "at 'info.n[1]': expected root of kind long, found string"
            assert system.invoke_rr("Store", "get", ValueTree()) == ValueTree.make(info=item)
    finally:
        system.shutdown()


FAULT_RELAY = """
interface AskInterface {
RequestResponse:
    ask( void )( void )
}

service Relay( config ) {
    execution: concurrent
    inputPort In {
        location: config.Relay.location
        protocol: http { format = "json" }
        interfaces: AskInterface
    }
    outputPort Callee {
        location: config.Callee.location
        protocol: http { format = "json" }
        interfaces: AskInterface
    }
    main {
        ask( req )( res ) {
            ask@Callee( req )( res )
        }
    }
}
"""


@contextlib.contextmanager
def _raw_callee(envelope):
    """A loopback port, the Relay's callee, that answers every post with 500 and envelope."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                connection, _ = listener.accept()
            except socket.timeout:
                continue
            with connection, connection.makefile("rb") as request:
                connection.settimeout(5)
                length = 0
                while (line := request.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                request.read(length)
                connection.sendall(
                    b"HTTP/1.1 500 Fault\r\nConnection: close\r\nContent-Length: %d\r\n\r\n" % len(envelope)
                    + envelope
                )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        stop.set()
        thread.join(timeout=15)
        listener.close()
    assert not thread.is_alive()


def _nested_text(depth):
    return b'{"a":' * depth + b"1" + b"}" * depth


@pytest.mark.parametrize("transport", ["local", "socket"])
@pytest.mark.parametrize(
    "data, violation",
    [
        (_nested_text(950), TOO_DEEP),  # past MAX_NESTING, within what json's scanner recurses
        (_nested_text(1100), TOO_DEEP),  # past what json's scanner recurses before 3.12
        (b'"\\ud800"', LONE_SURROGATE),
    ],
    ids=["950-deep", "1100-deep", "lone-surrogate"],
)
def test_a_relayed_fault_envelope_json_cannot_carry_is_the_same_transport_error_on_both_transports(
    transport, data, violation
):
    # the Relay reads the callee's envelope by the wire rule of a message, so
    # its caller gets the same fault over either transport, on every Python;
    # the autouse no_runtime_error fixture fails the test on an ERROR record
    with _raw_callee(b'{"fault":"F","data":' + data + b"}") as callee:
        relay = "local://relay" if transport == "local" else f"socket://127.0.0.1:{free_ports(1)[0]}"
        config = decode_json(
            json.dumps({"Relay": {"location": relay}, "Callee": {"location": f"socket://127.0.0.1:{callee}"}})
        )
        system = runtime.start(resolve(parse_source(FAULT_RELAY)), config, ["Relay"])
        try:
            reply = system.invoke_rr("Relay", "ask", ValueTree())
        finally:
            system.shutdown()
    assert reply == Fault("TransportError", ValueTree(f"malformed fault envelope: {violation}"))


def test_concurrent_relays_and_reads_of_one_admitted_item_keep_their_verdicts():
    system = _start_on("local", RELAY, ["Store", "Relay"])
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so the checks of one shared item interleave
    try:
        item = ValueTree.make(name="box", n=[Long(i) for i in range(20)])
        assert system.invoke_rr("Store", "put", item) == ValueTree("OK")

        def verdict_holds(i):
            if i % 2:
                reply = system.invoke_rr("Relay", "relay", ValueTree())
                return isinstance(reply, Fault) and reply.data.root.startswith("at 'info.n[1]'")
            return system.invoke_rr("Store", "get", ValueTree()) == ValueTree.make(info=item)

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(verdict_holds, range(200)))
    finally:
        sys.setswitchinterval(switch)
        system.shutdown()


def _area_of(periods):
    info = area(f"{periods}-period area")
    info.children["availability"] = [
        ValueTree.make(start=f"{h:02}:00", end=f"{h:02}:30") for h in range(periods)
    ]
    return info


def test_a_crossing_walks_only_the_nodes_no_port_admitted(fixture_checked, local_config, monkeypatch):
    original = values._wire_image
    visits = []

    def counted(tree):
        visits.append(tree)
        return original(tree)

    monkeypatch.setattr(values, "_wire_image", counted)
    with runtime.start(fixture_checked, local_config, ["QuerySide", "CommandSide", "EventStore"]) as system:
        counts = {}
        for periods in (1, 48):
            info = _area_of(periods)
            created = system.invoke_rr("CommandSide", "createParkingArea", info)
            ident = ValueTree(created.root)
            event = ValueTree.make(type="PA_CREATED", id=created.root, info=info)
            calls = [
                ("EventStore", "lookup", ValueTree.make(event=event)),
                ("QuerySide", "getParkingArea", ValueTree.make(id=created.root, info=info)),
            ]
            counts[periods] = []
            for target, operation, expected in calls * 2:
                visits.clear()
                assert system.invoke_rr(target, operation, ident) == expected
                counts[periods].append(len(visits))
    assert counts[1] == counts[48]
    # the 48-period area alone has 150 nodes; what crosses again is its stored event, admitted at publish
    assert max(counts[48]) < 20


LOOPER = """
interface Echo {
RequestResponse:
    ping( string )( string ),
    callSelf( string )( string )
}

service Looper( config ) {
    execution: sequential
    inputPort In {
        location: config.Looper.location
        protocol: http { format = "json" }
        interfaces: Echo
    }
    outputPort Self {
        location: config.Looper.location
        protocol: http { format = "json" }
        interfaces: Echo
    }
    main {
        ping( a )( b ) {
            b = a
        }
        callSelf( a )( b ) {
            ping@Self( a )( b )
        }
    }
}
"""


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_sequential_service_calling_itself_times_out_then_serves_again(transport):
    system = _start_on(transport, LOOPER, ["Looper"], invoke_timeout=0.5)
    try:
        began = time.monotonic()
        reply = system.invoke_rr("Looper", "callSelf", ValueTree("x"), timeout=5.0)
        # its one worker runs callSelf, so the inner ping waits behind it until it times out
        assert isinstance(reply, Fault) and reply.name == "Timeout"
        assert 0.45 <= time.monotonic() - began < 4.0
        assert system.invoke_rr("Looper", "ping", ValueTree("y"), timeout=5.0) == ValueTree("y")
    finally:
        system.shutdown()


MARKER = """
interface Mark {
    RequestResponse:
        mark( string )( string )
}

service Marker( config ) {
    execution: concurrent
    inputPort In {
        location: config.Marker.location
        protocol: http { format = "json" }
        interfaces: Mark
    }
    main {
        // config is read-only, but a variable that holds it is not; every
        // activation must start from the configuration as it was loaded
        mark( tag )( seen ) {
            if( config.tag != {} || config.Marker.location == "" )
                throw( ScopeLeak )
            c = config
            c.tag = tag
            c.Marker.location = ""
            i = 0
            while( i < 2000 )
                i = i + 1
            if( config.tag != {} )
                throw( ScopeLeak )
            seen = c.tag
        }
    }
}
"""


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_concurrent_activations_do_not_see_each_others_writes_to_the_config(transport):
    system = _start_on(transport, MARKER, ["Marker"])
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so the activations interleave
    try:
        tags = [f"tag-{i}" for i in range(16)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = list(pool.map(lambda tag: system.invoke_rr("Marker", "mark", ValueTree(tag)), tags))
        assert replies == [ValueTree(tag) for tag in tags]
        trees = {id(instance.config_tree) for instance in system.instances.values()}
        assert len(trees) == 1 and id(system.config) not in trees  # one tree, not the caller's
    finally:
        sys.setswitchinterval(switch)
        system.shutdown()


def test_single_mode_serves_exactly_one_activation():
    system, _ = start_source(ONE_SHOT)
    try:
        first = system.invoke_rr("OneShot", "hit", ValueTree(1))
        assert first == ValueTree(2)
        time.sleep(0.2)
        with pytest.raises(TransportError, match="service OneShot has stopped"):
            system.invoke_rr("OneShot", "hit", ValueTree(2))
    finally:
        system.shutdown()


def test_a_single_service_answers_a_caller_queued_behind_its_one_activation_that_it_stopped():
    """The queued caller is refused as one arriving later is, with TransportError
    raised: over socket:// that is the server's 503."""
    for transport in ("local", "socket"):
        system = _start_on(transport, ONE_SHOT, ["OneShot"])
        instance = system.instances["OneShot"]
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                first = pool.submit(system.invoke_rr, "OneShot", "hit", ValueTree(Long(300_000)))
                while not instance._live and not first.done():  # until the activation runs
                    time.sleep(0.001)
                with pytest.raises(TransportError, match="service OneShot has stopped"):
                    system.invoke_rr("OneShot", "hit", ValueTree(Long(1)))
                assert first.result(timeout=60) == ValueTree(Long(300_001))
        finally:
            system.shutdown()


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_single_service_refuses_every_call_after_the_one_it_took_at_once(transport):
    system = _start_on(transport, ONE_SHOT, ["OneShot"])
    callers = 8
    barrier = threading.Barrier(callers)

    def call(_):
        barrier.wait(timeout=10)
        started = time.monotonic()
        try:
            outcome = system.invoke_rr("OneShot", "hit", ValueTree(Long(300_000)))
        except TransportError as exc:
            outcome = exc
        ended = time.monotonic()
        return outcome, ended - started, ended

    try:
        with ThreadPoolExecutor(max_workers=callers) as pool:
            outcomes = list(pool.map(call, range(callers)))
    finally:
        report = system.shutdown()
    assert report.services[0].served == 1
    replies = [result for result in outcomes if isinstance(result[0], ValueTree)]
    refused = [result for result in outcomes if not isinstance(result[0], ValueTree)]
    assert [outcome for outcome, _, _ in replies] == [ValueTree(Long(300_001))]
    assert len(refused) == callers - 1
    answered = replies[0][2]
    for outcome, took, ended in refused:
        # while the one activation still runs, not after it
        assert isinstance(outcome, TransportError) and "has stopped" in str(outcome)
        assert took < 1.0 and ended < answered


def test_a_call_that_reaches_the_pool_after_the_service_stopped_is_refused_at_once():
    system = _start_on("local", GROWER, ["Grower"])
    instance = system.instances["Grower"]
    info = system.checked.port_ops[("Grower", "In")]["small"]
    try:
        # the call passed _Endpoint.offer's check just before shutdown stopped the service
        instance.request_stop()
        started = time.monotonic()
        with pytest.raises(TransportError, match="service Grower has stopped"):
            instance.offer_rr(info, ValueTree(), timeout=5)
        assert time.monotonic() - started < 1.0
    finally:
        system.shutdown()


def test_sequential_state_persists_across_activations():
    system, _ = start_source(COLLECTOR)
    try:
        for i in (3, 1, 4):
            system.invoke_ow("Collector", "put", ValueTree(i))
        first = system.invoke_rr("Collector", "drain", ValueTree())
        system.invoke_ow("Collector", "put", ValueTree(1))
        second = system.invoke_rr("Collector", "drain", ValueTree())
        assert [int(t.root) for t in first.children["items"]] == [3, 1, 4]
        assert [int(t.root) for t in second.children["items"]] == [3, 1, 4, 1]
    finally:
        system.shutdown()


def test_shutdown_lets_go_of_a_sequential_scope_once_its_worker_has_ended():
    system, _ = start_source(COLLECTOR)
    system.invoke_ow("Collector", "put", ValueTree(3))
    assert system.invoke_rr("Collector", "drain", ValueTree()).children["items"][0] == ValueTree(Long(3))
    scope = system.instances["Collector"]._scope
    assert scope is not None
    system.shutdown()
    del system
    # dropping the stopped system freed the instance, the scope's one other holder
    # (getrefcount counts its own argument as well)
    assert sys.getrefcount(scope) == 2


TALLY = """
type Tally {
    total : long
}

interface Count {
    RequestResponse:
        add( long )( Tally )
}

service Counter( config ) {
    execution: sequential
    inputPort In {
        location: config.Counter.location
        protocol: http { format = "json" }
        interfaces: Count
    }
    main {
        add( n )( t ) {
            if( state.total == {} )
                state.total = 0L
            state.total = state.total + n
            t.total = state.total
        }
    }
}

service Once( config ) {
    execution: single
    inputPort In {
        location: config.Once.location
        protocol: http { format = "json" }
        interfaces: Count
    }
    outputPort Counter {
        location: config.Counter.location
        protocol: http { format = "json" }
        interfaces: Count
    }
    main {
        add( n )( t ) {
            add@Counter( n )( t )
        }
    }
}

service Starter( config ) {
    outputPort Counter {
        location: config.Counter.location
        protocol: http { format = "json" }
        interfaces: Count
    }
    main {
        add@Counter( 1L )( t )
    }
}
"""


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_stopped_system_is_freed_by_reference_counting(transport):
    with no_cyclic_garbage():
        system = _start_on(transport, TALLY, ["Counter", "Once", "Starter"])
        try:
            assert system.wait_executables(timeout=10) == {"Starter": None}
            assert system.invoke_rr("Once", "add", ValueTree(Long(2))) == ValueTree.make(total=Long(3))
        finally:
            system.shutdown()
        del system


def test_shutdown_closes_every_pooled_and_parked_connection():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        system = _start_on("socket", TALLY, ["Counter", "Once", "Starter"])
        try:
            assert system.wait_executables(timeout=10) == {"Starter": None}
            # the Starter's calls and these leave idle connections in the pool and parked at the ports
            assert system.invoke_rr("Once", "add", ValueTree(Long(2))) == ValueTree.make(total=Long(3))
            assert system.invoke_rr("Counter", "add", ValueTree(Long(4))) == ValueTree.make(total=Long(7))
        finally:
            system.shutdown()
        del system  # a socket dropped unclosed warns here
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_no_port_worker_is_alive_once_shutdown_returns():
    system, ports = start_source(ONE_SHOT)
    workers = lambda: [
        t for t in threading.enumerate() if t.name == f"http-port-{ports['OneShot']}-worker" and t.is_alive()
    ]
    with ThreadPoolExecutor(max_workers=1) as caller:
        reply = caller.submit(system.invoke_rr, "OneShot", "hit", ValueTree(Long(100_000)))
        deadline = time.monotonic() + 5
        while not system.instances["OneShot"]._live and time.monotonic() < deadline:
            time.sleep(0.001)
        # shutdown drains the activation, and then the port's worker still sends its reply
        report = system.shutdown()
        assert not workers()
        assert reply.result(timeout=10) == ValueTree(Long(100_001))
    assert report.services[0].served == 1 and aborted_total(report) == 0


# ---------------------------------------------------------------------------
# transport transparency


def _outcomes_for(fixture_checked, config, testclient_location):
    with runtime.start(
        fixture_checked, config, ["QuerySide", "CommandSide", "EventStore"]
    ) as system:
        return run_script(
            lambda service, op, req: system.invoke_rr(service, op, req), testclient_location
        )


def test_local_and_socket_transports_are_observationally_equal(fixture_checked, local_config):
    local = _outcomes_for(fixture_checked, local_config, "local://testclient")
    socket_config, ports = loopback_config(SERVICE_NAMES)
    over_http = _outcomes_for(
        fixture_checked, socket_config, f"socket://127.0.0.1:{ports['TestClient']}"
    )
    assert len(local) >= 10
    assert local == over_http


def _random_call(rng):
    ids = [Long(rng.choice([1, 123, 1000, 1001, 1002, 5000]))]

    def id_tree():
        if rng.random() < 0.2:
            return ValueTree(rng.choice(["oops", True]))  # boundary violation
        return ValueTree(rng.choice(ids))

    def area_tree():
        if rng.random() < 0.25:
            return ValueTree.make(name=ValueTree(rng.randint(0, 5)))  # wrong kinds, missing fields
        return area(f"area-{rng.randint(0, 9)}", rng.choice(["SLOW", "FAST"]))

    def subscription():
        topics = [ValueTree(rng.choice(["PA_CREATED", "PA_DELETED", "PA_UPDATED", "X"]))
                  for _ in range(rng.randint(0, 2))]
        return ValueTree.make(location=f"local://probe-{rng.randint(0, 2)}", topics=topics)

    def event():
        tree = ValueTree.make(type=rng.choice(["PA_CREATED", "PA_DELETED", "X"]))
        if rng.random() < 0.5:
            tree.children["id"] = [ValueTree(Long(rng.randint(1, 5)))]
        if rng.random() < 0.15:
            del tree.children["type"]  # violates the event shape
        return tree

    return rng.choice(
        [
            lambda: ("CommandSide", "createParkingArea", area_tree()),
            lambda: ("CommandSide", "updateParkingArea",
                     ValueTree.make(id=ValueTree(rng.choice(ids)), info=area_tree())),
            lambda: ("CommandSide", "deleteParkingArea", id_tree()),
            lambda: ("QuerySide", "getParkingArea", id_tree()),
            lambda: ("QuerySide", "hasParkingArea", id_tree()),
            lambda: ("EventStore", "lookup", id_tree()),
            lambda: ("EventStore", "subscribe", subscription()),
            lambda: ("EventStore", "unsubscribe", subscription()),
            lambda: ("EventStore", "publish", event()),
            lambda: ("CommandSide", "noSuchOperation", ValueTree()),
        ]
    )()


def _random_outcomes(fixture_checked, config, seed):
    rng = random.Random(seed)
    outcomes = []
    with runtime.start(
        fixture_checked, config, ["QuerySide", "CommandSide", "EventStore"]
    ) as system:
        for _ in range(30):
            service, operation, request = _random_call(rng)
            try:
                reply = system.invoke_rr(service, operation, request)
            except TransportError:
                outcomes.append(("transport-error",))
                continue
            if isinstance(reply, Fault):
                outcomes.append(("fault", reply.name))
            else:
                outcomes.append(("ok", reply))
    return outcomes


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_random_scripts_are_transport_transparent(fixture_checked, local_config, seed):
    # the same seeded call sequence, replayed over each transport, must
    # produce identical reply trees and fault names call for call
    local = _random_outcomes(fixture_checked, local_config, seed)
    socket_config, _ = loopback_config(SERVICE_NAMES)
    over_http = _random_outcomes(fixture_checked, socket_config, seed)
    assert local == over_http


# ---------------------------------------------------------------------------
# wire format


def _post_raw(port, operation, body, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request(
            "POST",
            f"/{operation}",
            body=body,
            headers={"Content-Type": "application/json; charset=utf-8", **(headers or {})},
        )
        response = connection.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()
    finally:
        connection.close()


def test_wire_capture_golden(fixture_checked):
    config, ports = loopback_config(SERVICE_NAMES)
    with runtime.start(fixture_checked, config, ["QuerySide", "CommandSide", "EventStore"]):
        status, ctype, body = _post_raw(ports["CommandSide"], "deleteParkingArea", b"123")
        assert (status, body) == (200, b'"OK"')
        assert ctype == "application/json; charset=utf-8"

        status, _, body = _post_raw(ports["QuerySide"], "getParkingArea", b"999")
        assert (status, body) == (500, b'{"fault":"NotFound","data":null}')

        status, _, body = _post_raw(ports["CommandSide"], "deleteParkingArea", b"not json")
        assert status == 500
        assert json.loads(body)["fault"] == "TypeMismatch"


def test_wire_one_way_accepts_with_202():
    system, ports = start_source(COLLECTOR)
    try:
        status, _, body = _post_raw(ports["Collector"], "put", b"41")
        assert (status, body) == (202, b"")
        drained = system.invoke_rr("Collector", "drain", ValueTree())
        assert [int(t.root) for t in drained.children["items"]] == [41]
    finally:
        system.shutdown()


def test_unreadable_bodies_get_the_type_mismatch_envelope():
    system, ports = start_source(COLLECTOR)
    try:
        status, _, body = _post_raw(ports["Collector"], "drain", b"", {"Content-Length": "abc"})
        assert status == 500
        assert json.loads(body)["fault"] == "TypeMismatch"

        status, _, body = _post_raw(ports["Collector"], "drain", b'{"a":' * 5000 + b"1" + b"}" * 5000)
        assert status == 500
        assert json.loads(body)["fault"] == "TypeMismatch"
        assert system.invoke_rr("Collector", "drain", ValueTree()) == ValueTree()
    finally:
        system.shutdown()


def test_a_body_too_deep_to_check_gets_the_type_mismatch_envelope():
    system, ports = start_source(COLLECTOR)
    try:
        status, _, body = _post_raw(ports["Collector"], "drain", b'{"a":' * 950 + b"1" + b"}" * 950)
        assert status == 500
        assert json.loads(body)["fault"] == "TypeMismatch"
        assert system.invoke_rr("Collector", "drain", ValueTree()) == ValueTree()
    finally:
        system.shutdown()


@pytest.mark.parametrize("depth", [1000, 1100, 1500])
def test_a_body_nested_past_max_nesting_gets_too_deep_whichever_step_refuses_it(depth):
    # decode_json refuses each on every Python: past MAX_NESTING as it scans,
    # or, where json's scanner runs out of recursion first, by that backstop
    system, ports = start_source(COLLECTOR)
    try:
        status, _, body = _post_raw(ports["Collector"], "drain", b'{"a":' * depth + b"1" + b"}" * depth)
        assert (status, json.loads(body)) == (500, {"fault": "TypeMismatch", "data": TOO_DEEP})
        assert system.invoke_rr("Collector", "drain", ValueTree()) == ValueTree()
    finally:
        system.shutdown()


@pytest.mark.parametrize(
    "operation, body", [("text", b'"\\ud800"'), ("anything", b'{"\\udfff":1}')], ids=["root", "child-name"]
)
def test_a_body_holding_a_lone_surrogate_gets_the_type_mismatch_envelope(operation, body):
    system, ports = start_source(ECHO)
    try:
        status, _, reply = _post_raw(ports["Echo"], operation, body)
        assert status == 500
        assert json.loads(reply) == {"fault": "TypeMismatch", "data": LONE_SURROGATE}
    finally:
        report = system.shutdown()
    assert (report.services[0].served, report.services[0].refused) == (0, 1)


def _start_on(transport, source, names, **kwargs):
    checked = resolve(parse_source(source))
    if transport == "local":
        return runtime.start(checked, local_tree_config(names), names, **kwargs)
    return runtime.start(checked, loopback_config(names)[0], names, **kwargs)


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_an_operation_name_utf8_cannot_encode_is_refused_as_unknown(transport):
    # a lone surrogate: percent-encoding it as UTF-8 fails, and no service declares such a name
    system = _start_on(transport, GROWER, ["Grower"])
    try:
        reply = system.invoke_rr("Grower", "x\ud800", ValueTree())
        assert isinstance(reply, Fault) and reply.name == "UnknownOperation"
        assert "no request-response operation" in reply.data.root
        with pytest.raises(TransportError, match="no one-way operation"):
            system.invoke_ow("Grower", "x\ud800", ValueTree())
        assert system.invoke_rr("Grower", "small", ValueTree()) == ValueTree(Long(10))
    finally:
        report = system.shutdown()
    # neither call reached the service
    assert (report.services[0].served, report.services[0].refused) == (1, 0)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int-to-text conversion"
)
@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_reply_too_long_for_json_is_a_type_mismatch(transport):
    system = _start_on(transport, GROWER, ["Grower"])
    try:
        reply = system.invoke_rr("Grower", "big", ValueTree())
        assert isinstance(reply, Fault) and reply.name == "TypeMismatch"
        assert system.invoke_rr("Grower", "small", ValueTree()) == ValueTree(Long(10))
    finally:
        system.shutdown()


@pytest.mark.parametrize("transport", ["local", "socket"])
@pytest.mark.parametrize(
    "message, violation",
    [
        pytest.param(
            ValueTree(Long(10**5000)),
            "integer has too many digits for JSON",
            id="digits",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="no limit on int-to-text conversion",
            ),
        ),
        pytest.param(_nested(2000), "payload nests too deeply", id="depth"),
        pytest.param(
            ValueTree.make(x=float("nan")), "double is not finite, which JSON cannot carry", id="nan"
        ),
    ],
)
def test_a_request_json_cannot_carry_is_a_type_mismatch(transport, message, violation, caplog):
    system = _start_on(transport, GROWER + COLLECTOR, ["Grower", "Collector"])
    try:
        reply = system.invoke_rr("Grower", "small", message)
        assert reply == Fault("TypeMismatch", ValueTree(violation))
        with caplog.at_level("WARNING", logger="monoslice.runtime"):
            system.invoke_ow("Collector", "put", message)
        assert "dropping one-way put" in caplog.text
        assert violation in caplog.text
        system.invoke_ow("Collector", "put", ValueTree(7))
        drained = system.invoke_rr("Collector", "drain", ValueTree())
        assert [int(t.root) for t in drained.children["items"]] == [7]
    finally:
        system.shutdown()


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_request_json_cannot_carry_is_refused_before_its_operation_is_looked_up(transport, caplog):
    system = _start_on(transport, GROWER + COLLECTOR, ["Grower", "Collector"])
    violation = "double is not finite, which JSON cannot carry"
    try:
        for target, operation in [("Grower", "nosuch"), ("Collector", "put")]:
            reply = system.invoke_rr(target, operation, ValueTree.make(x=float("nan")))
            assert reply == Fault("TypeMismatch", ValueTree(violation))
        with caplog.at_level("WARNING", logger="monoslice.runtime"):
            for target, operation in [("Collector", "nosuch"), ("Grower", "small")]:
                assert system.invoke_ow(target, operation, ValueTree.make(x=float("nan"))) is None
        dropped = [r.getMessage() for r in caplog.records if "dropping one-way" in r.getMessage()]
        assert len(dropped) == 2 and all(violation in message for message in dropped)
        assert system.invoke_rr("Collector", "drain", ValueTree()) == ValueTree()
    finally:
        system.shutdown()


ECHO = """
interface Echo {
    RequestResponse:
        text( string )( string ),
        anything( any )( any )
    OneWay:
        note( any )
}

service Echo( config ) {
    execution: concurrent
    inputPort In {
        location: config.Echo.location
        protocol: http { format = "json" }
        interfaces: Echo
    }
    main {
        text( a )( b ) {
            b = a
        }
        anything( a )( b ) {
            b = a
        }
        note( a ) {
            b = a
        }
    }
}
"""


@pytest.mark.parametrize("transport", ["local", "socket"])
@pytest.mark.parametrize(
    "operation, message, violation",
    [
        ("text", ValueTree("\ud800"), LONE_SURROGATE),
        ("anything", ValueTree(children={"x\udfff": [ValueTree(Long(1))]}), LONE_SURROGATE),
        ("anything", ValueTree(children={"$": [ValueTree(Long(1))]}), ROOT_KEY),
    ],
    ids=["surrogate", "surrogate-name", "root-key-name"],
)
def test_text_or_a_child_name_json_cannot_carry_is_a_type_mismatch(
    transport, operation, message, violation, caplog
):
    system = _start_on(transport, ECHO, ["Echo"])
    try:
        assert system.invoke_rr("Echo", operation, message) == Fault("TypeMismatch", ValueTree(violation))
        with caplog.at_level("WARNING", logger="monoslice.runtime"):
            assert system.invoke_ow("Echo", "note", message) is None
        assert "dropping one-way note" in caplog.text and violation in caplog.text
        assert system.invoke_rr("Echo", "text", ValueTree("é")) == ValueTree("é")
    finally:
        report = system.shutdown()
    assert report.services[0].served == 1


PADDER = """
type Req {
    n : any
}

type Held {
    x* : Slot
}

type Slot {
    a* : any
}

interface Pad {
    RequestResponse:
        pad( Req )( void ),
        held( void )( Held )
}

service Padder( config ) {
    execution: sequential
    inputPort In {
        location: config.Padder.location
        protocol: http { format = "json" }
        interfaces: Pad
    }
    main {
        pad( req )( r ) {
            s.x[3].a[req.n] = 1
        }
        held( q )( r ) {
            r = s
        }
    }
}
"""


def test_a_store_at_an_index_from_a_request_cannot_pad_without_bound():
    system = _start_on("local", PADDER, ["Padder"])
    try:
        started = time.monotonic()
        reply = system.invoke_rr("Padder", "pad", ValueTree.make(n=Long(10**8)))
        assert isinstance(reply, Fault) and reply.name == "TypeMismatch"
        assert time.monotonic() - started < 1
        assert system.invoke_rr("Padder", "pad", ValueTree.make(n="s")).name == "TypeMismatch"
        # neither faulted store left s.x padded in the scope the service keeps
        assert system.invoke_rr("Padder", "held", ValueTree()) == ValueTree()
        assert system.invoke_rr("Padder", "pad", ValueTree.make(n=Long(3))) == ValueTree()
        assert len(system.invoke_rr("Padder", "held", ValueTree()).children["x"]) == 4
    finally:
        system.shutdown()


OVERFLOWER = """
interface Overflow {
    RequestResponse:
        huge( void )( double )
}

service Overflower( config ) {
    execution: concurrent
    inputPort In {
        location: config.Overflower.location
        protocol: http { format = "json" }
        interfaces: Overflow
    }
    main {
        huge( a )( b ) {
            b = 1e308 * 10.0
        }
    }
}
"""


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_a_reply_that_overflows_a_double_is_a_type_mismatch(transport):
    system = _start_on(transport, OVERFLOWER, ["Overflower"])
    try:
        reply = system.invoke_rr("Overflower", "huge", ValueTree())
        assert reply == Fault("TypeMismatch", ValueTree("double is not finite, which JSON cannot carry"))
    finally:
        system.shutdown()


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_an_operation_named_outside_ascii_is_served(transport):
    system = _start_on(transport, CAFE, ["Cafe"])
    try:
        assert system.invoke_rr("Cafe", "café", ValueTree()) == ValueTree("crème")
    finally:
        system.shutdown()


def test_get_requests_are_rejected():
    system, ports = start_source(COLLECTOR)
    try:
        connection = http.client.HTTPConnection("127.0.0.1", ports["Collector"], timeout=10)
        connection.request("GET", "/drain")
        assert connection.getresponse().status == 405
        connection.close()
    finally:
        system.shutdown()


# ---------------------------------------------------------------------------
# dynamic rebinding


def test_rebound_output_port_is_used_by_later_sends(fixture_checked, local_config):
    # subscribe with an unreachable location, then resubscribe correctly:
    # publishes must deliver to the latest binding without faulting
    with runtime.start(fixture_checked, local_config) as system:
        assert system.wait_executables(timeout=15) == {"TestClient": None}
        reply = system.invoke_rr(
            "EventStore",
            "subscribe",
            ValueTree.make(location="local://testclient", topics=ValueTree("PA_CREATED")),
        )
        assert reply == ValueTree("OK")
        created = system.invoke_rr("CommandSide", "createParkingArea", area("late"))
        assert isinstance(created, ValueTree)  # fan-out to the executable's queue succeeded


@pytest.mark.parametrize("transport", ["local", "socket"])
@pytest.mark.parametrize("host", ["bad host", "tab\there", "a..b", "x" * 70])
def test_a_rebind_to_a_host_the_client_cannot_dial_is_a_bad_location(fixture_source, transport, host):
    system = _start_on(transport, fixture_source, ["EventStore"])
    try:
        # publish rebinds its Subscriber port to each subscriber's location
        subscription = ValueTree.make(location=f"socket://{host}:8080", topics=ValueTree("PA_CREATED"))
        assert system.invoke_rr("EventStore", "subscribe", subscription) == ValueTree("OK")
        reply = system.invoke_rr("EventStore", "publish", ValueTree.make(type="PA_CREATED"))
        assert isinstance(reply, Fault) and reply.name == "BadLocation"
    finally:
        system.shutdown()
