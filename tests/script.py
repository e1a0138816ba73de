"""Scripted RPC sequence and fixture mutation shared across test modules.

run_script() drives the smart-city services through a fixed sequence of
calls and normalizes each outcome to ("ok", tree), ("fault", name), or
("transport-error",). The same script must produce identical outcome
lists over the in-process transport and over loopback HTTP.
"""

from __future__ import annotations

import copy

from monoslice.ast import Assign, Literal, OneWaySend, Path, PathStep
from monoslice.parser import parse_source
from monoslice.render import render
from monoslice.runtime import Fault, TransportError
from monoslice.values import Long, ValueTree


def area(name: str, speed: str = "FAST") -> ValueTree:
    return ValueTree.make(
        name=name,
        availability=[ValueTree.make(start="08:00", end="20:00")],
        chargingSpeed=ValueTree(speed),
        geolocation=ValueTree.make(latitude=55.4038, longitude=10.4024),
    )


def run_script(invoke, testclient_location: str) -> list[tuple]:
    """invoke(service_name, operation, request) -> ValueTree | Fault (or raises TransportError)."""
    outcomes: list[tuple] = []

    def call(service: str, operation: str, request: ValueTree):
        try:
            result = invoke(service, operation, request)
        except TransportError:
            outcomes.append(("transport-error",))
            return None
        if isinstance(result, Fault):
            outcomes.append(("fault", result.name))
            return None
        outcomes.append(("ok", result))
        return result

    call("EventStore", "unsubscribe", ValueTree.make(location=testclient_location))
    call("QuerySide", "getParkingArea", ValueTree(Long(123)))
    call("QuerySide", "hasParkingArea", ValueTree(Long(123)))

    first = call("CommandSide", "createParkingArea", area("Oak Street 12"))
    second = call("CommandSide", "createParkingArea", area("Harbor Deck", "SLOW"))
    first_id = ValueTree(first.root) if first is not None else ValueTree(Long(0))
    second_id = ValueTree(second.root) if second is not None else ValueTree(Long(0))

    call("QuerySide", "getParkingArea", first_id)
    call(
        "CommandSide",
        "updateParkingArea",
        ValueTree.make(id=first_id.copy(), info=area("Oak Street 12b")),
    )
    call("QuerySide", "getParkingArea", first_id)
    call("CommandSide", "deleteParkingArea", first_id)
    call("QuerySide", "getParkingArea", first_id)
    call("QuerySide", "hasParkingArea", second_id)
    call("CommandSide", "deleteParkingArea", ValueTree("abc"))
    call(
        "EventStore",
        "subscribe",
        ValueTree.make(location="local://script-probe", topics=ValueTree("NOPE")),
    )
    call("CommandSide", "bogus", ValueTree())
    call("EventStore", "lookup", ValueTree(Long(123)))
    return outcomes


def corrupted_fixture_source(fixture_source: str) -> str:
    """The fixture with EventStore delivering a wrong event type to subscribers."""
    program = copy.deepcopy(parse_source(fixture_source, "smart-city"))
    event_store = next(s for s in program.services if s.name == "EventStore")
    publish = next(b for b in event_store.behavior.branches if b.operation == "publish")

    def find_notify(statements):
        for i, statement in enumerate(statements):
            if isinstance(statement, OneWaySend) and statement.operation == "notify":
                return statements, i
            for attr in ("then", "orelse", "body"):
                inner = getattr(statement, attr, None)
                if inner:
                    hit = find_notify(inner)
                    if hit is not None:
                        return hit
        return None

    statements, index = find_notify(publish.body)
    statements.insert(
        index,
        Assign(Path([PathStep("event"), PathStep("type")]), Literal("PA_CREATED")),
    )
    return render(program)


def nested_source(depth: int) -> str:
    """A service whose main assigns `depth` parenthesized `&&` expressions, one inside the next."""
    return "service S { main { r = " + "(x == {} && " * depth + "true" + ")" * depth + " } }"


COLLECTOR = """
type Msg : long

type MsgList {
    items* : long
}

interface Sink {
    RequestResponse:
        drain( void )( MsgList )
    OneWay:
        put( Msg )
}

service Collector( config ) {
    execution: sequential
    inputPort In {
        location: config.Collector.location
        protocol: http { format = "json" }
        interfaces: Sink
    }
    main {
        put( m ) {
            if( state.count == {} )
                state.count = 0
            state.seen[state.count] = m
            state.count = state.count + 1
        }
        drain( req )( res ) {
            i = 0
            while( state.seen[i] != {} ) {
                res.items[i] = state.seen[i]
                i = i + 1
            }
        }
    }
}
"""

ONE_SHOT = """
interface Once {
    RequestResponse:
        hit( long )( long )
}

service OneShot( config ) {
    execution: single
    inputPort In {
        location: config.OneShot.location
        protocol: http { format = "json" }
        interfaces: Once
    }
    main {
        // spins a times first, so that a second call can queue behind it
        hit( a )( b ) {
            i = 0
            while( i < a )
                i = i + 1
            b = a + 1
        }
    }
}
"""

SPINNER = """
interface Spin {
    RequestResponse:
        spin( void )( void )
}

service Spinner( config ) {
    execution: concurrent
    inputPort In {
        location: config.Spinner.location
        protocol: http { format = "json" }
        interfaces: Spin
    }
    main {
        // never ends by itself: only shutdown's abort ends it, however fast the host
        spin( a )( b ) {
            i = 0
            while( i >= 0 )
                i = i + 1
        }
    }
}
"""

GROWER = """
interface Grow {
    RequestResponse:
        big( void )( long ),
        small( void )( long )
}

service Grower( config ) {
    execution: concurrent
    inputPort In {
        location: config.Grower.location
        protocol: http { format = "json" }
        interfaces: Grow
    }
    main {
        // 10 squared 13 times has 8193 digits, more than JSON encoding converts
        big( a )( b ) {
            b = 10L
            i = 0
            while( i < 13 ) {
                b = b * b
                i = i + 1
            }
        }
        small( a )( b ) {
            b = 10L
        }
    }
}
"""

# an operation name outside ASCII, which the lexer takes as an identifier
CAFE = """
interface Menu {
    RequestResponse:
        café( void )( string )
}

service Cafe( config ) {
    execution: concurrent
    inputPort In {
        location: config.Cafe.location
        protocol: http { format = "json" }
        interfaces: Menu
    }
    main {
        café( a )( b ) {
            b = "crème"
        }
    }
}
"""
