import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoslice.parser
import reference_lexer
from monoslice.ast import (
    BasicRef,
    Binary,
    BasicType,
    Cardinality,
    ExecutionMode,
    If,
    InlineTreeRef,
    InputChoice,
    InterfaceDecl,
    Literal,
    NamedRef,
    Path,
    PathExpr,
    PathStep,
    Receive,
    ServiceDecl,
    SolicitResponse,
    StatementSequence,
    Throw,
    TreeLiteral,
    TypeDecl,
    Unary,
)
from monoslice.lexer import LexError, tokenize
from monoslice.parser import ParseError, parse_source
from monoslice.render import render
from monoslice.semantics import CheckedProgram, ResolveFailure, resolve
from monoslice.values import Long

from proggen import random_program
from script import nested_source
from test_lexer import _gaps, _separator

# Reference listings the grammar must accept, kept verbatim.

SKELETON = """\
service QuerySide( config ) { ... }
service CommandSide( config ) { ... }
service EventStore( config ) { ... }
"""

TYPES = """\
type PAID:long // Parking Area IDentifier
type ParkingArea {
\tid:PAID
\tinfo:ParkingAreaInformation
}
type ParkingAreaInformation {
\tname:string
\tavailability*:TimePeriod
\tchargingSpeed:ChargingSpeed
\tgeolocation:Location
}
"""

INTERFACE = """\
interface CommandSideInterface {
RequestResponse:
 createParkingArea( ParkingAreaInformation )( PAID ),
 updateParkingArea( ParkingArea )( string ),
 deleteParkingArea( PAID )( string )
}
"""

COMMAND_SIDE = """\
/* ... data types and API definitions ... */
service CommandSide( config:Configuration ) {
\texecution: concurrent
\tinputPort InputCommands {
\t\tlocation: config.CommandSide.location
\t\tprotocol: http { format = "json" }
\t\tinterfaces: CommandSideInterface
\t}
\toutputPort EventStore {
\t\tlocation: config.EventStore.location
\t\tprotocol: http { format = "json" }
\t\tinterfaces: EventStoreInterface
\t}
\tmain { /* business logic implementation */ }
}
"""

TEST_SNIPPET = """\
subscribe@EventStore( {
\tlocation = testLocation
\ttopics[0] = "PA_DELETED"
} )( res )
deleteParkingArea@CommandSide( 123L )()
notify( event )
if( event.type != "PA_DELETED" || event.id != 123L )
\tthrow( AssertionFailed )
"""


def wrap_in_service(statements: str) -> str:
    return "service TestClient( config ) {\nmain {\n" + statements + "\n}\n}"


def test_three_service_skeleton_parses_in_order():
    program = parse_source(SKELETON)
    assert [s.name for s in program.services] == ["QuerySide", "CommandSide", "EventStore"]
    assert all(isinstance(s, ServiceDecl) for s in program.declarations)


def test_types_listing():
    program = parse_source(TYPES)
    paid, area, info = program.declarations
    assert paid == TypeDecl("PAID", BasicType.LONG, [])
    assert area.name == "ParkingArea"
    assert area.root is BasicType.VOID
    assert [(f.name, f.cardinality) for f in area.fields] == [
        ("id", Cardinality.ONE),
        ("info", Cardinality.ONE),
    ]
    assert area.fields[0].type == NamedRef("PAID")
    availability = info.fields[1]
    assert availability.cardinality is Cardinality.MANY
    assert availability.type == NamedRef("TimePeriod")


def test_interface_listing():
    program = parse_source(INTERFACE)
    iface = program.declarations[0]
    assert isinstance(iface, InterfaceDecl)
    assert [op.name for op in iface.request_responses] == [
        "createParkingArea",
        "updateParkingArea",
        "deleteParkingArea",
    ]
    create = iface.request_responses[0]
    assert create.request == NamedRef("ParkingAreaInformation")
    assert create.response == NamedRef("PAID")
    delete = iface.request_responses[2]
    assert delete.response == BasicRef(BasicType.STRING)
    assert iface.one_ways == []


def test_command_side_listing():
    program = parse_source(COMMAND_SIDE)
    service = program.declarations[0]
    assert service.name == "CommandSide"
    assert service.config.name == "config"
    assert service.config.type_name == "Configuration"
    assert service.execution is ExecutionMode.CONCURRENT
    assert [p.name for p in service.input_ports] == ["InputCommands"]
    assert [p.name for p in service.output_ports] == ["EventStore"]
    port = service.input_ports[0]
    assert isinstance(port.location, PathExpr)
    assert [s.name for s in port.location.path.steps] == ["config", "CommandSide", "location"]
    assert port.protocol_name == "http"
    assert port.protocol_params == [("format", Literal("json"))]
    assert port.interfaces == ["CommandSideInterface"]
    assert service.behavior == StatementSequence([])


def test_integration_test_snippet():
    program = parse_source(wrap_in_service(TEST_SNIPPET))
    body = program.services[0].behavior
    assert isinstance(body, StatementSequence)
    subscribe, delete, receive, check = body.statements

    assert isinstance(subscribe, SolicitResponse)
    assert (subscribe.operation, subscribe.port) == ("subscribe", "EventStore")
    assert isinstance(subscribe.argument, TreeLiteral)
    keys = [".".join(s.name for s in path.steps) for path, _ in subscribe.argument.entries]
    assert keys == ["location", "topics"]
    topics_path = subscribe.argument.entries[1][0]
    assert topics_path.steps[0].index == Literal(0)

    assert isinstance(delete, SolicitResponse)
    assert delete.argument == Literal(Long(123))
    assert delete.target is None

    assert receive == Receive("notify", receive.target)
    assert receive.target.steps[0].name == "event"

    assert isinstance(check, If)
    assert check.then == [Throw("AssertionFailed")]
    assert check.orelse == []
    condition = check.condition
    assert condition.op == "||"
    assert condition.left.op == "!="
    assert [s.name for s in condition.left.left.path.steps] == ["event", "type"]
    assert condition.right.right == Literal(Long(123))


def test_an_empty_source_is_a_program_of_no_declarations():
    assert parse_source("").declarations == []
    assert parse_source("// a comment alone\n").declarations == []


def test_empty_interface():
    iface = parse_source("interface I {}").declarations[0]
    assert iface.request_responses == [] and iface.one_ways == []


def test_inline_tree_type_single_level():
    program = parse_source("type T { geo: { lat:double lon:double } }")
    geo = program.declarations[0].fields[0]
    assert isinstance(geo.type, InlineTreeRef)
    assert [f.name for f in geo.type.fields] == ["lat", "lon"]
    with pytest.raises(ParseError):
        parse_source("type T { a: { b: { c:int } } }")


def test_keywords_allowed_as_field_names_and_path_steps():
    program = parse_source("type Event { type:string }")
    assert program.declarations[0].fields[0].name == "type"
    program = parse_source(wrap_in_service("x = event.type"))
    assign = program.services[0].behavior.statements[0]
    assert assign.value.path.steps[1].name == "type"


def test_tree_literal_accepts_commas_and_newlines():
    with_commas = parse_source(wrap_in_service('x = { a = 1, b = 2 }'))
    without = parse_source(wrap_in_service('x = { a = 1\nb = 2 }'))
    assert with_commas.services[0].behavior == without.services[0].behavior


def test_input_choice_detection():
    choice = parse_source("service S { main { op( a )( b ) { x = 1 } } }")
    assert isinstance(choice.services[0].behavior, InputChoice)
    one_way = parse_source("service S { main { op( a ) { x = 1 } } }")
    assert isinstance(one_way.services[0].behavior, InputChoice)
    receive = parse_source("service S { main { op( a ) } }")
    assert isinstance(receive.services[0].behavior, StatementSequence)


def test_if_without_braces_wraps_single_statement():
    braced = parse_source(wrap_in_service("if( x == 1 ) { throw( Oops ) }"))
    bare = parse_source(wrap_in_service("if( x == 1 )\n throw( Oops )"))
    assert braced.services[0].behavior == bare.services[0].behavior


def test_negative_literals_fold():
    program = parse_source(wrap_in_service("x = -5\ny = -5L\nz = -0.5"))
    statements = program.services[0].behavior.statements
    assert statements[0].value == Literal(-5)
    assert statements[1].value == Literal(Long(-5))
    assert statements[2].value == Literal(-0.5)
    # a literal equals only a literal of its own kind
    assert statements[1].value != Literal(-5) and statements[0].value != -5
    # a bool or a string has no negative to fold into: the interpreter faults on it
    program = parse_source(wrap_in_service('a = -true\nb = -"s"'))
    a, b = program.services[0].behavior.statements
    assert a.value == Unary("-", Literal(True)) and b.value == Unary("-", Literal("s"))


def test_operator_precedence():
    program = parse_source(wrap_in_service("x = a + b * c == d && !e || f"))
    value = program.services[0].behavior.statements[0].value
    assert value.op == "||"
    assert value.left.op == "&&"
    assert value.left.left.op == "=="
    assert value.left.left.left.op == "+"
    assert value.left.left.left.right.op == "*"
    assert value.left.right.op == "!"


def _var(name):
    return PathExpr(Path([PathStep(name)]))


@pytest.mark.parametrize("op", ["||", "&&", "==", "-", "/"])
def test_each_operator_level_nests_to_the_left(op):
    program = parse_source(wrap_in_service(f"x = a {op} b {op} c"))
    value = program.services[0].behavior.statements[0].value
    assert value == Binary(op, Binary(op, _var("a"), _var("b")), _var("c"))


def test_parse_error_reports_position_of_offending_token():
    source = "type A {\n  x:\n}"
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    error = exc.value
    lines = source.splitlines()
    lexeme = error.found.strip("'")
    assert lines[error.line - 1][error.column - 1:].startswith(lexeme)
    assert "type reference" in error.expected


def test_parse_error_on_missing_port_clause():
    source = 'service S { inputPort P { location: "local://x" protocol: http } }'
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    assert "interfaces" in str(exc.value)


def test_duplicate_execution_clause_rejected():
    with pytest.raises(ParseError):
        parse_source("service S { execution: single execution: single }")


def test_declaration_positions_retained():
    program = parse_source("type A\n\nservice B {}")
    first = program.position(program.declarations[0].offset)
    assert (first.line, first.column) == (1, 1)
    assert program.position(program.declarations[1].offset).line == 3


_KEYWORDS = {TypeDecl: "type", InterfaceDecl: "interface", ServiceDecl: "service"}


# the example count comes from the loaded profile when it asks for more (tests/conftest.py)
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_declaration_positions_point_at_their_keywords(seed):
    """A rendered generated program, with whitespace and comments put between its tokens."""
    rng = random.Random(seed)
    source = render(random_program(rng, max_decls=8, max_services=2))
    pieces, last = [], 0
    for gap in _gaps(source):
        pieces.append(source[last:gap])
        if rng.random() < 0.3:
            pieces.append(_separator(rng))
        last = gap
    pieces.append(source[last:])
    source = "".join(pieces)
    program = parse_source(source)
    lines = source.split("\n")
    for decl in program.declarations:
        pos = program.position(decl.offset)
        assert re.match(rf"{_KEYWORDS[type(decl)]}\b", lines[pos.line - 1][pos.column - 1 :]), (
            decl.name,
            pos,
        )


def test_first_error_aborts():
    with pytest.raises(ParseError):
        parse_source("type A { x:1 }\ntype B { }")


# Every error the parser can raise, with its position, expectation and
# finding pinned. `'}'` and `'@'` are never expected: a braced list reads
# items until it meets its `}`, and an invocation is parsed only once its `@`
# has been seen.
@pytest.mark.parametrize(
    "source, line, column, expected, found",
    [
        ("x", 1, 1, "a declaration (type, interface, or service)", "'x'"),
        ("type {", 1, 6, "type name", "'{'"),
        ("type T : foo", 1, 10, "a basic type (void, bool, int, long, double, string, any)", "'foo'"),
        ("type T { : int }", 1, 10, "field name", "':'"),
        ("type T { a : { b : { c : int } } }", 1, 20, "a basic or named type (inline trees do not nest)", "'{'"),
        ("type T { a : 1 }", 1, 14, "a type reference", "'1'"),
        ("interface {", 1, 11, "interface name", "'{'"),
        ("interface I { x }", 1, 15, "'RequestResponse' or 'OneWay'", "'x'"),
        ("interface I { OneWay: ( int ) }", 1, 23, "operation name", "'('"),
        ("interface I { OneWay op( int ) }", 1, 22, "':'", "'op'"),
        ("interface I { OneWay: op int }", 1, 26, "'('", "'int'"),
        ("interface I { OneWay: op( int }", 1, 31, "')'", "'}'"),
        ("service {", 1, 9, "service name", "'{'"),
        ("service S", 1, 10, "'{'", "end of input"),
        ("service S( : T ) {}", 1, 12, "configuration parameter name", "':'"),
        ("service S( c : ) {}", 1, 16, "configuration type name", "')'"),
        ("service S( c {}", 1, 14, "')'", "'{'"),
        ("service S { execution: single execution: single }", 1, 31, "at most one execution clause", "'execution'"),
        ("service S { execution single }", 1, 23, "':'", "'single'"),
        ("service S { execution: fast }", 1, 24, "an execution mode (concurrent, sequential, single)", "'fast'"),
        ("service S { main {} main {} }", 1, 21, "at most one main block", "'main'"),
        ("service S { x }", 1, 13, "'execution', 'inputPort', 'outputPort', or 'main'", "'x'"),
        ("service S { inputPort { } }", 1, 23, "port name", "'{'"),
        (
            'service S { inputPort P { location: "local://a" location: "local://b" } }',
            1, 49, "at most one location clause", "'location'",
        ),
        ("service S { inputPort P { protocol: http protocol: http } }", 1, 42, "at most one protocol clause", "'protocol'"),
        ("service S { inputPort P { protocol: { } } }", 1, 37, "protocol name", "'{'"),
        ("service S { inputPort P { protocol: http { = 1 } } }", 1, 44, "protocol parameter name", "'='"),
        ("service S { inputPort P { protocol: http { format 1 } } }", 1, 51, "'='", "'1'"),
        ("service S { inputPort P { interfaces: I interfaces: J } }", 1, 41, "at most one interfaces clause", "'interfaces'"),
        ("service S { inputPort P { interfaces: I, } }", 1, 42, "interface name", "'}'"),
        ("service S { inputPort P { x } }", 1, 27, "'location', 'protocol', or 'interfaces'", "'x'"),
        ("service S {\n  inputPort P { protocol: http interfaces: I }\n}", 2, 3, "a location clause in port P", "'inputPort'"),
        (
            'service S {\n  inputPort P { location: "local://a" interfaces: I }\n}',
            2, 3, "a protocol clause in port P", "'inputPort'",
        ),
        (
            'service S {\n  inputPort P { location: "local://a" protocol: http }\n}',
            2, 3, "an interfaces clause in port P", "'inputPort'",
        ),
        ("service S { main op( ) { } }", 1, 18, "'{'", "'op'"),
        ("service S { main { op( ) { } } }", 1, 24, "request variable", "')'"),
        ("service S { main { op( a )( ) { } } }", 1, 29, "response variable", "')'"),
        ("service S { main { throw( ) } }", 1, 27, "fault name", "')'"),
        ("service S { main { throw x } }", 1, 26, "'('", "'x'"),
        ("service S { main { if x ) {} } }", 1, 23, "'('", "'x'"),
        ("service S { main { while( x {} } }", 1, 29, "')'", "'{'"),
        ("service S { main { 1 } }", 1, 20, "a statement", "'1'"),
        ("service S { main { op( 1 ) } }", 1, 24, "a variable path", "'1'"),
        ("service S { main { op@P( 1 )( 2 ) } }", 1, 31, "a variable path", "'2'"),
        ("service S { main { op@( 1 ) } }", 1, 23, "port name", "'('"),
        ("service S { main { x. = 1 } }", 1, 23, "a path segment", "'='"),
        ("service S { main { x 1 } }", 1, 22, "'='", "'1'"),
        ("service S { main { x = } }", 1, 24, "an expression", "'}'"),
        ("service S { main { x[1 = 2 } }", 1, 24, "']'", "'='"),
        ("service S { main { x = ( 1 } }", 1, 28, "')'", "'}'"),
        ("service S { main { x = { 1 = 2 } } }", 1, 26, "a variable path", "'1'"),
        ("service S { main { x = { a 2 } } }", 1, 28, "'='", "'2'"),
    ],
)
def test_parse_error_positions_and_texts(source, line, column, expected, found):
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    error = exc.value
    assert (error.line, error.column, error.expected, error.found) == (line, column, expected, found)
    assert str(error) == f"{line}:{column}: expected {expected}, found {found}"


@pytest.mark.parametrize("depth", [200, 400])
def test_nesting_deeper_than_the_stack_is_a_parse_error_where_parsing_stood(depth):
    source = nested_source(depth)
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    error = exc.value
    assert (error.line, error.expected) == (1, "code nested less deeply")
    # how deep parsing got depends on the caller's stack, so only where the token is, is pinned
    token = {token.offset: token for token in tokenize(source)}[error.column - 1]
    assert error.found == f"'{token.lexeme}'"
    assert source.index("(") < token.offset < source.index("true")


def test_a_recursion_error_is_a_parse_error_at_the_current_token():
    source = "service S { main { r = " + "(" * 5000 + "1" + ")" * 5000 + " } }"
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    assert re.fullmatch(r"1:\d+: expected code nested less deeply, found '\('", str(exc.value))


def test_deleting_a_token_of_the_fixture_fails_cleanly_or_round_trips(fixture_source):
    """Each fourth token deleted in turn: a positioned error, or a program that
    renders, reparses equal and either resolves or fails to resolve cleanly."""
    tokens = tokenize(fixture_source)
    for token in (tokens[i] for i in range(0, len(tokens), 4)):
        variant = fixture_source[: token.offset] + fixture_source[token.offset + len(token.lexeme) :]
        try:
            program = parse_source(variant)
        except (ParseError, LexError) as error:
            assert error.line >= 1 and error.column >= 1
            continue
        assert parse_source(render(program)) == program, f"deleting {token} changed the round trip"
        try:
            assert isinstance(resolve(program), CheckedProgram)
        except ResolveFailure as failure:
            assert failure.errors


def test_parse_source_tokenizes_once_through_the_module_global(fixture_source, monkeypatch):
    """A tracer that wraps `monoslice.parser.tokenize` sees each parse tokenize
    once, and len() of what it returns is the source's token count."""
    results = []

    def counting(source):
        results.append(tokenize(source))
        return results[-1]

    monkeypatch.setattr(monoslice.parser, "tokenize", counting)
    parse_source(fixture_source)
    assert len(results) == 1
    assert len(results[0]) == len(reference_lexer.tokenize(fixture_source))
