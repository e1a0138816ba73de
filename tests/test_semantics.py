import copy

import pytest

from monoslice.ast import (
    BasicRef,
    BasicType,
    Cardinality,
    FieldDecl,
    NamedRef,
    TypeDecl,
)
from monoslice.parser import parse_source
from monoslice.semantics import (
    BehaviorError,
    DuplicateDeclaration,
    ResolveFailure,
    UndefinedInterface,
    UndefinedType,
    UnknownOperation,
    UnknownPort,
    check_value,
    resolve,
)
from monoslice.values import Long, ValueTree


def resolve_errors(source):
    with pytest.raises(ResolveFailure) as exc:
        resolve(parse_source(source))
    return exc.value.errors


def test_fixture_resolves_with_expected_bindings(fixture_checked):
    checked = fixture_checked
    assert set(checked.service_table) == {"QuerySide", "CommandSide", "EventStore", "TestClient"}
    command_ports = {
        port: [i.name for i in checked.port_interfaces[("CommandSide", port)]]
        for port in ("InputCommands", "EventStore")
    }
    assert command_ports == {
        "InputCommands": ["CommandSideInterface"],
        "EventStore": ["EventStoreInterface"],
    }
    ops = checked.port_ops[("CommandSide", "InputCommands")]
    assert set(ops) == {"createParkingArea", "updateParkingArea", "deleteParkingArea"}
    assert ops["deleteParkingArea"].kind == "rr"
    assert ops["deleteParkingArea"].request == NamedRef("PAID")


def test_single_type_program_resolves():
    checked = resolve(parse_source("type T : string"))
    assert list(checked.type_table) == ["T"]
    assert checked.interface_table == {} and checked.service_table == {}


def test_deleting_an_interface_is_reported_at_the_interfaces_clause(fixture_program):
    program = copy.deepcopy(fixture_program)
    program.declarations = [
        d for d in program.declarations if getattr(d, "name", "") != "CommandSideInterface"
    ]
    with pytest.raises(ResolveFailure) as exc:
        resolve(program)
    errors = [e for e in exc.value.errors if isinstance(e, UndefinedInterface)]
    assert errors, "expected UndefinedInterface"
    command_side = next(s for s in program.services if s.name == "CommandSide")
    clause_pos = command_side.input_ports[0].interface_pos(0)
    assert any(e.pos == clause_pos for e in errors)


def test_duplicate_declarations_rejected():
    errors = resolve_errors("type T : int type T : string")
    assert any(isinstance(e, DuplicateDeclaration) for e in errors)
    errors = resolve_errors("type T { a:int a:string }")
    assert any(isinstance(e, DuplicateDeclaration) for e in errors)
    errors = resolve_errors("interface I { RequestResponse: op( int )( int ) OneWay: op( int ) }")
    assert any(isinstance(e, DuplicateDeclaration) for e in errors)


def test_undefined_type_carries_position():
    errors = resolve_errors("type A {\n  x:Missing\n}")
    error = next(e for e in errors if isinstance(e, UndefinedType))
    assert error.name == "Missing"
    assert (error.pos.line, error.pos.column) == (2, 5)


def test_unknown_port_and_operation_in_behavior():
    base = (
        "interface I { RequestResponse: ping( int )( int ) }"
        'service S { inputPort In { location: "local://s" protocol: http interfaces: I } '
        "main { ping( a )( b ) { %s } } }"
    )
    errors = resolve_errors(base % "x@Nowhere( 1 )( y )")
    assert any(isinstance(e, UnknownPort) for e in errors)

    source = (
        "interface I { RequestResponse: ping( int )( int ) }"
        'service S { inputPort In { location: "local://s" protocol: http interfaces: I } '
        'outputPort Out { location: "local://t" protocol: http interfaces: I } '
        "main { ping( a )( b ) { nope@Out( 1 )( y ) } } }"
    )
    errors = resolve_errors(source)
    assert any(isinstance(e, UnknownOperation) for e in errors)


def test_branch_must_match_an_input_operation_and_kind():
    errors = resolve_errors(
        "interface I { OneWay: tick( int ) }"
        'service S { inputPort In { location: "local://s" protocol: http interfaces: I } '
        "main { tick( a )( b ) { x = 1 } } }"
    )
    assert any(isinstance(e, UnknownOperation) for e in errors)


def test_behavior_misuse_of_ports_and_config():
    source = (
        "interface I { RequestResponse: ping( int )( int ) }"
        "service S( config ) { "
        'inputPort In { location: "local://s" protocol: http interfaces: I } '
        'outputPort Out { location: "local://t" protocol: http interfaces: I } '
        "main { ping( a )( b ) { %s } } }"
    )
    assert any(isinstance(e, BehaviorError) for e in resolve_errors(source % "Out.retries = 1"))
    assert any(isinstance(e, BehaviorError) for e in resolve_errors(source % "In = 1"))
    assert any(isinstance(e, BehaviorError) for e in resolve_errors(source % "config.x = 1"))
    assert any(isinstance(e, BehaviorError) for e in resolve_errors(source % "y = Out"))
    # the rebinding form and config reads are fine
    resolve(parse_source(source % 'Out.location = "local://elsewhere"'))
    resolve(parse_source(source % "y = config.S.location"))


def test_inline_receive_only_in_executable_services():
    source = (
        "interface I { OneWay: tick( int ) RequestResponse: ping( int )( int ) }"
        'service S { inputPort In { location: "local://s" protocol: http interfaces: I } '
        "main { ping( a )( b ) { tick( m ) } } }"
    )
    assert any(isinstance(e, BehaviorError) for e in resolve_errors(source))
    executable = (
        "interface I { OneWay: tick( int ) }"
        'service S { inputPort In { location: "local://s" protocol: http interfaces: I } '
        "main { tick( m ) } }"
    )
    resolve(parse_source(executable))


def test_config_warnings(fixture_checked):
    untyped = [w for w in fixture_checked.warnings if "untyped" in w]
    undeclared = [w for w in fixture_checked.warnings if "Configuration" in w]
    assert len(untyped) == 3  # QuerySide, EventStore, TestClient
    assert len(undeclared) == 1  # CommandSide's config:Configuration


def test_operation_types_dereference_through_the_type_table(fixture_checked):
    op = fixture_checked.port_ops[("CommandSide", "InputCommands")]["deleteParkingArea"]
    assert fixture_checked.type_table[op.request.name].root is BasicType.LONG
    assert op.response == BasicRef(BasicType.STRING)


def test_resolve_is_total(fixture_program):
    checked = resolve(fixture_program)
    assert checked.program is fixture_program
    with pytest.raises(ResolveFailure) as exc:
        resolve(parse_source("type A { x:Missing y:AlsoMissing }"))
    assert len(exc.value.errors) == 2  # all errors collected, not just the first


# ---------------------------------------------------------------------------
# check_value


def paid():
    return TypeDecl("PAID", BasicType.LONG, [])


def test_long_root_conforms_to_paid(fixture_checked):
    assert fixture_checked.check_value(ValueTree(Long(123)), NamedRef("PAID")) == []


def test_void_accepts_valueless_childless_tree():
    assert check_value(ValueTree(), BasicRef(BasicType.VOID)) == []
    problems = check_value(ValueTree(5), BasicRef(BasicType.VOID))
    assert problems and problems[0].found == "int"


def test_missing_required_field_reports_path(fixture_checked):
    tree = ValueTree.make(
        availability=[],
        chargingSpeed=ValueTree("FAST"),
        geolocation=ValueTree.make(latitude=1.0, longitude=2.0),
    )
    problems = fixture_checked.check_value(tree, NamedRef("ParkingAreaInformation"))
    assert [p.path for p in problems] == ["name"]
    assert "exactly one" in problems[0].expected
    assert "0 occurrence" in problems[0].found


@pytest.mark.parametrize(
    "cardinality,accepted",
    [
        (Cardinality.ONE, {1}),
        (Cardinality.OPTIONAL, {0, 1}),
        (Cardinality.MANY, {0, 1, 2}),
    ],
)
def test_cardinality_bounds_exhaustive(cardinality, accepted):
    decl = TypeDecl("T", BasicType.VOID, [FieldDecl("f", cardinality, BasicRef(BasicType.INT))])
    for count in (0, 1, 2):
        tree = ValueTree(children={"f": [ValueTree(1) for _ in range(count)]} if count else None)
        conforms = check_value(tree, decl) == []
        assert conforms == (count in accepted), (cardinality, count)


def test_numeric_widening():
    assert check_value(ValueTree(5), BasicRef(BasicType.LONG)) == []
    assert check_value(ValueTree(5), BasicRef(BasicType.DOUBLE)) == []
    assert check_value(ValueTree(Long(5)), BasicRef(BasicType.INT)) != []
    assert check_value(ValueTree(Long(5)), BasicRef(BasicType.DOUBLE)) != []
    assert check_value(ValueTree(True), BasicRef(BasicType.INT)) != []


def test_any_root_accepts_every_childless_tree():
    for tree in (ValueTree(), ValueTree(5), ValueTree("x"), ValueTree(False)):
        assert check_value(tree, BasicRef(BasicType.ANY)) == []


def test_undeclared_children_rejected():
    decl = TypeDecl("T", BasicType.VOID, [FieldDecl("a", Cardinality.ONE, BasicRef(BasicType.INT))])
    tree = ValueTree.make(a=ValueTree(1), extra=ValueTree(2))
    problems = check_value(tree, decl)
    assert [p.path for p in problems] == ["extra"]


def test_violation_paths_index_into_sequences():
    decl = TypeDecl("T", BasicType.VOID, [FieldDecl("xs", Cardinality.MANY, BasicRef(BasicType.INT))])
    tree = ValueTree(children={"xs": [ValueTree(1), ValueTree("bad")]})
    problems = check_value(tree, decl)
    assert [p.path for p in problems] == ["xs[1]"]


def test_recursive_types_check_by_value():
    node = TypeDecl(
        "Node",
        BasicType.VOID,
        [
            FieldDecl("label", Cardinality.ONE, BasicRef(BasicType.STRING)),
            FieldDecl("next", Cardinality.OPTIONAL, NamedRef("Node")),
        ],
    )
    types = {"Node": node}
    chain = ValueTree.make(label="a", next=ValueTree.make(label="b"))
    assert check_value(chain, node, types) == []
    broken = ValueTree.make(label="a", next=ValueTree.make(label=ValueTree(5)))
    assert check_value(broken, node, types) != []
