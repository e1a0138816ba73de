import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoslice.ast import (
    BasicRef,
    BasicType,
    Cardinality,
    FieldDecl,
    InlineTreeRef,
    NamedRef,
    TypeDecl,
)
from monoslice.config import Location, MissingConfigPath, resolve_location, validate_config
from monoslice.parser import parse_source
from monoslice.runtime.interpreter import ExecutionContext, compile_block, exec_statements
from monoslice.runtime.system import _admit
from monoslice.semantics import (
    BadLocationExpr,
    BehaviorError,
    DuplicateDeclaration,
    ResolveFailure,
    UndefinedInterface,
    UndefinedType,
    UnknownOperation,
    UnknownPort,
    _check_ref,
    _conformance,
    check_value,
    resolve,
)
from monoslice.values import Long, ValueTree, decode_json, encode_json

from conftest import no_cyclic_garbage


def resolve_errors(source):
    with pytest.raises(ResolveFailure) as exc:
        resolve(parse_source(source))
    return exc.value.errors


def test_fixture_resolves_with_expected_bindings(fixture_checked):
    checked = fixture_checked
    assert set(checked.service_table) == {"QuerySide", "CommandSide", "EventStore", "TestClient"}
    assert set(checked.port_ops[("CommandSide", "EventStore")]) == {
        "subscribe", "unsubscribe", "publish", "lookup"
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
    clause_pos = program.position(command_side.input_ports[0].interface_offset(0))
    assert any(e.pos == clause_pos for e in errors)


def test_duplicate_declarations_rejected():
    errors = resolve_errors("type T : int type T : string")
    assert any(isinstance(e, DuplicateDeclaration) for e in errors)
    errors = resolve_errors("type T { a:int a:string }")
    assert any(isinstance(e, DuplicateDeclaration) for e in errors)
    errors = resolve_errors("interface I { RequestResponse: op( int )( int ) OneWay: op( int ) }")
    assert any(isinstance(e, DuplicateDeclaration) for e in errors)
    service = (
        "interface I { OneWay: tick( int ) }\n"
        'service S { inputPort In { location: "local://s" protocol: http interfaces: I }\n'
        "%s main { tick( a ) { x = 1 } %s } }"
    )
    port = 'outputPort In { location: "local://t" protocol: http interfaces: I }'
    assert [str(e) for e in resolve_errors(service % (port, ""))] == [
        "3:1: duplicate port in service S 'In'"
    ]
    assert [str(e) for e in resolve_errors(service % ("", "tick( b ) { x = 2 }"))] == [
        "3:29: duplicate input branch in service S 'tick'"
    ]


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
    assert any(isinstance(e, BehaviorError) for e in resolve_errors(source % "y = -Out"))
    # the rebinding form and config reads are fine
    resolve(parse_source(source % 'Out.location = "local://elsewhere"'))
    resolve(parse_source(source % "y = config.S.location"))


def test_behavior_errors_keep_their_texts_and_order():
    source = (
        "interface I { RequestResponse: ping( int )( int ) OneWay: tick( int ) }\n"
        "service S( config ) {\n"
        '  inputPort In { location: "local://s" protocol: http interfaces: I }\n'
        '  outputPort Out { location: "local://t" protocol: http interfaces: I }\n'
        "  main {\n"
        "    ping( a ) { skip( m ) }\n"
        "    tick( a )( b ) {\n"
        "      b = Out + { k[In] = In, j = config.x[Out] }\n"
        "      y[Out.n] = 1\n"
        "      config.x = 1\n"
        "      Out.retries = 1\n"
        "      In.x = 2\n"
        "      tick@Out( 1 )( r )\n"
        "      ping@Out( 1 )\n"
        "      ping@In( 1 )\n"
        "    }\n"
        "  }\n"
        "}\n"
    )
    assert [str(e) for e in resolve_errors(source)] == [
        "6:5: operation 'ping' is not offered by any input port of service S as one-way",
        "6:17: inline receive is only valid in an executable service (a main that is a statement sequence)",
        "6:17: operation 'skip' is not offered by any input port of service S as one-way",
        "7:5: operation 'tick' is not offered by any input port of service S as request-response",
        "8:11: port name 'Out' cannot be read as a variable",
        "8:21: port name 'In' cannot be read as a variable",
        "8:27: port name 'In' cannot be read as a variable",
        "8:44: port name 'Out' cannot be read as a variable",
        "9:9: port name 'Out' cannot be read as a variable",
        "10:7: config parameter 'config' is read-only",
        "11:7: only 'Out.location' may be assigned on output port 'Out'",
        "12:7: input port name 'In' cannot be assigned",
        "13:7: operation 'tick' is not offered by output port Out as request-response",
        "14:7: operation 'ping' is not offered by output port Out as one-way",
        "15:7: 'In' is not an output port of service S",
    ]


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


# a port's location expression starts at line 3, column 28
LOCATED = (
    "interface I {{ RequestResponse: op( int )( int ) }}\n"
    "service S{param} {{\n"
    "  inputPort In {{ location: {location} protocol: http interfaces: I }}\n"
    "  main {{ op( a )( b ) {{ b = 1 }} }}\n"
    "}}\n"
)


def located(location, param=" ( config )"):
    return LOCATED.format(param=param, location=location)


def test_resolve_location_rejects_foreign_roots():
    assert [str(e) for e in resolve_errors(located("other.S.location"))] == [
        "3:28: bad location: location path must be rooted at config parameter 'config'"
    ]


def test_resolve_location_rejects_indices():
    assert [str(e) for e in resolve_errors(located("config.S[0].location"))] == [
        "3:28: bad location: indices are not allowed in config paths"
    ]


def test_unsupported_location_expressions_are_reported():
    # a binary expression is positioned at its operator, a literal at itself
    assert [str(e) for e in resolve_errors(located("1 + 2"))] == [
        "3:30: bad location: location must be a string literal or a config path"
    ]
    assert [str(e) for e in resolve_errors(located("5"))] == [
        "3:28: bad location: location must be a string literal or a config path"
    ]


def test_a_service_without_a_config_parameter_takes_only_literal_locations():
    errors = resolve_errors(located("anything.S.location", param=""))
    assert [type(e) for e in errors] == [BadLocationExpr]
    assert str(errors[0]) == (
        "3:28: bad location: service S has no config parameter, so a location must be a string literal"
    )
    assert resolve(parse_source(located('"local://s"', param="")))


@pytest.mark.parametrize(
    "text, reason",
    [
        ("socket://host", "expected socket://host:port"),
        ("socket://host:0", "port 0 out of range 1-65535"),
        ("socket://host:+80", "port '+80' is not written in plain decimal"),
        ("local://", "expected local://name"),
        ("http://host:1", "unknown scheme (use socket:// or local://)"),
    ],
)
def test_a_literal_location_that_does_not_parse_is_a_positioned_error(text, reason):
    for param in ("", " ( config )"):
        errors = resolve_errors(located(f'"{text}"', param=param))
        assert [type(e) for e in errors] == [BadLocationExpr]
        assert str(errors[0]) == f"3:28: bad location: {reason}"


@st.composite
def _located_services(draw):
    """A service with or without a config parameter, and a port location of a drawn shape."""
    param = draw(st.sampled_from([None, "config", "cfg"]))
    shape = draw(st.sampled_from(["literal", "rooted", "foreign", "indexed", "binary"]))
    names = draw(st.lists(st.from_regex(r"[A-Z][a-z]{0,3}", fullmatch=True), min_size=1, max_size=3))
    steps = [param or "config", *names]
    if shape == "literal":
        location = '"local://s"'
    elif shape == "foreign":
        location = ".".join(["other", *names])
    elif shape == "indexed":
        at = draw(st.integers(0, len(steps) - 1))
        location = ".".join(f"{step}[0]" if i == at else step for i, step in enumerate(steps))
    elif shape == "binary":
        location = draw(st.sampled_from(['"local://" + "s"', ".".join(steps) + " + 1"]))
    else:
        location = ".".join(steps)
    source = located(location, param=f" ( {param} )" if param else "")
    legal = shape == "literal" or shape == "rooted" and param is not None
    return source, names, shape, legal


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(_located_services(), st.from_regex(r"[a-z]{1,8}", fullmatch=True))
def test_a_location_resolves_exactly_when_its_shape_is_legal(drawn, name):
    source, names, shape, legal = drawn
    program = parse_source(source)
    [port] = program.services[0].input_ports
    if not legal:
        errors = resolve_errors(source)
        assert [type(e) for e in errors] == [BadLocationExpr]
        assert errors[0].pos == program.position(port.location.offset)
        return
    checked = resolve(program)
    if shape == "literal":
        assert validate_config(checked, ValueTree()) == []
        return
    # an accepted path walks the configuration from its root, past the parameter's name
    config = ValueTree()
    node = config
    for step in names:
        node = node.children.setdefault(step, [ValueTree()])[0]
    node.root = f"local://{name}"
    assert validate_config(checked, config) == []
    assert resolve_location(config, port.location) == Location.local(name)
    [missing] = validate_config(checked, ValueTree())
    assert isinstance(missing, MissingConfigPath) and missing.path == ".".join(names)


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
    assert check_value(ValueTree(Long(123)), NamedRef("PAID"), fixture_checked.type_table) == []


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
    problems = check_value(tree, NamedRef("ParkingAreaInformation"), fixture_checked.type_table)
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
    # JSON carries no int/long distinction, so a long within 32 bits is an int, and any long a double
    assert check_value(ValueTree(Long(5)), BasicRef(BasicType.INT)) == []
    assert check_value(ValueTree(Long(-(2**31))), BasicRef(BasicType.INT)) == []
    assert check_value(ValueTree(Long(2**31 - 1)), BasicRef(BasicType.INT)) == []
    assert check_value(ValueTree(Long(2**31)), BasicRef(BasicType.INT)) != []
    assert check_value(ValueTree(Long(-(2**31) - 1)), BasicRef(BasicType.INT)) != []
    assert check_value(ValueTree(Long(5)), BasicRef(BasicType.DOUBLE)) == []
    assert check_value(ValueTree(Long(2**40)), BasicRef(BasicType.DOUBLE)) == []
    assert check_value(ValueTree(True), BasicRef(BasicType.INT)) != []
    assert check_value(ValueTree(True), BasicRef(BasicType.DOUBLE)) != []


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


def test_checks_of_short_lived_types_never_see_each_others_verdicts():
    for _ in range(300):
        assert check_value(ValueTree(5), BasicRef(BasicType.LONG)) == []
        assert check_value(ValueTree(Long(2**31)), BasicRef(BasicType.INT)) != []
        assert check_value(ValueTree(Long(2**31)), NamedRef("N"), {"N": TypeDecl("N", BasicType.LONG)}) == []
        assert check_value(ValueTree(Long(2**31)), NamedRef("N"), {"N": TypeDecl("N", BasicType.INT)}) != []


def test_violations_are_named_root_first_then_field_by_field_then_undeclared():
    item = TypeDecl("Item", BasicType.VOID, [FieldDecl("v", Cardinality.ONE, BasicRef(BasicType.LONG))])
    decl = TypeDecl(
        "T",
        BasicType.STRING,
        [
            FieldDecl("one", Cardinality.ONE, BasicRef(BasicType.INT)),
            FieldDecl("xs", Cardinality.MANY, NamedRef("Item")),
            FieldDecl("opt", Cardinality.OPTIONAL, BasicRef(BasicType.BOOL)),
            FieldDecl("box", Cardinality.ONE, InlineTreeRef([FieldDecl("b", Cardinality.ONE, BasicRef(BasicType.INT))])),
        ],
    )
    tree = ValueTree(
        5,
        {
            "zz": [ValueTree()],
            "opt": [ValueTree(True), ValueTree("no")],
            "xs": [ValueTree.make(v="s", w=ValueTree(Long(1))), ValueTree.make(v=ValueTree(Long(1)))],
        },
    )
    assert [str(v) for v in check_value(tree, decl, {"Item": item})] == [
        "at '<root>': expected root of kind string, found int",
        "at 'one': expected exactly one int, found 0 occurrence(s)",
        "at 'xs[0].v': expected root of kind long, found string",
        "at 'xs[0].w': expected no such child, found 1 occurrence(s)",
        "at 'opt': expected at most one bool, found 2 occurrence(s)",
        "at 'opt[1]': expected root of kind bool, found string",
        "at 'box': expected exactly one inline tree, found 0 occurrence(s)",
        "at 'zz': expected no such child, found 1 occurrence(s)",
    ]


@pytest.mark.parametrize("levels", [500, 600, 800])
def test_a_violation_deep_in_a_chain_is_named(levels):
    types = {"Chain": TypeDecl("Chain", BasicType.VOID, [FieldDecl("a", Cardinality.OPTIONAL, NamedRef("Chain"))])}
    chain = ValueTree("bottom")
    for _ in range(levels):
        chain = ValueTree(children={"a": [chain]})
    _, violations = _admit(chain, NamedRef("Chain"), types)
    path = ".".join(["a"] * levels)
    assert [str(v) for v in violations] == [f"at '{path}': expected root of kind void, found string"]


# ---------------------------------------------------------------------------
# the compiled check against the walk that names the violations

TYPE_NAMES = ["T0", "T1"]
CHILD_NAMES = ["a", "b", "c"]

# longs within 32 bits, which pass where int is declared, and just outside them
int_longs = st.one_of(st.integers(-3, 3), st.sampled_from([-(2**31), 2**31 - 1])).map(Long)
wide_longs = st.sampled_from([-(2**31) - 1, 2**31]).map(Long)
any_root = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    int_longs,
    wide_longs,
    st.floats(-2, 2, width=16),
    st.sampled_from(["", "x"]),
)
ROOTS_OF = {
    BasicType.VOID: st.none(),
    BasicType.BOOL: st.booleans(),
    BasicType.INT: st.one_of(st.integers(-3, 3), int_longs),
    BasicType.LONG: st.one_of(st.integers(-3, 3), int_longs, wide_longs),
    BasicType.DOUBLE: st.one_of(st.floats(-2, 2, width=16), st.integers(-3, 3), int_longs, wide_longs),
    BasicType.STRING: st.sampled_from(["", "x"]),
    BasicType.ANY: any_root,
}

type_refs = st.recursive(
    st.one_of(
        st.sampled_from(list(BasicType)).map(BasicRef),
        st.sampled_from([*TYPE_NAMES, "Missing"]).map(NamedRef),
    ),
    lambda inner: st.lists(
        st.builds(FieldDecl, st.sampled_from(CHILD_NAMES), st.sampled_from(list(Cardinality)), inner),
        max_size=3,
    ).map(InlineTreeRef),
    max_leaves=5,
)
type_tables = st.tuples(
    *(
        st.builds(
            TypeDecl,
            st.just(name),
            st.sampled_from(list(BasicType)),
            st.lists(
                st.builds(FieldDecl, st.sampled_from(CHILD_NAMES), st.sampled_from(list(Cardinality)), type_refs),
                max_size=3,
            ),
        )
        for name in TYPE_NAMES
    )
).map(lambda decls: {decl.name: decl for decl in decls})

arbitrary_trees = st.recursive(
    any_root.map(ValueTree),
    lambda inner: st.tuples(
        any_root, st.dictionaries(st.sampled_from(CHILD_NAMES), st.lists(inner, min_size=1, max_size=2))
    ).map(lambda parts: ValueTree(*parts)),
    max_leaves=6,
)


@st.composite
def trees_near(draw, type_, types, departs):
    """A tree that conforms to the type (bar unresolved names), or departs from it at one place."""
    sites = []  # (node, declared field or None, basic type of the node)

    def near(type_, depth):
        if isinstance(type_, NamedRef):
            type_ = types.get(type_.name)
        if type_ is None or depth > 3:
            return draw(arbitrary_trees)
        if isinstance(type_, BasicRef):
            basic, fields = type_.basic, []
        elif isinstance(type_, InlineTreeRef):
            basic, fields = BasicType.VOID, type_.fields
        else:
            basic, fields = type_.root, type_.fields
        tree = ValueTree(draw(ROOTS_OF[basic]))
        sites.append((tree, None, basic))
        for f in fields:
            least, most = {Cardinality.ONE: (1, 1), Cardinality.OPTIONAL: (0, 1), Cardinality.MANY: (0, 2)}[f.cardinality]
            count = draw(st.integers(least, most))
            if count:
                tree.children[f.name] = [near(f.type, depth + 1) for _ in range(count)]
            sites.append((tree, f, basic))
        return tree

    tree = near(type_, 0)
    if departs and sites:
        node, f, _ = draw(st.sampled_from(sites))
        if f is None:
            how = draw(st.sampled_from(["root", "undeclared"]))
            if how == "root":
                node.root = draw(any_root)
            else:
                node.children["undeclared"] = [ValueTree()]
        else:
            seq = node.children.get(f.name, [])
            how = draw(st.sampled_from(["fewer", "more", "item"] if seq else ["more"]))
            if how == "fewer":
                seq.pop()
                if not seq:
                    del node.children[f.name]
            elif how == "more":
                node.children[f.name] = [*seq, draw(arbitrary_trees) if not seq else seq[-1].copy()]
            else:
                seq[draw(st.integers(0, len(seq) - 1))] = draw(arbitrary_trees)
    return tree


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compiled_check_agrees_with_the_naming_walk(data):
    types = data.draw(type_tables)
    type_ = data.draw(st.one_of(type_refs, st.sampled_from(list(types.values()))))
    tree = data.draw(trees_near(type_, types, data.draw(st.booleans())))
    named: list = []
    _check_ref(tree, type_, types, "", named)
    assert _conformance(type_, types)(tree) is (named == [])
    assert check_value(tree, type_, types) == named


# ---------------------------------------------------------------------------
# the verdicts a port keeps on what it admitted, against a fresh check

NODE = TypeDecl(
    "Node",
    BasicType.VOID,
    [
        FieldDecl("label", Cardinality.ONE, BasicRef(BasicType.STRING)),
        FieldDecl("next", Cardinality.OPTIONAL, NamedRef("Node")),
        FieldDecl("vals", Cardinality.MANY, BasicRef(BasicType.LONG)),
    ],
)
PAIR = TypeDecl(
    "Pair",
    BasicType.VOID,
    [
        FieldDecl("left", Cardinality.ONE, NamedRef("Node")),
        FieldDecl("right", Cardinality.OPTIONAL, NamedRef("Node")),
        FieldDecl("n", Cardinality.MANY, BasicRef(BasicType.INT)),
    ],
)
ADMIT_TYPES = {"Node": NODE, "Pair": PAIR}
ADMIT_REFS = [
    NamedRef("Node"),
    NamedRef("Pair"),
    InlineTreeRef([FieldDecl("left", Cardinality.OPTIONAL, NamedRef("Node"))]),
    BasicRef(BasicType.ANY),
]
WRITE_NAMES = ["label", "next", "vals", "left", "right", "n", "a"]
WRITE_VALUES = ["5", "5L", '"s"', "true", "t"]  # t holds a tree no port admitted


class Holder(ExecutionContext):
    def __init__(self, scope: ValueTree):
        self.scope = scope


def main_statements(statements: str):
    return parse_source("service S { main { " + statements + " } }").services[0].behavior.statements


def _nodes(tree):
    pending = [tree]
    while pending:
        node = pending.pop()
        yield node
        for seq in node.children.values():
            pending.extend(seq)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_admitting_again_after_writes_agrees_with_a_fresh_check(data):
    tree = data.draw(trees_near(data.draw(st.sampled_from(ADMIT_REFS)), ADMIT_TYPES, data.draw(st.booleans())))
    scope = ValueTree(children={"m": [tree], "t": [data.draw(arbitrary_trees)]})
    steps = ["admit", *data.draw(st.lists(st.sampled_from(["admit", "write"]), min_size=2, max_size=4))]
    for step in steps:
        held = scope.child("m")
        if step == "write":
            # an assignment the interpreter runs: each shared node on its path is swapped for a clone
            path = "".join(
                f".{name}" + (f"[{index}]" if index is not None else "")
                for name, index in data.draw(
                    st.lists(st.tuples(st.sampled_from(WRITE_NAMES), st.sampled_from([None, 0, 1, 2])), max_size=3)
                )
            )
            statement = f"m{path} = {data.draw(st.sampled_from(WRITE_VALUES))}"
            exec_statements(compile_block(main_statements(statement)), Holder(scope))
            continue
        type_ = data.draw(st.sampled_from(ADMIT_REFS))
        sent = repr(held)  # repr tells a long from an int
        wire = decode_json(encode_json(held))
        image, violations = _admit(held, type_, ADMIT_TYPES)
        assert repr(held) == sent, "the sender's tree changed"
        assert repr(image) == repr(wire), "the image is not what JSON would carry"
        assert not [n for n in _nodes(image) if type(n.root) is int], "a plain int crossed"
        assert violations == check_value(image.copy(), type_, ADMIT_TYPES)
        assert violations == check_value(wire, type_, ADMIT_TYPES)
        scope.children["m"] = [image]  # the receiver keeps what crossed, and may write to it


def test_check_value_keeps_no_verdict_on_a_tree_no_port_admitted():
    tree = ValueTree.make(label="a", next=ValueTree.make(label="b", vals=[Long(1), Long(2)]))
    assert check_value(tree, NamedRef("Node"), ADMIT_TYPES) == []
    tree.child("next").child("vals", 1).root = "bad"
    problems = check_value(tree, NamedRef("Node"), ADMIT_TYPES)
    assert [p.path for p in problems] == ["next.vals[1]"]
    assert all(node.admitted is None for node in _nodes(tree))


def test_a_named_type_is_one_predicate_under_every_type_that_holds_it():
    # so a verdict kept under one message type holds when the subtree crosses in another
    image, violations = _admit(ValueTree.make(left=ValueTree.make(label="a")), NamedRef("Pair"), ADMIT_TYPES)
    assert violations == []
    assert image.admitted is _conformance(NamedRef("Pair"), ADMIT_TYPES)
    assert image.child("left").admitted is _conformance(NamedRef("Node"), ADMIT_TYPES)


def test_compiling_the_predicates_of_a_table_leaves_no_cyclic_garbage():
    types = dict(ADMIT_TYPES)  # a table of its own, so its predicates compile in the block
    with no_cyclic_garbage():
        assert check_value(ValueTree.make(left=ValueTree.make(label="a")), NamedRef("Pair"), types) == []
