import random

import pytest

from monoslice.parser import parse_source
from monoslice.render import render

from proggen import random_behavior_program, random_program


def round_trips(source_or_program):
    program = (
        parse_source(source_or_program)
        if isinstance(source_or_program, str)
        else source_or_program
    )
    text = render(program)
    reparsed = parse_source(text, program.source_name)
    assert reparsed == program, f"structural mismatch after rendering:\n{text}"
    assert render(reparsed) == text, f"render not idempotent:\n{text}"
    return text


def test_canonical_type_declaration():
    assert round_trips("type PAID:long") == "type PAID : long\n"


def test_canonical_block_type():
    text = round_trips("type ParkingArea { id:PAID info:ParkingAreaInformation }")
    assert text == (
        "type ParkingArea {\n"
        "    id : PAID\n"
        "    info : ParkingAreaInformation\n"
        "}\n"
    )


def test_canonical_interface():
    text = round_trips(
        "interface I { RequestResponse: a( int )( string ), b( T )( U ) OneWay: c( void ) }"
    )
    assert text == (
        "interface I {\n"
        "    RequestResponse:\n"
        "        a( int )( string ),\n"
        "        b( T )( U )\n"
        "    OneWay:\n"
        "        c( void )\n"
        "}\n"
    )


def test_canonical_service_with_port():
    text = round_trips(
        'service S( config ) { execution: concurrent '
        'inputPort P { location: config.S.location protocol: http { format = "json" } '
        'interfaces: A, B } main { x = 1 } }'
    )
    assert text == (
        "service S( config ) {\n"
        "    execution: concurrent\n"
        "    inputPort P {\n"
        "        location: config.S.location\n"
        '        protocol: http { format = "json" }\n'
        "        interfaces: A, B\n"
        "    }\n"
        "    main {\n"
        "        x = 1\n"
        "    }\n"
        "}\n"
    )


def test_explicit_single_execution_is_dropped():
    assert round_trips("service S { execution: single }") == "service S {}\n"


def test_statement_forms():
    text = round_trips(
        "service S { main { "
        "a@P( 1 )( r.x ) b@P( 2 )() c@P( 3 ) d( m ) "
        "if( x == 1 ) { y = 1 } else { y = 2 } "
        "while( i < 3 ) i = i + 1 "
        "throw( Boom ) } }"
    )
    assert "a@P( 1 )( r.x )" in text
    assert "b@P( 2 )()" in text
    assert "c@P( 3 )" in text
    assert "d( m )" in text
    assert "} else {" in text
    assert "while( i < 3 ) {" in text
    assert "throw( Boom )" in text


def test_parentheses_follow_structure_not_source():
    flat = parse_source("service S { main { x = a + b * c } }")
    assert "x = a + b * c" in render(flat)
    grouped = parse_source("service S { main { x = (a + b) * c } }")
    assert "x = (a + b) * c" in render(grouped)
    redundant = parse_source("service S { main { x = (a) + ((b * c)) } }")
    assert "x = a + b * c" in render(redundant)


@pytest.mark.parametrize("expr", ["a - (b - c)", "a / (b / c)", "a == (b == c)"])
def test_a_right_nested_operand_keeps_its_parentheses(expr):
    assert f"x = {expr}" in round_trips(f"service S {{ main {{ x = {expr} }} }}")


def test_string_escapes_round_trip():
    round_trips('service S { main { x = "a\\"b\\\\c\\nd\\te" } }')
    # every C0 control character, then a quote and a backslash
    controls = "".join(f"\\u{code:04x}" for code in range(0x20))
    text = round_trips(f'service S {{ main {{ x = "{controls}\\"\\\\" }} }}')
    assert 'x = "\\u0000\\u0001' in text
    assert '\\u0007\\b\\t\\n\\u000b\\f\\r\\u000e' in text
    assert '\\u001f\\"\\\\"' in text


def test_tree_literal_rendering():
    text = round_trips('service S { main { x = { location = here, topics[0] = "T" } } }')
    assert 'x = { location = here, topics[0] = "T" }' in text
    assert round_trips("service S { main { x = {} } }")


def test_comments_are_not_preserved():
    text = round_trips("type A : int // gone\n/* also gone */ type B : int")
    assert "gone" not in text


@pytest.mark.parametrize("seed", range(40))
def test_generated_programs_round_trip(seed):
    round_trips(random_program(random.Random(seed)))


@pytest.mark.parametrize("seed", range(60))
def test_generated_behaviors_round_trip(seed):
    round_trips(random_behavior_program(random.Random(seed)))


def test_fixture_round_trips(fixture_source):
    round_trips(fixture_source)
