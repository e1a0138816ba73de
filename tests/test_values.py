import json
import math
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_json
from monoslice.runtime.interpreter import MAX_PAD
from monoslice.runtime.transport import MAX_BODY_BYTES
from monoslice.values import (
    MAX_DIGITS,
    MAX_NESTING,
    TOO_DEEP,
    TOO_MANY_DIGITS,
    JsonError,
    Long,
    ValueTree,
    _wire_image,
    decode_json,
    encode_json,
    integer_text,
    kind_of,
)

from script import WIDE_INDEX


def test_long_literal_tags_kind():
    assert kind_of(Long(5)) == "long"
    assert kind_of(5) == "int"
    assert kind_of(True) == "bool"
    assert kind_of(5.0) == "double"
    assert kind_of("x") == "string"
    assert kind_of(None) == "nothing"


def test_an_int_too_wide_for_decimal_text_prints_as_its_width():
    wide = 10**4300  # one digit over MAX_DIGITS, whatever limit the process sets on int-to-text conversion
    with pytest.raises(ValueError):
        integer_text(wide)
    assert repr(ValueTree(wide)) == "ValueTree(<int of 14285 bits>)"
    assert repr(Long(wide)) == "<int of 14285 bits>L"
    assert repr(ValueTree(Long(wide), {"n": [ValueTree(wide), ValueTree(7)]})) == (
        "ValueTree(<int of 14285 bits>L, n=[ValueTree(<int of 14285 bits>), ValueTree(7)])"
    )
    assert (repr(ValueTree(7)), repr(Long(7)), repr(ValueTree(True))) == ("ValueTree(7)", "7L", "ValueTree(True)")


def test_scalar_round_trip():
    assert encode_json(ValueTree(Long(123))) == b"123"
    assert decode_json(b"123") == ValueTree(Long(123))


def test_object_encoding_matches_fixture_shape():
    tree = ValueTree.make(id=ValueTree(Long(123)), info=ValueTree.make(name="lot"))
    assert encode_json(tree) == b'{"id":123,"info":{"name":"lot"}}'
    assert decode_json(b'{"id":123,"info":{"name":"lot"}}') == tree


def test_root_coexisting_with_children_uses_dollar_key():
    tree = ValueTree("x", {"a": [ValueTree("y")]})
    assert encode_json(tree) == b'{"$":"x","a":"y"}'
    assert decode_json(b'{"$":"x","a":"y"}') == tree


def test_null_decodes_to_empty_node():
    assert decode_json(b"null") == ValueTree()
    assert decode_json(b'{"a":null}') == ValueTree(children={"a": [ValueTree()]})
    assert encode_json(ValueTree()) == b"null"


def test_sequences_encode_as_arrays_only_past_one_element():
    two = ValueTree(children={"t": [ValueTree("a"), ValueTree("b")]})
    assert encode_json(two) == b'{"t":["a","b"]}'
    assert decode_json(b'{"t":["a","b"]}') == two
    one = ValueTree(children={"t": [ValueTree("a")]})
    assert encode_json(one) == b'{"t":"a"}'


def test_empty_array_means_zero_occurrences():
    assert decode_json(b'{"t":[]}') == ValueTree()


def test_fractional_and_integral_numbers_decode_to_distinct_kinds():
    assert kind_of(decode_json(b"1.5").root) == "double"
    assert kind_of(decode_json(b"2e3").root) == "double"
    assert kind_of(decode_json(b"7").root) == "long"
    with pytest.raises(TypeError):  # a root built from Python may be anything
        kind_of([7])


@pytest.mark.parametrize(
    "payload",
    [
        b"[1,2]",
        b'{"a":[[1]]}',
        b'{"$":{"x":1}}',
        b'{"A":',
        b'{"a":' * 5000 + b"1" + b"}" * 5000,  # past MAX_NESTING
        pytest.param(b'{"a":' + b"7" * 5000 + b"}", id="5000-digit-number"),  # past MAX_DIGITS
        pytest.param(b'"\xff"', id="not-utf-8"),
    ],
)
def test_unrepresentable_payloads_raise(payload):
    with pytest.raises(JsonError):
        decode_json(payload)


# what the codec, a port, the lexer, render, a repr, an activation's fault,
# an HTTP head and a port location make of an integer of MAX_DIGITS digits and
# of one digit more (or of a far wider one), run in a child so that the
# child's digit limit can be set
_DIGITS_PROBE = """
import json, sys
from monoslice.config import Location
from monoslice.errors import MonosliceError
from monoslice.lexer import tokenize
from monoslice.parser import parse_source
from monoslice.render import render
from monoslice.runtime import start
from monoslice.runtime.transport import _content_length
from monoslice.semantics import resolve
from monoslice.values import MAX_DIGITS, JsonError, Long, ValueTree, _image, decode_json, encode_json

outcomes = []
for digits in (MAX_DIGITS, MAX_DIGITS + 1):
    text = "-" + "7" * digits
    value = Long(-7 * (10**digits - 1) // 9)
    try:
        outcomes.append(["decoded", decode_json(text).root == value])
    except JsonError as exc:
        outcomes.append(["refused", str(exc)])
    try:
        outcomes.append(["encoded", encode_json(ValueTree(value)) == text.encode()])
    except ValueError as exc:
        outcomes.append(["refused", str(exc)])
    outcomes.append(["admitted", _image(ValueTree.make(n=value))[1]])
    outcomes.append(["repr", repr(value) == text + "L" or repr(value)])
    for literal in (text[1:], text[1:] + "L"):
        try:
            outcomes.append([[token.kind.name, token.value == -value] for token in tokenize(literal)])
        except MonosliceError as exc:
            outcomes.append(["refused", str(exc)])
literal = "7" * MAX_DIGITS
program = parse_source("service S { main { x = " + literal + " y = " + literal + "L } }")
rendered = render(program)
outcomes.append(["rendered", rendered.count(literal), parse_source(rendered) == program])
system = start(resolve(parse_source(sys.argv[1])), decode_json('{"Wide":{"location":"local://wide"}}'))
try:
    reply = system.invoke_rr("Wide", "index", ValueTree(Long(10**2999)))
finally:
    system.shutdown()
outcomes.append(["faulted", reply.name, reply.data.root])
for length in (b"9" * 5000, b"0" * 5000 + b"5"):
    try:
        outcomes.append(["length", _content_length(length)])
    except ValueError as exc:
        outcomes.append(["refused", str(exc)])
try:
    outcomes.append(["located", str(Location.parse("socket://h:" + "9" * 5000))])
except MonosliceError as exc:
    outcomes.append(["refused", str(exc)])
print(json.dumps(outcomes))
"""


@pytest.mark.parametrize("limit", [None, "0", "640"], ids=["default", "no-limit", "640"])
def test_the_digit_limit_is_the_programs_whatever_the_process_sets(limit):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = limit
    result = subprocess.run(
        [sys.executable, "-c", _DIGITS_PROBE, WIDE_INDEX], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, result.stderr
    assert MAX_DIGITS == 4300
    nines = "9" * 5000
    assert json.loads(result.stdout) == [
        ["decoded", True],
        ["encoded", True],
        ["admitted", None],
        ["repr", True],
        [["INT", True]],
        [["LONG", True]],
        ["refused", "number has too many digits"],
        ["refused", TOO_MANY_DIGITS],
        ["admitted", TOO_MANY_DIGITS],
        ["repr", f"<int of {(7 * (10 ** (MAX_DIGITS + 1) - 1) // 9).bit_length()} bits>L"],
        ["refused", "1:1: integer literal has too many digits"],
        ["refused", "1:1: integer literal has too many digits"],
        ["rendered", 2, True],
        ["faulted", "TypeMismatch", f"index <int of {(10**5998).bit_length()} bits> is more than {MAX_PAD} past the end of its sequence"],
        ["refused", f"Content-Length {nines} is over the limit of {MAX_BODY_BYTES}"],
        ["length", 5],
        ["refused", f"bad location 'socket://h:{nines}': port {nines} out of range 1-65535"],
    ]


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"NaN", "NaN is not a JSON number"),
        (b'{"x":Infinity}', "Infinity is not a JSON number"),
        (b'{"x":[1,-Infinity]}', "-Infinity is not a JSON number"),
        (b"1e999", "number is out of the range of a double"),
        (b'{"x":-1e400}', "number is out of the range of a double"),
    ],
)
def test_numbers_that_are_not_finite_are_refused(payload, message):
    with pytest.raises(JsonError) as exc:
        decode_json(payload)
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_a_double_that_is_not_finite_is_not_encoded(value):
    with pytest.raises(ValueError):
        encode_json(ValueTree.make(x=value))
    assert encode_json(ValueTree.make(x=1e308)) == b'{"x":1e+308}'


def test_json_error_carries_position():
    with pytest.raises(JsonError) as exc:
        decode_json(b'{"A":')
    assert exc.value.line == 1
    assert exc.value.column is not None


def test_equality_is_insensitive_to_child_name_order():
    a = ValueTree(children={"x": [ValueTree(1)], "y": [ValueTree(2)]})
    b = ValueTree(children={"y": [ValueTree(2)], "x": [ValueTree(1)]})
    assert a == b


def test_equality_is_sensitive_within_a_sequence():
    a = ValueTree(children={"x": [ValueTree(1), ValueTree(2)]})
    b = ValueTree(children={"x": [ValueTree(2), ValueTree(1)]})
    assert a != b


def test_equality_kind_rules():
    assert ValueTree(5) == ValueTree(Long(5))  # int and long compare by value
    assert ValueTree(5) != ValueTree(5.0)
    assert ValueTree(False) != ValueTree(0)
    assert ValueTree(True) != ValueTree(1)
    assert ValueTree() != ValueTree(0)
    assert ValueTree() == ValueTree()
    assert ValueTree(5) != 5  # a tree equals only a tree
    assert ValueTree.make(x=1) != ValueTree.make(y=1)


def test_copy_is_deep():
    original = ValueTree.make(a=ValueTree.make(b="x"))
    clone = original.copy()
    clone.children["a"][0].children["b"][0].root = "mutated"
    assert original.children["a"][0].children["b"][0].root == "x"


def _chain(depth):
    tree = ValueTree(Long(0))
    for i in range(1, depth):
        tree = ValueTree(f"level {i}", {"a": [tree]})
    return tree


def _wide(width):
    return ValueTree.make(xs=[ValueTree.make(Long(i), k=i % 2 == 0) for i in range(width)])


def _node_pairs(a, b):
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        yield x, y
        assert x.children.keys() == y.children.keys()
        for name, seq in x.children.items():
            assert len(seq) == len(y.children[name])
            pending.extend(zip(seq, y.children[name]))


@pytest.mark.parametrize("source", [_chain(2000), _wide(10_000)], ids=["2000-deep", "10k-wide"])
def test_a_copy_of_a_deep_or_wide_tree_is_equal_unmarked_and_apart(source):
    for node, _ in _node_pairs(source, source):  # as a port leaves what it admitted
        node.shared, node.admitted = True, True
    clone = source.copy()
    pairs = list(_node_pairs(source, clone))
    for original, copied in pairs:
        assert repr(copied.root) == repr(original.root)  # repr tells a long from an int
        assert copied is not original
        assert copied.shared is False and copied.admitted is None
    deepest_original, deepest_copy = pairs[-1]
    deepest_copy.root = "changed"
    deepest_copy.children["new"] = [ValueTree(1)]
    clone.children.clear()
    assert deepest_original.root is not None and deepest_original.root != "changed"
    assert "new" not in deepest_original.children
    assert len(list(_node_pairs(source, source))) == len(pairs)  # the clear reached no source node


_names = st.text(min_size=1, max_size=8).filter(lambda s: s != "$")
_roots = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.integers(min_value=-(2**53), max_value=2**53).map(Long),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)


def _tree_nodes(children):
    return st.builds(
        ValueTree,
        _roots,
        st.dictionaries(_names, st.lists(children, min_size=1, max_size=3), max_size=3),
    )


trees = st.recursive(st.builds(ValueTree, _roots), _tree_nodes, max_leaves=18)


@given(trees)
@settings(max_examples=300, deadline=None)
def test_decode_encode_is_identity(tree):
    assert decode_json(encode_json(tree)) == tree


def _depth(value):
    """How many JSON objects and arrays nest in a value json.loads made."""
    if isinstance(value, (dict, list)):
        return 1 + max(map(_depth, value.values() if isinstance(value, dict) else value), default=0)
    return 0


@given(trees)
@settings(max_examples=300, deadline=None)
def test_decode_json_counts_the_nesting_of_a_text_encode_json_wrote_as_the_text_and_the_image_do(tree):
    text = encode_json(tree)
    decoded = decode_json(text)
    if decoded.children:  # decode_json sets nesting on each node it makes from a JSON object
        assert decoded.nesting == _depth(json.loads(text)) == _wire_image(tree).nesting


# ---------------------------------------------------------------------------
# the codec against the one it replaced (tests/reference_json.py)


def _shape(tree):
    """A tree as nested tuples: each root's type and repr, and the children in their order."""
    return (
        type(tree.root).__name__,
        repr(tree.root),
        [(name, [_shape(t) for t in seq]) for name, seq in tree.children.items()],
    )


def _decoded(decode, data):
    try:
        return ("tree", _shape(decode(data)))
    except JsonError as exc:
        return ("error", str(exc), exc.line, exc.column)


def _encoded(encode, tree):
    try:
        return ("bytes", encode(tree))
    except ValueError as exc:  # UnicodeEncodeError included
        return ("error", type(exc).__name__, str(exc))


# JSON text, drawn as text: keys that repeat, "$" anywhere, arrays empty,
# nested or at the root, lone surrogates written as escapes, numbers past
# the digit limit or a double's range, and constants that are not JSON
_json_keys = st.sampled_from(['"$"', '"a"', '"b"', '"é"', '"\\ud800"', '"\\u0000x"'])
_json_scalars = st.one_of(
    st.sampled_from(
        ["null", "true", "false", "0", "-0", "-0.0", "1.5", "2E3", "5e-324", "1e308", "1e999", "-1e400"]
        + ["NaN", "Infinity", "-Infinity", '"\\ud800"', '"\\udfff\\ud800"', '"\\n\\t\\u001f"', '""', "1" * 4301]
    ),
    st.integers().map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(max_size=6).map(lambda s: json.dumps(s, ensure_ascii=False)),
)
_json_space = st.sampled_from(["", " ", "\n  "])


def _json_containers(values):
    pairs = st.lists(st.tuples(_json_keys, _json_space, values), max_size=4)
    return st.one_of(
        pairs.map(lambda items: "{" + ",".join(f"{key}:{space}{value}" for key, space, value in items) + "}"),
        st.lists(st.tuples(_json_space, values), max_size=3).map(
            lambda items: "[" + ",".join(space + value for space, value in items) + "]"
        ),
    )


_json_values = st.recursive(_json_scalars, _json_containers, max_leaves=12)
json_texts = st.one_of(
    _json_values,
    _json_values.flatmap(lambda text: st.integers(0, len(text)).map(lambda cut: text[:cut])),  # truncated
    st.tuples(_json_values, _json_space, _json_values).map("".join),  # extra data
)


@given(json_texts, st.booleans())
@settings(max_examples=500, deadline=None)
def test_decode_json_agrees_with_the_reference_codec(text, as_bytes):
    data = text.encode("utf-8", "surrogatepass") if as_bytes else text
    assert _decoded(decode_json, data) == _decoded(reference_json.decode_json, data)


_edge_roots = st.one_of(
    _roots,
    st.floats(),  # NaN and the infinities too
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf, True, False]),
    st.sampled_from([4299, 4300]).map(lambda digits: 10**digits),  # 4301 digits is past the limit
    st.sampled_from([4299, 4300]).map(lambda digits: Long(-(10**digits))),
    st.integers().map(Long),
    st.text(st.characters(codec=None, exclude_categories=()), max_size=6),  # control characters and surrogates
)
_edge_names = st.one_of(_names, st.sampled_from(["$", "\x00", " ", "é", "\ud800"]))
edge_trees = st.recursive(
    st.builds(ValueTree, _edge_roots),
    lambda children: st.builds(
        ValueTree,
        _edge_roots,
        st.dictionaries(_edge_names, st.lists(children, min_size=1, max_size=3), max_size=3),
    ),
    max_leaves=12,
)


@given(edge_trees)
@settings(max_examples=500, deadline=None)
def test_encode_json_agrees_with_the_reference_codec(tree):
    assert _encoded(encode_json, tree) == _encoded(reference_json.encode_json, tree)


@pytest.mark.parametrize(
    "text",
    [
        '{"a":{"$":{}},"a":1}',  # a refused value hidden by a repeated key
        '{"a":1,"b":2,"a":[]}',  # the last value in the first key's place, here no child
        '{"a":[1,[2]],"b":{"$":[]}}',  # the first error a walk from the root meets
        '{"b":{"$":[]},"a":[1,[2]]}',
        '{"$":{"$":[]}}',
        '{"$":{"a":[[1]]}}',  # "$" holding an object is refused before what the object holds
        '{"a":[{"b":[[1]]}]}',
        '[{"$":{}}]',  # a root array is refused first
        '{"$":{}} x',  # malformed text before any refusal
        '{"$":[],"a":NaN}',
        '﻿{}',
        '{"a":' + "7" * 5000 + "}",
    ],
)
def test_decode_json_reports_what_the_reference_codec_reports(text):
    assert _decoded(decode_json, text) == _decoded(reference_json.decode_json, text)


@pytest.mark.parametrize(
    "tree",
    [ValueTree(math.nan), ValueTree.make(x=-math.inf), ValueTree(Long(10**4300)), ValueTree("\ud800")],
    ids=["nan", "minus-infinity", "4301-digits", "lone-surrogate"],
)
def test_a_tree_json_cannot_carry_raises_as_in_the_reference_codec(tree):
    assert _encoded(encode_json, tree)[0] == "error"
    assert _encoded(encode_json, tree) == _encoded(reference_json.encode_json, tree)


def test_trees_the_constructor_does_not_make_encode_as_in_the_reference_codec():
    empty = ValueTree.make(a=1)
    empty.children["b"] = []
    for tree in [
        ValueTree("r", {"a": [ValueTree(1)], "$": [ValueTree("c")]}),  # "$" takes the root's place
        ValueTree(None, {"a": [ValueTree(1)], "$": [ValueTree("c"), ValueTree(2)]}),
        ValueTree(float("nan"), {"$": [ValueTree(3)]}),
        empty,
    ]:
        assert _encoded(encode_json, tree) == _encoded(reference_json.encode_json, tree)


def _decodes_on_a_fresh_stack(depth):
    """Whether decode_json takes a body nesting depth objects, called on a new thread's stack, as a port's worker calls it."""
    outcome = []

    def run():
        try:
            decode_json(b'{"a":' * depth + b"1" + b"}" * depth)
            outcome.append(True)
        except JsonError as exc:
            outcome.append(str(exc))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert outcome[0] in (True, TOO_DEEP)
    return outcome[0] is True


def test_decode_json_decodes_max_nesting_levels_and_refuses_deeper_on_every_python():
    assert _decodes_on_a_fresh_stack(MAX_NESTING)
    assert not _decodes_on_a_fresh_stack(MAX_NESTING + 1)
    assert not _decodes_on_a_fresh_stack(5000)  # json's scanner may give up first
    assert not _decodes_on_a_fresh_stack(30000)  # json's scanner gives up first on every Python
