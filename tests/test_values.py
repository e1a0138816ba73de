import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoslice.values import (
    JsonError,
    Long,
    ValueTree,
    decode_json,
    encode_json,
    kind_of,
)


def test_long_literal_tags_kind():
    assert kind_of(Long(5)) == "long"
    assert kind_of(5) == "int"
    assert kind_of(True) == "bool"
    assert kind_of(5.0) == "double"
    assert kind_of("x") == "string"
    assert kind_of(None) == "nothing"


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


@pytest.mark.parametrize(
    "payload",
    [
        b"[1,2]",
        b'{"a":[[1]]}',
        b'{"$":{"x":1}}',
        b'{"A":',
        b'{"a":' * 5000 + b"1" + b"}" * 5000,  # deeper than the interpreter recurses
        pytest.param(
            b'{"a":' + b"7" * 5000 + b"}",  # more digits than int() converts
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit"
            ),
            id="5000-digit-number",
        ),
    ],
)
def test_unrepresentable_payloads_raise(payload):
    with pytest.raises(JsonError):
        decode_json(payload)


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
