import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoslice.ast import Literal, PathExpr, TreeLiteral
from monoslice.parser import parse_source
from monoslice.runtime.interpreter import (
    ExecutionContext,
    FaultSignal,
    compile_block,
    compile_expr,
    exec_statements,
)
from monoslice.values import Long, ValueTree


class Context(ExecutionContext):
    """A context with no ports, enough to run pure behaviors."""

    def __init__(self, scope: ValueTree | None = None):
        self.scope = scope if scope is not None else ValueTree()


def main_statements(statements: str):
    return parse_source("service S { main { " + statements + " } }").services[0].behavior.statements


def run_main(statements: str) -> ValueTree:
    ctx = Context()
    exec_statements(compile_block(main_statements(statements)), ctx)
    return ctx.scope


def evaluate(expression: str, scope: ValueTree | None = None) -> ValueTree:
    statement = main_statements("probe = " + expression)[0]
    return compile_expr(statement.value)(Context(scope))


def fault_name(callable_):
    with pytest.raises(FaultSignal) as exc:
        callable_()
    return exc.value.fault.name


def test_index_assignment_creates_singleton_sequence():
    scope = run_main('topics[0] = "PA_DELETED"')
    topics = scope.children["topics"]
    assert len(topics) == 1
    assert topics[0].root == "PA_DELETED"


def test_index_past_end_extends_with_empty_nodes():
    scope = run_main("x.a[2] = 1")
    seq = scope.children["x"][0].children["a"]
    assert len(seq) == 3
    assert seq[0].is_empty and seq[1].is_empty
    assert seq[2].root == 1


def test_if_picks_the_then_branch():
    scope = run_main("if( true ) { y = 1 } else { y = 2 }")
    assert scope.children["y"][0].root == 1


def test_while_accumulates():
    scope = run_main("i = 0 total = 0 while( i < 5 ) { total = total + i i = i + 1 }")
    assert scope.children["total"][0].root == 10


def test_leaf_assignment_preserves_children_tree_assignment_replaces():
    scope = run_main('x.kid = 1 x = "root-only"')
    node = scope.children["x"][0]
    assert node.root == "root-only"
    assert node.children["kid"][0].root == 1
    scope = run_main("x.kid = 1 y.other = 2 x = y")
    node = scope.children["x"][0]
    assert "kid" not in node.children
    assert node.children["other"][0].root == 2


def test_assignment_copies_no_aliasing():
    scope = run_main("a.v = 1 b = a a.v = 2")
    assert scope.children["b"][0].children["v"][0].root == 1


def test_reads_of_missing_paths_do_not_mutate():
    scope = ValueTree()
    result = evaluate("ghost.child[4].deeper", scope)
    assert result.is_empty
    assert scope.children == {}


def test_arithmetic_kinds():
    assert evaluate("1 + 2").root == 3
    assert isinstance(evaluate("1 + 2").root, int)
    mixed = evaluate("1 + 2L").root
    assert isinstance(mixed, Long) and mixed == 3
    assert evaluate("1 + 0.5").root == 1.5
    assert evaluate("7 / 2").root == 3
    assert evaluate("-7 / 2").root == -3  # truncation toward zero
    assert evaluate("7.0 / 2").root == 3.5


def test_division_by_zero_faults():
    assert fault_name(lambda: evaluate("1 / 0")) == "DivisionByZero"
    assert fault_name(lambda: evaluate("1.0 / 0.0")) == "DivisionByZero"


def test_arithmetic_type_faults():
    assert fault_name(lambda: evaluate('"a" + "b"')) == "TypeMismatch"
    assert fault_name(lambda: evaluate("true + 1")) == "TypeMismatch"
    assert fault_name(lambda: evaluate("missing + 1")) == "TypeMismatch"


def test_equality_is_total():
    assert evaluate("missing == {}").root is True
    assert evaluate("missing != {}").root is False
    assert evaluate('missing == ""').root is False
    assert evaluate('"" != {}').root is True  # empty string is present
    assert evaluate("1 == 1L").root is True
    assert evaluate("1 == 1.0").root is True  # numeric comparison widens
    assert evaluate("true == 1").root is False
    assert evaluate('"1" == 1').root is False


def test_string_equality_is_codepoint_equality():
    assert evaluate('"abc" == "abc"').root is True
    assert evaluate('"abc" == "abd"').root is False


def test_ordering_requires_numerics():
    assert evaluate("1 < 2L").root is True
    assert evaluate("2.5 >= 2").root is True
    assert fault_name(lambda: evaluate('"a" < "b"')) == "TypeMismatch"
    assert fault_name(lambda: evaluate("missing < 1")) == "TypeMismatch"


def test_boolean_operators_short_circuit():
    assert evaluate("false && (1 / 0 == 0)").root is False
    assert evaluate("true || (1 / 0 == 0)").root is True
    assert fault_name(lambda: evaluate("1 && true")) == "TypeMismatch"
    assert evaluate("!false").root is True


def test_unary_minus_preserves_kind():
    assert isinstance(evaluate("0 - 2L").root, Long)
    scope = run_main("n = 5L m = -n")
    assert isinstance(scope.children["m"][0].root, Long)


def test_condition_must_be_bool():
    assert fault_name(lambda: run_main("if( 1 ) { x = 1 }")) == "TypeMismatch"
    assert fault_name(lambda: run_main('while( "no" ) { x = 1 }')) == "TypeMismatch"


def test_tree_literal_builds_nested_paths():
    scope = run_main('msg = { location = "here", topics[1] = "B", nest.deep = 4 }')
    msg = scope.children["msg"][0]
    assert msg.children["location"][0].root == "here"
    topics = msg.children["topics"]
    assert len(topics) == 2 and topics[0].is_empty and topics[1].root == "B"
    assert msg.children["nest"][0].children["deep"][0].root == 4


def test_throw_raises_fault_signal():
    assert fault_name(lambda: run_main("throw( AssertionFailed )")) == "AssertionFailed"


def test_negative_index_faults():
    assert fault_name(lambda: run_main("i = 0 - 1 x[i] = 2")) == "TypeMismatch"


def test_index_must_be_integer():
    assert fault_name(lambda: run_main('x["a"] = 2')) == "TypeMismatch"
    assert fault_name(lambda: run_main("x[1.5] = 2")) == "TypeMismatch"


def test_rebinding_goes_through_context():
    class Recorder(Context):
        def __init__(self):
            super().__init__()
            self.bound = None

        def rebind(self, port, location_text):
            self.bound = (port, location_text)

    ctx = Recorder()
    exec_statements(compile_block(main_statements('Out.location = "local://next"'), frozenset({"Out"})), ctx)
    assert ctx.bound == ("Out", "local://next")
    assert "Out" not in ctx.scope.children


def test_rebinding_requires_a_string():
    block = compile_block(main_statements("Out.location = 7"), frozenset({"Out"}))
    with pytest.raises(FaultSignal) as exc:
        exec_statements(block, Context())
    assert exc.value.fault.name == "TypeMismatch"


# Reads borrow the scope's nodes and stores share them; each case fails if a write
# changes a shared node in place.
@pytest.mark.parametrize(
    "statements, path, expected",
    [
        ("x.a = 1 y = x x.a = 2", ["y", "a"], 1),
        ("x.a = 1 y = x y.a = 2", ["x", "a"], 1),
        ("x.a = 1 t = { k = x } x.a = 2", ["t", "k", "a"], 1),
        ("x.a = 1 t = { k = x } t.k.a = 2", ["x", "a"], 1),
        ("x.a.b = 1 x.a.a = x.a x.a.b = 2", ["x", "a", "a", "b"], 1),
        (
            'state.log[1].id = 7 state.log[1].type = "A" i = 1'
            ' result.event = state.log[i] state.log[i].type = "B"',
            ["result", "event", "type"],
            "A",
        ),
        # root-only writes to a node two variables hold
        ("x.a = 1 y = x y = 5", ["x"], None),
        ("x.a = 1 y = x x = 5", ["y"], None),
    ],
)
def test_stored_trees_share_no_node_with_what_they_were_read_from(statements, path, expected):
    node = run_main(statements)
    for name in path:
        node = node.children[name][0]
    assert node.root == expected


def test_a_tree_read_into_itself_is_the_value_before_the_store():
    scope = run_main("x.a = 1 x.k = x")
    kept = scope.children["x"][0].children["k"][0]
    assert kept == ValueTree.make(a=1)


def test_solicit_sees_the_request_as_stored_and_the_reply_is_kept_apart():
    class Recorder(Context):
        def __init__(self):
            super().__init__()
            self.requests = []

        def solicit(self, port, operation, request):
            self.requests.append(request.copy())  # a context keeps only copies
            return ValueTree.make(v=1)

    ctx = Recorder()
    statements = "x.a = 1 req = x x.a = 2 op@Out( req )( r ) req.a = 3 kept = r r.v = 9"
    exec_statements(compile_block(main_statements(statements)), ctx)
    assert ctx.requests == [ValueTree.make(a=1)]
    scope = ctx.scope
    assert scope.children["x"][0] == ValueTree.make(a=2)
    assert scope.children["req"][0] == ValueTree.make(a=3)
    assert scope.children["kept"][0] == ValueTree.make(v=1)
    assert scope.children["r"][0] == ValueTree.make(v=9)


def test_each_executed_statement_goes_through_exec_statement(monkeypatch):
    from monoslice.runtime import interpreter

    seen = []
    original = interpreter.exec_statement

    def counting(statement, ctx):
        seen.append(statement)
        original(statement, ctx)

    monkeypatch.setattr(interpreter, "exec_statement", counting)
    run_main("i = 0 while( i < 3 ) { if( i == 1 ) { x = i } i = i + 1 }")
    # i = 0, the while, three ifs and three increments, and the one x = i
    assert len(seen) == 9


# ---------------------------------------------------------------------------
# sharing against a model that copies on every store

_VARIABLES = st.sampled_from(["x", "y", "z"])
_STATEMENTS = st.one_of(
    st.builds("{} = {}".format, _VARIABLES, _VARIABLES),
    st.builds("{}.k[1] = {}.m".format, _VARIABLES, _VARIABLES),
    st.builds("{} = 7".format, _VARIABLES),
    st.builds('{}.k = "s"'.format, _VARIABLES),
    st.builds("{} = {{ k = {}, m.n = 1 }}".format, _VARIABLES, _VARIABLES),
    st.builds("{}.m = {{ k[1] = {}.k, n = 2 }}".format, _VARIABLES, _VARIABLES),
    st.builds("{}.m.n = {}".format, _VARIABLES, _VARIABLES),
)


def _model_slot(node, path):
    for step in path.steps:
        index = step.index.value if step.index is not None else 0
        seq = node.children.setdefault(step.name, [])
        while len(seq) <= index:
            seq.append(ValueTree())
        node = seq[index]
    return seq, index


def _model_value(expr, scope):
    """The value of an expression, as a tree no variable holds."""
    if isinstance(expr, Literal):
        return ValueTree(expr.value)
    if isinstance(expr, PathExpr):
        node = scope
        for step in expr.path.steps:
            node = node.child(step.name, step.index.value if step.index is not None else 0)
            if node is None:
                return ValueTree()
        return node.copy()
    assert isinstance(expr, TreeLiteral)
    tree = ValueTree()
    for key, value in expr.entries:
        _model_store(tree, key, value, scope)
    return tree


def _model_store(node, path, expr, scope):
    value = _model_value(expr, scope)
    seq, index = _model_slot(node, path)
    if value.children:
        seq[index] = value
    else:
        seq[index].root = value.root


@given(st.lists(_STATEMENTS, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_sharing_stores_give_the_scope_copying_stores_give(statements):
    parsed = main_statements(" ".join(statements))
    model = ValueTree()
    for statement in parsed:
        _model_store(model, statement.target, statement.value, model)
    assert run_main(" ".join(statements)) == model
