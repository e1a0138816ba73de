import pytest
import reference_interpreter
from hypothesis import given, settings
from hypothesis import strategies as st

from monoslice.ast import Binary, Literal, Path, PathExpr, PathStep, TreeLiteral, Unary
from monoslice.parser import parse_source
from monoslice.runtime.interpreter import (
    MAX_PAD,
    ExecutionContext,
    FaultSignal,
    compile_block,
    compile_expr,
    exec_statements,
)
from monoslice.values import Long, ValueTree, kind_of


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


def fault_of(callable_):
    """The name and message of the fault callable_ raises."""
    with pytest.raises(FaultSignal) as exc:
        callable_()
    fault = exc.value.fault
    return fault.name, None if fault.data is None else fault.data.root


def fault_name(callable_):
    return fault_of(callable_)[0]


def test_index_assignment_creates_singleton_sequence():
    scope = run_main('topics[0] = "PA_DELETED"')
    topics = scope.children["topics"]
    assert len(topics) == 1
    assert topics[0].root == "PA_DELETED"


def test_index_past_end_extends_with_empty_nodes():
    scope = run_main("x.a[2] = 1")
    seq = scope.children["x"][0].children["a"]
    assert len(seq) == 3
    assert seq[0] == seq[1] == ValueTree()
    assert seq[2].root == 1


@pytest.mark.parametrize("statement", ["x[n] = 1", "x[n] = t", "x[n].a = 1", "y[n] = 1"])
def test_a_store_pads_at_most_max_pad_nodes_past_a_sequences_end(statement):
    name = statement[0]
    end = 2 if name == "x" else 0  # the sequence's length before the store

    def scope(n):
        return ValueTree.make(x=[1, 2], n=Long(n), t=ValueTree.make(k=1))

    block = compile_block(main_statements(statement))
    ctx = Context(scope(end + MAX_PAD))
    exec_statements(block, ctx)
    seq = ctx.scope.children[name]
    assert len(seq) == end + MAX_PAD + 1
    assert all(node == ValueTree() for node in seq[end:-1]) and seq[-1] != ValueTree()
    ctx = Context(scope(end + MAX_PAD + 1))
    fault, message = fault_of(lambda: exec_statements(block, ctx))
    assert fault == "TypeMismatch" and f"more than {MAX_PAD} past the end" in message
    assert ctx.scope == scope(end + MAX_PAD + 1)


@pytest.mark.parametrize("n", [Long(10**8), "s"], ids=["past-max-pad", "not-an-index"])
def test_a_store_that_faults_at_a_later_step_leaves_the_scope_as_it_was(n):
    block = compile_block(main_statements("x[3].a[n] = 1"))
    for x in ([], [1, 2]):  # x absent, and x shorter than the index the store pads it to
        ctx = Context(ValueTree.make(x=x, n=n))
        assert fault_name(lambda: exec_statements(block, ctx)) == "TypeMismatch"
        assert ctx.scope == ValueTree.make(x=x, n=n)


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
    assert result == ValueTree()
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
    assert evaluate("{ a = 1 } == 3").root is False  # a tree literal's root is absent


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
    assert len(topics) == 2 and topics[0] == ValueTree() and topics[1].root == "B"
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


# ---------------------------------------------------------------------------
# the edge cases of the shapes compiled to direct tests


@pytest.mark.parametrize("expression", ["ghost", "x[1]", "x[i]", "x.a[i]", "x[0].ghost[0]"])
def test_a_read_through_an_absent_name_or_past_the_end_is_empty_and_changes_nothing(expression):
    scope = ValueTree.make(x=ValueTree.make(7, a=1), i=1)
    before = scope.copy()
    assert evaluate(expression, scope) == ValueTree()
    assert scope == before


@pytest.mark.parametrize(
    "index, message",
    [
        (True, "index must be an integer, found bool"),
        (-1, "index must be non-negative, found -1"),
        (Long(-2), "index must be non-negative, found -2L"),
        ("0", "index must be an integer, found string"),
        (None, "index must be an integer, found nothing"),  # i is absent
        (ValueTree.make(k=0), "index must be an integer, found nothing"),  # i has no root
        (0.0, "index must be an integer, found double"),
    ],
)
def test_an_index_held_in_a_variable_must_be_a_non_negative_integer(index, message):
    held = {} if index is None else {"i": index}
    for expression in ["x[i]", "x[i].a", "x[i] == {}"]:
        scope = ValueTree.make(x=[1, 2], **held)
        assert fault_of(lambda: evaluate(expression, scope)) == ("TypeMismatch", message)
    scope = ValueTree.make(**held)
    block = compile_block(main_statements("x[i] = 1"))
    assert fault_of(lambda: exec_statements(block, Context(scope))) == ("TypeMismatch", message)


def test_a_long_index_held_in_a_variable_selects_like_an_int():
    scope = ValueTree.make(x=["a", "b"], i=Long(1))
    assert evaluate("x[i]", scope).root == "b"
    assert evaluate("x[i] != {}", scope).root is True


def test_a_node_with_children_and_no_root_equals_the_empty_tree():
    scope = ValueTree.make(x=ValueTree.make(a=1))
    assert evaluate("x == {}", scope).root is True
    assert evaluate("x != {}", scope).root is False
    assert evaluate("{} == x", scope).root is True
    assert evaluate("x.a != {}", scope).root is True


def test_arithmetic_on_variables_keeps_its_kinds():
    scope = run_main("a = 1 b = 2 c = a + b d = a * b - c n = 5L m = n + a q = 0 - 7 r = q / b")
    roots = {name: seq[0].root for name, seq in scope.children.items()}
    assert (type(roots["c"]), roots["c"]) == (int, 3)
    assert (type(roots["d"]), roots["d"]) == (int, -1)
    assert (type(roots["m"]), roots["m"]) == (Long, 6)
    assert (type(roots["r"]), roots["r"]) == (int, -3)


@pytest.mark.parametrize(
    "statements, message",
    [
        ("if( 1 ) { x = 1 }", "if condition must be a bool, found int"),
        ("if( missing ) { x = 1 }", "if condition must be a bool, found nothing"),
        ('while( "no" ) { x = 1 }', "while condition must be a bool, found string"),
        ("c = true while( c ) { c = 1 }", "while condition must be a bool, found int"),
    ],
)
def test_a_condition_that_is_not_a_bool_faults_with_its_kind(statements, message):
    assert fault_of(lambda: run_main(statements)) == ("TypeMismatch", message)


def test_incrementing_a_variable_that_holds_a_shared_tree_writes_a_clone():
    config = ValueTree.make(5, k="kept")
    config.shared = True  # as the runtime stores the configuration tree
    ctx = Context(ValueTree.make(config=config))
    exec_statements(compile_block(main_statements("i = config i = i + 1 config = config + 1")), ctx)
    assert config == ValueTree.make(5, k="kept")
    assert ctx.scope.children["i"][0] == ValueTree.make(6, k="kept")
    assert ctx.scope.children["config"][0] == ValueTree.make(6, k="kept")


# ---------------------------------------------------------------------------
# compiled expressions against a recursive model of the operator rules

_NUMERIC = ("int", "long", "double")
_ROOTS = st.one_of(
    st.none(),  # the variable is absent
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6).map(Long),
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.sampled_from(["", "a", "1"]),
)
_LITERALS = st.one_of(
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-3, 3).map(Long),
    st.sampled_from([0.0, 2.5, -1.5]),
    st.sampled_from(["", "a"]),
)
_OPERANDS = st.one_of(
    st.sampled_from(["x", "y"]).map(lambda name: PathExpr(Path([PathStep(name)]))),
    _LITERALS.map(Literal),
    st.just(TreeLiteral([])),
)
_BINARY = ["==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "&&", "||"]


def _operator(operands):
    return st.one_of(
        st.builds(Unary, st.sampled_from(["-", "!"]), operands),
        st.builds(Binary, st.sampled_from(_BINARY), operands, operands),
    )


_EXPRESSIONS = _operator(st.recursive(_OPERANDS, _operator, max_leaves=3))


class _ModelFault(Exception):
    pass


def _model_bool(value, what):
    if kind_of(value) != "bool":
        raise _ModelFault("TypeMismatch", f"{what} must be a bool, found {kind_of(value)}")
    return value


def _model_root(expr, scope):
    """An expression's root by the language's rules, one case at a time."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, TreeLiteral):
        return None
    if isinstance(expr, PathExpr):
        node = scope.child(expr.path.root)
        return None if node is None else node.root
    if isinstance(expr, Unary):
        value = _model_root(expr.operand, scope)
        if expr.op == "!":
            return not _model_bool(value, "operand of '!'")
        if kind_of(value) not in _NUMERIC:
            raise _ModelFault("TypeMismatch", f"cannot negate {kind_of(value)}")
        return Long(-value) if kind_of(value) == "long" else -value
    op = expr.op
    a = _model_root(expr.left, scope)
    if op in ("&&", "||"):  # the right operand counts only when the left does not decide
        if _model_bool(a, f"operand of '{op}'") == (op == "||"):
            return a
        return _model_bool(_model_root(expr.right, scope), f"operand of '{op}'")
    b = _model_root(expr.right, scope)
    ka, kb = kind_of(a), kind_of(b)
    if op in ("==", "!="):  # total: numerics compare by value, other kinds only with their own
        same = a == b if ka in _NUMERIC and kb in _NUMERIC else ka == kb and a == b
        return same == (op == "==")
    if ka not in _NUMERIC or kb not in _NUMERIC:
        raise _ModelFault("TypeMismatch", f"cannot apply '{op}' to {ka} and {kb}")
    if op in ("<", "<=", ">", ">="):
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
    if op == "/" and b == 0:
        raise _ModelFault("DivisionByZero", "division by zero")
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b
    elif op == "*":
        result = a * b
    elif "double" in (ka, kb):
        result = a / b
    else:
        result, remainder = divmod(a, b)
        if remainder and (a < 0) != (b < 0):  # divmod floors; division truncates toward zero
            result += 1
    if "double" in (ka, kb):
        return float(result)
    return Long(result) if "long" in (ka, kb) else int(result)


def _outcome(evaluate_root):
    try:
        value = evaluate_root()
    except FaultSignal as exc:
        return "fault", exc.fault.name, exc.fault.data.root
    except _ModelFault as exc:
        return ("fault", *exc.args)
    return "value", type(value), repr(value)  # repr tells -0.0 from 0.0 and matches nan


@given(_EXPRESSIONS, _ROOTS, _ROOTS)
# the example count comes from the loaded profile when it asks for more (tests/conftest.py)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_compiled_expressions_agree_with_the_model(expr, x, y):
    scope = ValueTree()
    for name, root in (("x", x), ("y", y)):
        if root is not None:
            scope.children[name] = [ValueTree(root)]
    compiled = compile_expr(expr)
    assert _outcome(lambda: compiled(Context(scope)).root) == _outcome(lambda: _model_root(expr, scope))


# ---------------------------------------------------------------------------
# generated statements against the closure compiler they replaced
# (tests/reference_interpreter.py)

def _pick(*strategies):
    """One of strategies, each as likely as its share of the list: one_of would merge repeats."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


def _path_text(root, index, steps):
    text = root + (f"[{index}]" if index else "")
    return text + "".join(f".{name}" + (f"[{i}]" if i else "") for name, i in steps)


def _paths(indices, roots=("a", "b", "x", "y")):
    steps = st.lists(st.tuples(st.sampled_from(["f", "g"]), st.none() | indices), max_size=2)
    return st.builds(_path_text, st.sampled_from(roots), st.none() | indices, steps)


# Most drawn statements cannot fault: their indices select, their arithmetic is
# over numbers, and their conditions are bools. One in _DIFF_RISK is drawn from
# a grammar that faults often: indices that are not integers, negative or too
# far past the end to pad, any operator over roots of any kind, and throw.
# Loops count c0 and c1, which nothing else writes.
_DIFF_RISK = 8
_DIFF_INDICES = st.sampled_from(["0", "1", "3", "c0", "c1", "2L"])
_DIFF_PATHS = _paths(_DIFF_INDICES)
_DIFF_NUMERIC = st.recursive(
    st.sampled_from(["1", "2", "2L", "-3", "2.5", "0.0", "c0", "c1"]),
    lambda inner: st.builds("({} {} {})".format, inner, st.sampled_from("+-*"), inner) | st.builds("-{}".format, inner),
    max_leaves=3,
)
_DIFF_TESTS = st.recursive(
    st.one_of(
        st.builds("{} {} {}".format, _DIFF_NUMERIC, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), _DIFF_NUMERIC),
        st.builds("{} {} {}".format, _DIFF_PATHS, st.sampled_from(["==", "!="]), _DIFF_PATHS | _DIFF_NUMERIC),
        st.builds("{} {} {{}}".format, _DIFF_PATHS, st.sampled_from(["==", "!="])),
        st.sampled_from(["true", "false"]),
    ),
    lambda inner: st.builds("({} {} {})".format, inner, st.sampled_from(["&&", "||"]), inner) | st.builds("!({})".format, inner),
    max_leaves=3,
)
_DIFF_TREES = st.lists(
    st.builds("{} = {}".format, _paths(_DIFF_INDICES, roots=("f", "g")), _DIFF_NUMERIC | _DIFF_PATHS),
    min_size=1,
    max_size=3,
).map(lambda entries: "{ " + ", ".join(entries) + " }")
_DIFF_ROOT_NAMES = st.sampled_from(["a", "b", "x", "y"])
_DIFF_STORES = _pick(
    st.builds("{} = {}".format, _DIFF_PATHS, _DIFF_NUMERIC | _DIFF_TESTS),
    st.builds("{} = {}".format, _DIFF_PATHS, _DIFF_PATHS | _DIFF_TREES),
    st.builds("{} = {}".format, _DIFF_PATHS, _DIFF_ROOT_NAMES),
    # y = x shares x's tree, and a write through either must not show through the other
    st.builds("{} = {} {} = {}".format, _DIFF_ROOT_NAMES, _DIFF_ROOT_NAMES, _DIFF_PATHS, _DIFF_NUMERIC | _DIFF_PATHS),
    st.builds("{} = {} {} = {}".format, _DIFF_ROOT_NAMES, _DIFF_ROOT_NAMES, _DIFF_ROOT_NAMES, _DIFF_NUMERIC),
)
_RISKY_INDICES = st.sampled_from(["0", "c0", "a", "b", '"s"', "(0 - 1)", "100000", "2.5"])
_RISKY_PATHS = _paths(_RISKY_INDICES)
_RISKY_EXPRS = st.recursive(
    st.one_of(st.sampled_from(["1", "2L", "2.5", '"s"', '""', "true", "{}", "a", "b"]), _RISKY_PATHS),
    lambda inner: st.one_of(
        st.builds(
            "({} {} {})".format,
            inner,
            st.sampled_from(["+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]),
            inner,
        ),
        st.builds("!{}".format, inner),
        st.builds("-{}".format, inner),
    ),
    max_leaves=4,
)
_DIFF_RISKY = st.one_of(
    st.builds("{} = {}".format, _RISKY_PATHS, _RISKY_EXPRS | _DIFF_NUMERIC | _DIFF_TREES),
    # a step that pads, then one whose index may fault
    st.builds("{}[3].f[{}] = {}".format, _DIFF_ROOT_NAMES, _RISKY_INDICES, _DIFF_NUMERIC | _DIFF_TREES),
    st.builds("{} = {}".format, _DIFF_PATHS, _RISKY_EXPRS),
    st.just("throw( Boom )"),
)
_DIFF_SIMPLE = _pick(*[_DIFF_STORES] * _DIFF_RISK, _DIFF_RISKY)
_DIFF_CONDITIONS = _pick(*[_DIFF_TESTS] * _DIFF_RISK, _RISKY_EXPRS)  # not a bool faults
_DIFF_VALUES = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(Long), st.sampled_from([0.0, -0.0, 2.5]), _ROOTS)


def _diff_statements(depth):
    """Statement lists whose loops at depth d count c{d} up to a small bound."""
    if depth == 0:
        return st.lists(_DIFF_SIMPLE, max_size=3).map(" ".join)
    inner = _diff_statements(depth - 1)
    counter = f"c{depth - 1}"
    loop = st.builds(
        lambda bound, extra, body: (
            f"{counter} = 0 while( {extra}{counter} < {bound} ) {{ {body} {counter} = {counter} + 1 }}"
        ),
        st.integers(0, 3),
        _pick(st.just(""), _DIFF_TESTS.map("{} && ".format)),
        inner,
    )
    branch = st.builds("if( {} ) {{ {} }} else {{ {} }}".format, _DIFF_CONDITIONS, inner, inner)
    return st.lists(_pick(_DIFF_SIMPLE, _DIFF_SIMPLE, loop, branch), min_size=1, max_size=3).map(" ".join)


def _diff_scope(a, b, shared):
    x = ValueTree.make(7, f=[ValueTree.make(g=1), ValueTree(2)])
    x.shared = shared  # as the runtime stores trees others hold
    scope = ValueTree.make(x=x)
    for name, root in (("a", a), ("b", b)):
        if root is not None:
            scope.children[name] = [ValueTree(root)]
    return scope


def _kinds(tree):
    """A tree as roots with their kinds: repr tells -0.0 from 0.0 and 1 from 1L."""
    return (
        kind_of(tree.root),
        repr(tree.root),
        {name: [_kinds(child) for child in seq] for name, seq in sorted(tree.children.items())},
    )


def _run_counted(module, statements, scope):
    """Compile and run statements with module; returns the scope's kinds, the fault, and the statements run."""
    counted = []
    original = module.exec_statement

    def counting(statement, ctx):
        counted.append(statement)
        original(statement, ctx)

    module.exec_statement = counting
    ctx = Context(scope)
    try:
        module.exec_statements(module.compile_block(statements), ctx)
        outcome = None
    except FaultSignal as exc:
        outcome = exc.fault.name, None if exc.fault.data is None else exc.fault.data.root
    finally:
        module.exec_statement = original
    return _kinds(ctx.scope), outcome, len(counted)


def assert_same_as_reference(text, scope=None):
    from monoslice.runtime import interpreter

    statements = main_statements(text)
    fresh = (lambda: scope.copy()) if scope is not None else ValueTree
    generated = _run_counted(interpreter, statements, fresh())
    assert generated == _run_counted(reference_interpreter, statements, fresh())
    return generated


@given(_diff_statements(2), _DIFF_VALUES, _DIFF_VALUES, st.booleans())
# the example count comes from the loaded profile when it asks for more (tests/conftest.py)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_generated_statements_agree_with_the_reference_interpreter(text, a, b, shared):
    assert_same_as_reference("c0 = 0 c1 = 0 " + text, _diff_scope(a, b, shared))


@pytest.mark.parametrize(
    "text",
    [
        # a shared tree, then writes through each holder
        "x.f = 1 y = x y.f[2].g = 3 x.f = y.f[2] y = 5",
        # a faulting store after a pad at an earlier step, under a shared node
        "y = x y.f[3].g[100000] = 1",
        'x.f[2].g["s"] = 1',
        # a loop whose condition walks a variable index, and breaks on a fault
        'i = 0 while( x.f[i] != {} ) { x.f[i].seen = i i = i + 1 } k = x.f[i].g',
        "i = 0 while( i < 3 ) { if( i == 1 ) { y = x } else { x.f[i] = i * 2L } i = i + 1 } throw( Done )",
    ],
)
def test_statement_shapes_agree_with_the_reference_interpreter(text):
    assert_same_as_reference(text, _diff_scope(Long(1), "s", True))


# ---------------------------------------------------------------------------
# program text reaches the generated code as data, never as source

_TEXT = '"it\'s \\"quoted\\", \\"\\"\\" and \\\\ back\\nslash, {braces} }{ and café"'


@pytest.mark.parametrize(
    "text, names, outcome",
    [
        # a string literal, and a fault that names its kind
        ("s = " + _TEXT + " t.u = s + 1", ["s"], ("TypeMismatch", "cannot apply '+' to string and int")),
        ("café = " + _TEXT + " crème.brûlée[1] = café", ["café", "crème"], None),
        # names the generated code uses for its own locals, constants and helpers
        (
            "scope = 1 ctx = 2 k0 = 3 t1 = k0 + ctx K = { _build = scope, exec_statement = t1 } Assign = K",
            ["Assign", "K", "ctx", "k0", "scope", "t1"],
            None,
        ),
        ("x.if = 1 x.while = x.if x.lambda.import = 2 x.__class__ = x.lambda x.def[1] = 3", ["x"], None),
        ('x["it\'s"] = 1', [], ("TypeMismatch", "index must be an integer, found string")),
        ("throw( Crème )", [], ("Crème", None)),
    ],
)
def test_identifiers_and_literals_stay_data(text, names, outcome):
    scope, fault, _ = assert_same_as_reference(text)
    assert sorted(scope[2]) == names
    assert fault == outcome


def test_a_string_literal_keeps_its_text():
    scope, _, _ = assert_same_as_reference("s = " + _TEXT)
    assert scope[2]["s"][0][1] == repr("it's \"quoted\", \"\"\" and \\ back\nslash, {braces} }{ and café")


def test_deeply_nested_expressions_compile_and_agree_with_the_reference_interpreter():
    # one function of nested blocks would pass Python's 100 levels of indentation
    conjunction = "true"
    for _ in range(120):
        conjunction = f"(x.f[i] == {{}} && {conjunction})"
    index = "i"
    for _ in range(25):
        index = f"v[{index}]"
    scope = ValueTree.make(i=0, v=[0, 1], x=ValueTree.make(f=[ValueTree.make(g=1)]))
    _, outcome, _ = assert_same_as_reference(f"r = {conjunction} s = {index} x.f[{index}].g[{index}] = 5", scope)
    assert outcome is None


def test_a_full_code_cache_is_emptied_before_it_takes_more(monkeypatch):
    from monoslice.runtime import interpreter

    monkeypatch.setattr(interpreter, "_BUILDERS", {})
    monkeypatch.setattr(interpreter, "_BUILDERS_LIMIT", 1)
    block = compile_block(main_statements("x = 1 y = x + 2"), name="S.op")  # two shapes
    assert len(interpreter._BUILDERS) == 1
    ctx = Context()
    exec_statements(block, ctx)
    assert ctx.scope == ValueTree.make(x=1, y=3)
