"""The closure-compiled interpreter the code generator replaced, kept as a test oracle.

`compile_block` here turns every statement and expression into a nested
Python closure, with path steps, constant indices and operators fixed
when the closure is built (Feeley and Lapalme, "Using closures for code
generation", Computer Languages 12(1), 1987). `tests/test_interpreter.py`
runs drawn programs through it and through
`monoslice.runtime.interpreter`, and compares their scopes, faults and
statement counts. It shares the package's `Fault`, `FaultSignal`,
`fault` and `MAX_PAD`, so the two raise the same faults; nothing in
`src/` imports it.
"""

from __future__ import annotations

import operator
from typing import Callable

from monoslice.ast import (
    Assign,
    Binary,
    Expr,
    If,
    Literal,
    OneWaySend,
    Path,
    PathExpr,
    Receive,
    SolicitResponse,
    Statement,
    Throw,
    TreeLiteral,
    Unary,
    While,
)
from monoslice.runtime.interpreter import MAX_PAD, ExecutionContext, Fault, FaultSignal, fault
from monoslice.values import Basic, Long, ValueTree, kind_of


Step = Callable[[ExecutionContext], None]
Block = tuple[Step, ...]
_Eval = Callable[[ExecutionContext], object]


# ---------------------------------------------------------------------------
# statements


def compile_block(statements: list[Statement], output_ports: frozenset[str] = frozenset()) -> Block:
    """Compile a statement list once; assignments to output_ports rebind them."""
    return tuple(_statement(s, output_ports) for s in statements)


def exec_statements(block: Block, ctx: ExecutionContext) -> None:
    for statement in block:
        exec_statement(statement, ctx)


def exec_statement(statement: Step, ctx: ExecutionContext) -> None:
    statement(ctx)


def _statement(statement: Statement, ports: frozenset[str]) -> Step:
    if isinstance(statement, Assign):
        if statement.target.root in ports:
            return _rebind(statement.target.root, statement.value)
        store = _store(statement.target, statement.value)
        return lambda ctx: store(ctx.scope, ctx)
    if isinstance(statement, SolicitResponse):
        return _solicit(statement)
    if isinstance(statement, OneWaySend):
        port, operation, argument = statement.port, statement.operation, compile_expr(statement.argument)
        return lambda ctx: ctx.send_oneway(port, operation, argument(ctx))
    if isinstance(statement, Receive):
        operation, slot = statement.operation, _slot(statement.target)

        def receive(ctx: ExecutionContext) -> None:
            message = ctx.receive(operation)
            seq, index = slot(ctx.scope, ctx)
            seq[index] = message

        return receive
    if isinstance(statement, If):
        condition = _root(statement.condition)
        then = compile_block(statement.then, ports)
        orelse = compile_block(statement.orelse, ports)

        def if_(ctx: ExecutionContext) -> None:
            c = condition(ctx)
            if c is not True and c is not False:
                _bool(c, "if condition")  # raises
            for step in then if c is True else orelse:
                exec_statement(step, ctx)

        return if_
    if isinstance(statement, While):
        condition = _root(statement.condition)
        body = compile_block(statement.body, ports)

        def while_(ctx: ExecutionContext) -> None:
            c = condition(ctx)
            while c is True:
                if ctx.aborted:  # a plain attribute: this loop is the interpreter's hot path
                    raise fault("Aborted", "the system shut down before the activation ended")
                for step in body:
                    exec_statement(step, ctx)
                c = condition(ctx)
            if c is not False:
                _bool(c, "while condition")  # raises

        return while_
    # a Throw, the last kind of statement
    name = statement.fault

    def throw(ctx: ExecutionContext) -> None:
        raise FaultSignal(Fault(name))

    return throw


def _rebind(port: str, value: Expr) -> Step:
    # resolve-time checks guarantee the shape Port.location
    location = _root(value)

    def rebind(ctx: ExecutionContext) -> None:
        text = location(ctx)
        if not isinstance(text, str):
            raise fault("TypeMismatch", f"port location must be a string, found {kind_of(text)}")
        ctx.rebind(port, text)

    return rebind


def _solicit(statement: SolicitResponse) -> Step:
    port, operation, argument = statement.port, statement.operation, compile_expr(statement.argument)
    if statement.target is None:
        return lambda ctx: ctx.solicit(port, operation, argument(ctx))
    slot = _slot(statement.target)

    def solicit(ctx: ExecutionContext) -> None:
        response = ctx.solicit(port, operation, argument(ctx))
        seq, index = slot(ctx.scope, ctx)
        seq[index] = response

    return solicit


# ---------------------------------------------------------------------------
# paths


def _index(index: Expr | None) -> int | _Eval:
    """A step's index: an int fixed now, or a closure that checks it on each use."""
    if index is None:
        return 0
    if isinstance(index, Literal) and type(index.value) in (int, Long) and index.value >= 0:
        return int(index.value)
    if isinstance(index, PathExpr) and _is_variable(index.path):
        name = index.path.root

        def variable(ctx: ExecutionContext) -> int:
            seq = ctx.scope.children.get(name)
            root = seq[0].root if seq else None
            return root if type(root) is int and root >= 0 else _checked_index(root)

        return variable
    value = _root(index)
    return lambda ctx: _checked_index(value(ctx))


def _checked_index(root: Basic | None) -> int:
    if isinstance(root, bool) or not isinstance(root, int):
        raise fault("TypeMismatch", f"index must be an integer, found {kind_of(root)}")
    if root < 0:
        raise fault("TypeMismatch", f"index must be non-negative, found {root}")
    return int(root)


def _is_variable(path: Path) -> bool:
    return len(path.steps) == 1 and path.steps[0].index is None


def _steps(path: Path) -> list[tuple[str, int | _Eval]]:
    return [(step.name, _index(step.index)) for step in path.steps]


def _locate(path: Path) -> Callable[[ExecutionContext], ValueTree | None]:
    """The scope node a path names, itself and not a copy, or None if absent."""
    steps = _steps(path)
    if all(type(index) is int for _, index in steps):

        def fixed(ctx: ExecutionContext) -> ValueTree | None:
            node = ctx.scope
            try:
                for name, index in steps:
                    node = node.children[name][index]
            except (KeyError, IndexError):  # indices are never negative: past the end
                return None
            return node

        return fixed

    def locate(ctx: ExecutionContext) -> ValueTree | None:
        node = ctx.scope
        for name, index in steps:
            if type(index) is not int:
                index = index(ctx)  # outside the try: its faults propagate
            try:
                node = node.children[name][index]
            except (KeyError, IndexError):
                return None
        return node

    return locate


def _slot(path: Path) -> Callable[[ValueTree, ExecutionContext], tuple[list[ValueTree], int]]:
    """The sequence and index a path names under a node, created on demand.

    The node must not be shared; every shared node on the way down is
    swapped for its writable clone, so the sequence may be changed. A step
    that faults leaves the node as it was: the first sequence the walk
    padded is cut back, and every later pad lies below it.
    """
    *parents, (last, last_index) = _steps(path)

    def slot(node: ValueTree, ctx: ExecutionContext) -> tuple[list[ValueTree], int]:
        first = None  # the node, name and length of the first sequence padded
        try:
            for name, index in parents:
                if type(index) is not int:
                    index = index(ctx)
                seq = node.children.get(name)
                if seq is None or len(seq) <= index:
                    if first is None:
                        first = node, name, 0 if seq is None else len(seq)
                    seq = _pad(node, name, index)
                node = seq[index]
                if node.shared:
                    node = seq[index] = node.writable()
            index = last_index if type(last_index) is int else last_index(ctx)
            seq = node.children.get(last)
            if seq is None or len(seq) <= index:
                seq = _pad(node, last, index)  # refuses before it changes the node
            return seq, index
        except FaultSignal:
            if first is not None:
                padded, name, length = first
                if length:
                    del padded.children[name][length:]
                else:  # absent still if that pad was the step refused
                    padded.children.pop(name, None)
            raise

    return slot


def _pad(node: ValueTree, name: str, index: int) -> list[ValueTree]:
    """The node's sequence name, extended with empty nodes up to index, at most MAX_PAD past its end."""
    seq = node.children.get(name, [])
    if index - len(seq) > MAX_PAD:  # refused before the scope changes
        raise fault("TypeMismatch", f"index {index} is more than {MAX_PAD} past the end of its sequence")
    seq.extend([ValueTree() for _ in range(index + 1 - len(seq))])
    node.children[name] = seq
    return seq


def _store(target: Path, value: Expr) -> Callable[[ValueTree, ExecutionContext], None]:
    """Assign an expression to a path under a node, sharing a borrowed tree."""
    if isinstance(value, (Literal, Unary, Binary)):  # always childless
        root = _root(value)
        if _is_variable(target):
            name = target.root

            def store_variable(node: ValueTree, ctx: ExecutionContext) -> None:
                result = root(ctx)
                seq = node.children.get(name)
                if not seq:
                    node.children[name] = [ValueTree(result)]
                    return
                held = seq[0]
                if held.shared:
                    held = seq[0] = held.writable()
                held.root = result

            return store_variable
        slot = _slot(target)

        def store_root(node: ValueTree, ctx: ExecutionContext) -> None:
            result = root(ctx)
            seq, index = slot(node, ctx)
            target = seq[index]
            if target.shared:
                target = seq[index] = target.writable()
            target.root = result

        return store_root
    slot = _slot(target)
    tree = compile_expr(value)
    borrowed = isinstance(value, PathExpr)

    def store(node: ValueTree, ctx: ExecutionContext) -> None:
        result = tree(ctx)
        # decide before the slot is made: making it may add children to a borrowed
        # node, unless the mark makes the slot clone it
        if result.children:
            if borrowed:
                result.shared = True
            seq, index = slot(node, ctx)
            seq[index] = result
        else:
            root = result.root
            seq, index = slot(node, ctx)
            target = seq[index]
            if target.shared:
                target = seq[index] = target.writable()
            target.root = root

    return store


# ---------------------------------------------------------------------------
# expressions


def compile_expr(expr: Expr) -> Callable[[ExecutionContext], ValueTree]:
    """Compile an expression to its tree: a path read borrows the scope node."""
    if isinstance(expr, PathExpr):
        locate = _locate(expr.path)

        def read(ctx: ExecutionContext) -> ValueTree:
            node = locate(ctx)
            return ValueTree() if node is None else node

        return read
    if isinstance(expr, TreeLiteral):
        entries = [_store(key, value) for key, value in expr.entries]

        def build(ctx: ExecutionContext) -> ValueTree:
            tree = ValueTree()
            for store in entries:
                store(tree, ctx)
            return tree

        return build
    root = _root(expr)
    return lambda ctx: ValueTree(root(ctx))


def _root(expr: Expr) -> _Eval:
    """Compile an expression to its root value alone, building no tree where it can."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda ctx: value
    if isinstance(expr, PathExpr):
        if _is_variable(expr.path):
            name = expr.path.root

            def variable(ctx: ExecutionContext) -> Basic | None:
                seq = ctx.scope.children.get(name)
                return seq[0].root if seq else None

            return variable
        locate = _locate(expr.path)

        def read_root(ctx: ExecutionContext) -> Basic | None:
            node = locate(ctx)
            return None if node is None else node.root

        return read_root
    if isinstance(expr, Unary):
        return _unary(expr.op, _root(expr.operand))
    if isinstance(expr, Binary):
        return _binary(expr.op, _root(expr.left), _root(expr.right))
    # a TreeLiteral, the last kind of expression
    if not expr.entries:
        return _nothing
    tree = compile_expr(expr)
    return lambda ctx: tree(ctx).root


def _nothing(ctx: ExecutionContext) -> None:
    """The root of {}: _binary tells a comparison with {} by this closure."""


def _numeric(value: Basic | None) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _bool(value: Basic | None, what: str) -> bool:
    if type(value) is not bool:
        raise fault("TypeMismatch", f"{what} must be a bool, found {kind_of(value)}")
    return value


def _unary(op: str, operand: _Eval) -> _Eval:
    if op == "!":
        return lambda ctx: not _bool(operand(ctx), "operand of '!'")

    def minus(ctx: ExecutionContext) -> Basic:
        root = operand(ctx)
        if not _numeric(root):
            raise fault("TypeMismatch", f"cannot negate {kind_of(root)}")
        return Long(-int(root)) if isinstance(root, Long) else -root

    return minus


def _divide(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    # integer division truncates toward zero
    result = abs(a) // abs(b)
    return -result if (a < 0) != (b < 0) else result


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _equal_roots(a: Basic | None, b: Basic | None) -> bool:
    # Roots of two different types are equal only as two numbers of one value:
    # absent never equals a root, and a bool is no number.
    return _numeric(a) and _numeric(b) and a == b


def _binary(op: str, left: _Eval, right: _Eval) -> _Eval:
    if op == "&&":
        return lambda ctx: _bool(left(ctx), "operand of '&&'") and _bool(right(ctx), "operand of '&&'")
    if op == "||":
        return lambda ctx: _bool(left(ctx), "operand of '||'") or _bool(right(ctx), "operand of '||'")
    if op in ("==", "!=") and _nothing in (left, right):  # a test for absence
        other = right if left is _nothing else left
        if op == "==":
            return lambda ctx: other(ctx) is None
        return lambda ctx: other(ctx) is not None
    if op in ("==", "!="):
        negate = op == "!="

        def equal(ctx: ExecutionContext) -> bool:
            a, b = left(ctx), right(ctx)
            return (a == b if type(a) is type(b) else _equal_roots(a, b)) ^ negate

        return equal
    if op in _ORDER:
        order = _ORDER[op]

        def compare(ctx: ExecutionContext) -> bool:
            a, b = left(ctx), right(ctx)
            if not _numeric(a) or not _numeric(b):
                raise fault("TypeMismatch", f"cannot apply '{op}' to {kind_of(a)} and {kind_of(b)}")
            return order(a, b)

        return compare
    compute = _ARITHMETIC[op]
    integral = op != "/"  # +, - and * of two ints need no checks

    def arithmetic(ctx: ExecutionContext) -> Basic:
        a, b = left(ctx), right(ctx)
        if integral and type(a) is int and type(b) is int:
            return compute(a, b)
        if not _numeric(a) or not _numeric(b):
            raise fault("TypeMismatch", f"cannot apply '{op}' to {kind_of(a)} and {kind_of(b)}")
        if op == "/" and b == 0:
            raise fault("DivisionByZero", "division by zero")
        result = compute(a, b)
        if isinstance(result, float):
            return result
        if isinstance(a, Long) or isinstance(b, Long):
            return Long(result)
        return result

    return arithmetic
