"""Small-step interpreter for service behaviors.

A variable scope is itself a value tree whose children are the
variables. Reads of missing paths yield an empty tree without mutating
the scope; assignments create intermediate nodes on demand, and an
index past the end of a sequence extends it with empty nodes.

Assignment semantics: a childless right-hand side sets the target
node's root and preserves its children; a tree-valued right-hand side
replaces the target subtree. Message bindings (receives, response
targets, branch request variables) always replace. Assignment stores
the tree it is given without copying it: expression values are fresh
(a path read returns a copy), and so is every message, which the
runtime copies once as it crosses a port.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ast import (
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
from ..values import Basic, Long, ValueTree, kind_of


@dataclass
class Fault:
    """A named application fault, optionally carrying a data tree."""

    name: str
    data: ValueTree | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("fault name must be non-empty")


class FaultSignal(Exception):
    """Propagates a fault up through the current handler activation."""

    def __init__(self, fault: Fault):
        self.fault = fault
        super().__init__(fault.name)


def fault(name: str, message: str | None = None) -> FaultSignal:
    data = ValueTree(message) if message else None
    return FaultSignal(Fault(name, data))


class ExecutionContext:
    """What a behavior needs from its surroundings.

    The runtime system supplies a live implementation per activation;
    tests may substitute stubs.
    """

    scope: ValueTree
    output_ports: frozenset[str]

    def solicit(self, port: str, operation: str, request: ValueTree) -> ValueTree:
        raise NotImplementedError

    def send_oneway(self, port: str, operation: str, message: ValueTree) -> None:
        raise NotImplementedError

    def receive(self, operation: str) -> ValueTree:
        raise NotImplementedError

    def rebind(self, port: str, location_text: str) -> None:
        raise NotImplementedError


class LocalContext(ExecutionContext):
    """A context with no ports, enough to evaluate pure behaviors."""

    def __init__(self, scope: ValueTree | None = None):
        self.scope = scope if scope is not None else ValueTree()
        self.output_ports = frozenset()


# ---------------------------------------------------------------------------
# paths


def _eval_index(index: Expr | None, ctx: ExecutionContext) -> int:
    if index is None:
        return 0
    tree = eval_expr(index, ctx)
    root = tree.root
    if isinstance(root, bool) or not isinstance(root, int):
        raise fault("TypeMismatch", f"index must be an integer, found {kind_of(root)}")
    if root < 0:
        raise fault("TypeMismatch", f"index must be non-negative, found {root}")
    return int(root)


def read_path(scope: ValueTree, path: Path, ctx: ExecutionContext) -> ValueTree:
    """Read a path, returning a copy; missing paths yield an empty tree."""
    node = scope
    for step in path.steps:
        index = _eval_index(step.index, ctx)
        seq = node.children.get(step.name)
        if seq is None or index >= len(seq):
            return ValueTree()
        node = seq[index]
    return node.copy()


def _slot_for(scope: ValueTree, path: Path, ctx: ExecutionContext) -> tuple[list[ValueTree], int]:
    node = scope
    for step in path.steps[:-1]:
        index = _eval_index(step.index, ctx)
        seq = node.children.setdefault(step.name, [])
        while len(seq) <= index:
            seq.append(ValueTree())
        node = seq[index]
    last = path.steps[-1]
    index = _eval_index(last.index, ctx)
    seq = node.children.setdefault(last.name, [])
    while len(seq) <= index:
        seq.append(ValueTree())
    return seq, index


def assign_path(
    scope: ValueTree,
    path: Path,
    value: ValueTree,
    ctx: ExecutionContext,
    replace: bool = False,
) -> None:
    seq, index = _slot_for(scope, path, ctx)
    if replace or value.children:
        seq[index] = value
    else:
        seq[index].root = value.root


# ---------------------------------------------------------------------------
# expressions


def _numeric(value: Basic | None) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _arith(op: str, a: Basic | None, b: Basic | None) -> Basic:
    if not _numeric(a) or not _numeric(b):
        raise fault("TypeMismatch", f"cannot apply '{op}' to {kind_of(a)} and {kind_of(b)}")
    if op == "/" and b == 0:
        raise fault("DivisionByZero", "division by zero")
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b
    elif op == "*":
        result = a * b
    elif isinstance(a, float) or isinstance(b, float):
        result = a / b
    else:
        # integer division truncates toward zero
        result = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            result = -result
    if isinstance(result, float):
        return result
    if isinstance(a, Long) or isinstance(b, Long):
        return Long(result)
    return result


def _equal_roots(a: Basic | None, b: Basic | None) -> bool:
    # Total: absent equals absent, mismatched kinds are unequal, numerics widen.
    if a is None or b is None:
        return a is None and b is None
    a_bool, b_bool = isinstance(a, bool), isinstance(b, bool)
    if a_bool or b_bool:
        return a_bool and b_bool and a == b
    if _numeric(a) and _numeric(b):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    return False


def _compare(op: str, a: Basic | None, b: Basic | None) -> bool:
    if op == "==":
        return _equal_roots(a, b)
    if op == "!=":
        return not _equal_roots(a, b)
    if not _numeric(a) or not _numeric(b):
        raise fault("TypeMismatch", f"cannot apply '{op}' to {kind_of(a)} and {kind_of(b)}")
    return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]


def _bool_root(tree: ValueTree, what: str) -> bool:
    if not isinstance(tree.root, bool):
        raise fault("TypeMismatch", f"{what} must be a bool, found {kind_of(tree.root)}")
    return tree.root


def eval_expr(expr: Expr, ctx: ExecutionContext) -> ValueTree:
    if isinstance(expr, Literal):
        return ValueTree(expr.value)
    if isinstance(expr, PathExpr):
        return read_path(ctx.scope, expr.path, ctx)
    if isinstance(expr, Unary):
        operand = eval_expr(expr.operand, ctx)
        if expr.op == "!":
            return ValueTree(not _bool_root(operand, "operand of '!'"))
        root = operand.root
        if not _numeric(root):
            raise fault("TypeMismatch", f"cannot negate {kind_of(root)}")
        return ValueTree(Long(-int(root)) if isinstance(root, Long) else -root)
    if isinstance(expr, Binary):
        if expr.op in ("&&", "||"):
            left = _bool_root(eval_expr(expr.left, ctx), f"operand of '{expr.op}'")
            if expr.op == "&&" and not left:
                return ValueTree(False)
            if expr.op == "||" and left:
                return ValueTree(True)
            return ValueTree(_bool_root(eval_expr(expr.right, ctx), f"operand of '{expr.op}'"))
        left = eval_expr(expr.left, ctx)
        right = eval_expr(expr.right, ctx)
        if expr.op in ("+", "-", "*", "/"):
            return ValueTree(_arith(expr.op, left.root, right.root))
        return ValueTree(_compare(expr.op, left.root, right.root))
    if isinstance(expr, TreeLiteral):
        tree = ValueTree()
        for key, value in expr.entries:
            assign_path(tree, key, eval_expr(value, ctx), ctx)
        return tree
    raise TypeError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# statements


def exec_statements(statements: list[Statement], ctx: ExecutionContext) -> None:
    for statement in statements:
        exec_statement(statement, ctx)


def exec_statement(statement: Statement, ctx: ExecutionContext) -> None:
    if isinstance(statement, Assign):
        if statement.target.root in ctx.output_ports:
            # resolve-time checks guarantee the shape Port.location
            value = eval_expr(statement.value, ctx)
            if not isinstance(value.root, str):
                raise fault(
                    "TypeMismatch",
                    f"port location must be a string, found {kind_of(value.root)}",
                )
            ctx.rebind(statement.target.root, value.root)
            return
        assign_path(ctx.scope, statement.target, eval_expr(statement.value, ctx), ctx)
        return
    if isinstance(statement, SolicitResponse):
        request = eval_expr(statement.argument, ctx)
        response = ctx.solicit(statement.port, statement.operation, request)
        if statement.target is not None:
            assign_path(ctx.scope, statement.target, response, ctx, replace=True)
        return
    if isinstance(statement, OneWaySend):
        ctx.send_oneway(statement.port, statement.operation, eval_expr(statement.argument, ctx))
        return
    if isinstance(statement, Receive):
        message = ctx.receive(statement.operation)
        assign_path(ctx.scope, statement.target, message, ctx, replace=True)
        return
    if isinstance(statement, If):
        if _bool_root(eval_expr(statement.condition, ctx), "if condition"):
            exec_statements(statement.then, ctx)
        else:
            exec_statements(statement.orelse, ctx)
        return
    if isinstance(statement, While):
        while _bool_root(eval_expr(statement.condition, ctx), "while condition"):
            exec_statements(statement.body, ctx)
        return
    if isinstance(statement, Throw):
        raise FaultSignal(Fault(statement.fault))
    raise TypeError(f"not a statement: {statement!r}")
