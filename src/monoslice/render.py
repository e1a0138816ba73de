"""Canonical source rendering for syntax trees.

The canon is fixed by golden tests: four-space indents, one blank line
between declarations, spaced colons in type declarations, spaces inside
non-empty parentheses. Comments are not preserved. Rendering then
reparsing yields a structurally equal tree, and rendering is idempotent
byte for byte.
"""

from __future__ import annotations

import json

from .ast import (
    PRECEDENCE,
    UNARY_PRECEDENCE,
    Assign,
    BasicRef,
    BasicType,
    Behavior,
    Binary,
    Branch,
    Declaration,
    ExecutionMode,
    Expr,
    FieldDecl,
    If,
    InlineTreeRef,
    InterfaceDecl,
    Literal,
    NamedRef,
    OneWayOp,
    OneWaySend,
    Path,
    PathExpr,
    PortDecl,
    Receive,
    RequestResponseBranch,
    RequestResponseOp,
    ServiceDecl,
    SolicitResponse,
    SourceProgram,
    Statement,
    StatementSequence,
    Throw,
    TreeLiteral,
    TypeDecl,
    TypeRef,
    Unary,
    While,
)
from .values import Long, integer_text

_INDENT = "    "


def render(program: SourceProgram) -> str:
    """Render a program to canonical source text (LF line endings)."""
    blocks = [_render_declaration(d) for d in program.declarations]
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def _render_declaration(decl: Declaration) -> str:
    if isinstance(decl, TypeDecl):
        return _type_decl(decl)
    if isinstance(decl, InterfaceDecl):
        return _interface_decl(decl)
    return _service_decl(decl)


# ---------------------------------------------------------------------------
# declarations


def _type_decl(decl: TypeDecl) -> str:
    head = f"type {decl.name}"
    if decl.root is not BasicType.VOID:
        head += f" : {decl.root.value}"
    if not decl.fields:
        return head
    lines = [head + " {"]
    for f in decl.fields:
        lines.extend(_field_lines(f, 1))
    lines.append("}")
    return "\n".join(lines)


def _field_lines(field: FieldDecl, depth: int) -> list[str]:
    prefix = _INDENT * depth + field.name + field.cardinality.value + " : "
    ref = field.type
    if isinstance(ref, InlineTreeRef):
        lines = [prefix + "{"]
        for f in ref.fields:
            lines.extend(_field_lines(f, depth + 1))
        lines.append(_INDENT * depth + "}")
        return lines
    return [prefix + _type_ref(ref)]


def _type_ref(ref: TypeRef) -> str:
    if isinstance(ref, BasicRef):
        return ref.basic.value
    if isinstance(ref, NamedRef):
        return ref.name
    # single-line form, used where an inline tree sits in operation position
    fields = " ".join(
        f"{f.name}{f.cardinality.value} : {_type_ref(f.type)}" for f in ref.fields
    )
    return "{ " + fields + " }" if fields else "{}"


def _interface_decl(decl: InterfaceDecl) -> str:
    if not decl.request_responses and not decl.one_ways:
        return f"interface {decl.name} {{}}"
    lines = [f"interface {decl.name} {{"]
    for section, ops in (("RequestResponse", decl.request_responses), ("OneWay", decl.one_ways)):
        if ops:
            lines.append(_INDENT + section + ":")
            lines.append(",\n".join(_INDENT * 2 + _operation(op) for op in ops))
    lines.append("}")
    return "\n".join(lines)


def _operation(op: RequestResponseOp | OneWayOp) -> str:
    text = f"{op.name}( {_type_ref(op.request)} )"
    if isinstance(op, RequestResponseOp):
        text += f"( {_type_ref(op.response)} )"
    return text


def _service_decl(decl: ServiceDecl) -> str:
    head = f"service {decl.name}"
    if decl.config is not None:
        if decl.config.type_name:
            head += f"( {decl.config.name} : {decl.config.type_name} )"
        else:
            head += f"( {decl.config.name} )"
    body: list[str] = []
    if decl.execution is not ExecutionMode.SINGLE:
        body.append(_INDENT + f"execution: {decl.execution.value}")
    for port in decl.ports():
        body.extend(_port_lines(port))
    body.extend(_behavior_lines(decl.behavior))
    if not body:
        return head + " {}"
    return "\n".join([head + " {", *body, "}"])


def _port_lines(port: PortDecl) -> list[str]:
    lines = [_INDENT + f"{port.kind.value} {port.name} {{"]
    lines.append(_INDENT * 2 + "location: " + _expr(port.location, 0))
    proto = _INDENT * 2 + "protocol: " + port.protocol_name
    if port.protocol_params:
        params = ", ".join(f"{name} = {_expr(e, 0)}" for name, e in port.protocol_params)
        proto += " { " + params + " }"
    lines.append(proto)
    lines.append(_INDENT * 2 + "interfaces: " + ", ".join(port.interfaces))
    lines.append(_INDENT + "}")
    return lines


def _behavior_lines(behavior: Behavior) -> list[str]:
    if isinstance(behavior, StatementSequence):
        items, item_lines = behavior.statements, _statement_lines
    else:
        items, item_lines = behavior.branches, _branch_lines
    if not items:
        return []
    lines = [_INDENT + "main {"]
    for item in items:
        lines.extend(item_lines(item, 2))
    lines.append(_INDENT + "}")
    return lines


def _branch_lines(branch: Branch, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(branch, RequestResponseBranch):
        head = f"{pad}{branch.operation}( {branch.request_var} )( {branch.response_var} )"
    else:
        head = f"{pad}{branch.operation}( {branch.request_var} )"
    return _block_lines(head, branch.body, depth)


def _block_lines(head: str, body: list[Statement], depth: int) -> list[str]:
    if not body:
        return [head + " {}"]
    lines = [head + " {"]
    for statement in body:
        lines.extend(_statement_lines(statement, depth + 1))
    lines.append(_INDENT * depth + "}")
    return lines


# ---------------------------------------------------------------------------
# statements


def _statement_lines(statement: Statement, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(statement, Assign):
        return [f"{pad}{_path(statement.target)} = {_expr(statement.value, 0)}"]
    if isinstance(statement, SolicitResponse):
        target = _path(statement.target) if statement.target is not None else ""
        target = f"( {target} )" if target else "()"
        return [f"{pad}{statement.operation}@{statement.port}( {_expr(statement.argument, 0)} ){target}"]
    if isinstance(statement, OneWaySend):
        return [f"{pad}{statement.operation}@{statement.port}( {_expr(statement.argument, 0)} )"]
    if isinstance(statement, Receive):
        return [f"{pad}{statement.operation}( {_path(statement.target)} )"]
    if isinstance(statement, Throw):
        return [f"{pad}throw( {statement.fault} )"]
    if isinstance(statement, While):
        return _block_lines(f"{pad}while( {_expr(statement.condition, 0)} )", statement.body, depth)
    # an If, the last kind of statement
    lines = _block_lines(f"{pad}if( {_expr(statement.condition, 0)} )", statement.then, depth)
    if statement.orelse:
        else_head = lines.pop() + " else"
        lines.extend(_block_lines(else_head, statement.orelse, depth))
    return lines


# ---------------------------------------------------------------------------
# expressions


def _path(path: Path) -> str:
    parts = []
    for step in path.steps:
        text = step.name
        if step.index is not None:
            text += f"[{_expr(step.index, 0)}]"
        parts.append(text)
    return ".".join(parts)


def _literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Long):
        return f"{integer_text(value)}L"
    if isinstance(value, int):
        return integer_text(value)
    if isinstance(value, float):
        return repr(value)
    return json.dumps(value, ensure_ascii=False)  # a string: the lexer reads exactly JSON's escapes


def _expr(expr: Expr, parent_precedence: int) -> str:
    if isinstance(expr, Literal):
        return _literal(expr.value)
    if isinstance(expr, PathExpr):
        return _path(expr.path)
    if isinstance(expr, TreeLiteral):
        if not expr.entries:
            return "{}"
        entries = ", ".join(f"{_path(p)} = {_expr(e, 0)}" for p, e in expr.entries)
        return "{ " + entries + " }"
    if isinstance(expr, Unary):
        inner = _expr(expr.operand, UNARY_PRECEDENCE)
        text = expr.op + inner
        return f"({text})" if parent_precedence > UNARY_PRECEDENCE else text
    # a Binary, the last kind of expression
    mine = PRECEDENCE[expr.op]
    left = _expr(expr.left, mine)
    right = _expr(expr.right, mine + 1)
    text = f"{left} {expr.op} {right}"
    return f"({text})" if parent_precedence > mine else text
