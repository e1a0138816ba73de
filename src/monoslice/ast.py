"""Syntax tree for the service-definition language.

Each syntax node keeps the source offset of the token it starts at, an
int, for diagnostics. Offsets are excluded from structural equality and
repr, so a reparsed rendering compares equal to the original tree. The
program holds its source's table of line starts, and an offset becomes
a line and column (`SourceProgram.position`) only where a diagnostic
reports one; a program that parses and resolves builds no position.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum, unique
from itertools import accumulate
from typing import NamedTuple, Union

from .values import Basic


class Pos(NamedTuple):
    """A 1-based line and column."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def line_starts(source: str) -> list[int]:
    """The offset at which each line of source begins (and one past its end)."""
    return [0, *accumulate(len(text) + 1 for text in source.split("\n"))]


def position(starts: list[int], offset: int) -> Pos:
    """The 1-based line and column of a source offset, given its line_starts."""
    line = bisect_right(starts, offset)
    return Pos(line, offset - starts[line - 1] + 1)


def _offset_field():
    return field(default=None, compare=False, repr=False)


@unique
class BasicType(Enum):
    VOID = "void"
    BOOL = "bool"
    INT = "int"
    LONG = "long"
    DOUBLE = "double"
    STRING = "string"
    ANY = "any"


@unique
class Cardinality(Enum):
    ONE = ""
    OPTIONAL = "?"
    MANY = "*"

    def describe(self) -> str:
        return {"": "exactly one", "?": "at most one", "*": "any number of"}[self.value]


# ---------------------------------------------------------------------------
# Type references


@dataclass
class BasicRef:
    basic: BasicType
    offset: int | None = _offset_field()


@dataclass
class NamedRef:
    name: str
    offset: int | None = _offset_field()


@dataclass
class InlineTreeRef:
    fields: list["FieldDecl"]
    offset: int | None = _offset_field()


TypeRef = Union[BasicRef, NamedRef, InlineTreeRef]


# ---------------------------------------------------------------------------
# Expressions


@dataclass
class PathStep:
    name: str
    index: "Expr | None" = None


@dataclass
class Path:
    steps: list[PathStep]
    offset: int | None = _offset_field()

    @property
    def root(self) -> str:
        return self.steps[0].name


@dataclass
class Literal:
    value: Basic
    offset: int | None = _offset_field()

    def __eq__(self, other: object) -> bool:
        # bool/int/long/double literals must not collapse into each other
        if not isinstance(other, Literal):
            return NotImplemented
        if type(self.value) is not type(other.value):
            return False
        return self.value == other.value


@dataclass
class PathExpr:
    path: Path
    offset: int | None = _offset_field()


@dataclass
class Unary:
    op: str  # "-" or "!"
    operand: "Expr"
    offset: int | None = _offset_field()


@dataclass
class Binary:
    op: str  # + - * / == != < <= > >= && ||
    left: "Expr"
    right: "Expr"
    offset: int | None = _offset_field()


# How tightly each binary operator binds, the loosest first; the parser and
# the renderer both read it. Every binary operator is left-associative, and
# a unary operator binds tighter than all of them.
PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5,
}
UNARY_PRECEDENCE = 6


@dataclass
class TreeLiteral:
    entries: list[tuple[Path, "Expr"]]
    offset: int | None = _offset_field()


Expr = Union[Literal, PathExpr, Unary, Binary, TreeLiteral]


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Assign:
    """`path = expr`. Also covers output-port rebinding `Port.location = expr`."""

    target: Path
    value: Expr
    offset: int | None = _offset_field()


@dataclass
class SolicitResponse:
    """`op@Port( arg )( target )`; target may be omitted to discard the reply."""

    operation: str
    port: str
    argument: Expr
    target: Path | None
    offset: int | None = _offset_field()


@dataclass
class OneWaySend:
    """`op@Port( arg )`."""

    operation: str
    port: str
    argument: Expr
    offset: int | None = _offset_field()


@dataclass
class Receive:
    """Inline one-way receive `op( target )`, valid in executable services."""

    operation: str
    target: Path
    offset: int | None = _offset_field()


@dataclass
class If:
    condition: Expr
    then: list["Statement"]
    orelse: list["Statement"]
    offset: int | None = _offset_field()


@dataclass
class While:
    condition: Expr
    body: list["Statement"]
    offset: int | None = _offset_field()


@dataclass
class Throw:
    fault: str
    offset: int | None = _offset_field()


Statement = Union[Assign, SolicitResponse, OneWaySend, Receive, If, While, Throw]


# ---------------------------------------------------------------------------
# Behaviors


@dataclass
class RequestResponseBranch:
    operation: str
    request_var: str
    response_var: str
    body: list[Statement]
    offset: int | None = _offset_field()


@dataclass
class OneWayBranch:
    operation: str
    request_var: str
    body: list[Statement]
    offset: int | None = _offset_field()


Branch = Union[RequestResponseBranch, OneWayBranch]


@dataclass
class InputChoice:
    branches: list[Branch]
    offset: int | None = _offset_field()


@dataclass
class StatementSequence:
    statements: list[Statement]
    offset: int | None = _offset_field()


Behavior = Union[InputChoice, StatementSequence]


# ---------------------------------------------------------------------------
# Declarations


@dataclass
class FieldDecl:
    name: str
    cardinality: Cardinality
    type: TypeRef
    offset: int | None = _offset_field()


@dataclass
class TypeDecl:
    name: str
    root: BasicType = BasicType.VOID
    fields: list[FieldDecl] = field(default_factory=list)
    offset: int | None = _offset_field()


@dataclass
class RequestResponseOp:
    name: str
    request: TypeRef
    response: TypeRef
    offset: int | None = _offset_field()


@dataclass
class OneWayOp:
    name: str
    request: TypeRef
    offset: int | None = _offset_field()


@dataclass
class InterfaceDecl:
    name: str
    request_responses: list[RequestResponseOp] = field(default_factory=list)
    one_ways: list[OneWayOp] = field(default_factory=list)
    offset: int | None = _offset_field()

    def operations(self) -> list[RequestResponseOp | OneWayOp]:
        return [*self.request_responses, *self.one_ways]


@unique
class PortKind(Enum):
    INPUT = "inputPort"
    OUTPUT = "outputPort"


@dataclass
class PortDecl:
    kind: PortKind
    name: str
    location: Expr
    protocol_name: str
    protocol_params: list[tuple[str, Expr]]
    interfaces: list[str]
    interface_offsets: list[int] = field(default_factory=list, compare=False, repr=False)
    offset: int | None = _offset_field()

    def interface_offset(self, index: int) -> int | None:
        """The offset of the index-th interface name, or the port's own in a port built without them."""
        if index < len(self.interface_offsets):
            return self.interface_offsets[index]
        return self.offset


@unique
class ExecutionMode(Enum):
    CONCURRENT = "concurrent"
    SEQUENTIAL = "sequential"
    SINGLE = "single"


@dataclass
class ConfigParam:
    name: str
    type_name: str | None = None
    offset: int | None = _offset_field()


@dataclass
class ServiceDecl:
    name: str
    config: ConfigParam | None = None
    execution: ExecutionMode = ExecutionMode.SINGLE
    input_ports: list[PortDecl] = field(default_factory=list)
    output_ports: list[PortDecl] = field(default_factory=list)
    behavior: Behavior = field(default_factory=lambda: StatementSequence([]))
    offset: int | None = _offset_field()

    def ports(self) -> list[PortDecl]:
        return [*self.input_ports, *self.output_ports]

    @property
    def is_executable(self) -> bool:
        return isinstance(self.behavior, StatementSequence)


Declaration = Union[TypeDecl, InterfaceDecl, ServiceDecl]


@dataclass
class SourceProgram:
    declarations: list[Declaration]
    source_name: str = "program"
    # the line starts of the source its nodes' offsets point into: a slice
    # holds its monolith's; None for a program built without a source
    line_starts: list[int] | None = field(default=None, compare=False, repr=False)

    def position(self, offset: int | None) -> Pos | None:
        """The line and column of a node's offset, or None where there is none."""
        if offset is None or self.line_starts is None:
            return None
        return position(self.line_starts, offset)

    def of_kind(self, kind: type) -> list:
        return [d for d in self.declarations if isinstance(d, kind)]

    @property
    def services(self) -> list[ServiceDecl]:
        return self.of_kind(ServiceDecl)
