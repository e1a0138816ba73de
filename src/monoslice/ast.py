"""Syntax tree for the service-definition language.

Positions are carried for diagnostics but excluded from structural
equality, so a reparsed rendering compares equal to the original tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import NamedTuple, Union

from .values import Basic


class Pos(NamedTuple):
    """A 1-based line and column; a tuple, since one is built per syntax node."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def _pos_field():
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
    pos: Pos | None = _pos_field()


@dataclass
class NamedRef:
    name: str
    pos: Pos | None = _pos_field()


@dataclass
class InlineTreeRef:
    fields: list["FieldDecl"]
    pos: Pos | None = _pos_field()


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
    pos: Pos | None = _pos_field()

    @property
    def root(self) -> str:
        return self.steps[0].name


@dataclass
class Literal:
    value: Basic
    pos: Pos | None = _pos_field()

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
    pos: Pos | None = _pos_field()


@dataclass
class Unary:
    op: str  # "-" or "!"
    operand: "Expr"
    pos: Pos | None = _pos_field()


@dataclass
class Binary:
    op: str  # + - * / == != < <= > >= && ||
    left: "Expr"
    right: "Expr"
    pos: Pos | None = _pos_field()


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
    pos: Pos | None = _pos_field()


Expr = Union[Literal, PathExpr, Unary, Binary, TreeLiteral]


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Assign:
    """`path = expr`. Also covers output-port rebinding `Port.location = expr`."""

    target: Path
    value: Expr
    pos: Pos | None = _pos_field()


@dataclass
class SolicitResponse:
    """`op@Port( arg )( target )`; target may be omitted to discard the reply."""

    operation: str
    port: str
    argument: Expr
    target: Path | None
    pos: Pos | None = _pos_field()


@dataclass
class OneWaySend:
    """`op@Port( arg )`."""

    operation: str
    port: str
    argument: Expr
    pos: Pos | None = _pos_field()


@dataclass
class Receive:
    """Inline one-way receive `op( target )`, valid in executable services."""

    operation: str
    target: Path
    pos: Pos | None = _pos_field()


@dataclass
class If:
    condition: Expr
    then: list["Statement"]
    orelse: list["Statement"]
    pos: Pos | None = _pos_field()


@dataclass
class While:
    condition: Expr
    body: list["Statement"]
    pos: Pos | None = _pos_field()


@dataclass
class Throw:
    fault: str
    pos: Pos | None = _pos_field()


Statement = Union[Assign, SolicitResponse, OneWaySend, Receive, If, While, Throw]


# ---------------------------------------------------------------------------
# Behaviors


@dataclass
class RequestResponseBranch:
    operation: str
    request_var: str
    response_var: str
    body: list[Statement]
    pos: Pos | None = _pos_field()


@dataclass
class OneWayBranch:
    operation: str
    request_var: str
    body: list[Statement]
    pos: Pos | None = _pos_field()


Branch = Union[RequestResponseBranch, OneWayBranch]


@dataclass
class InputChoice:
    branches: list[Branch]
    pos: Pos | None = _pos_field()


@dataclass
class StatementSequence:
    statements: list[Statement]
    pos: Pos | None = _pos_field()


Behavior = Union[InputChoice, StatementSequence]


# ---------------------------------------------------------------------------
# Declarations


@dataclass
class FieldDecl:
    name: str
    cardinality: Cardinality
    type: TypeRef
    pos: Pos | None = _pos_field()


@dataclass
class TypeDecl:
    name: str
    root: BasicType = BasicType.VOID
    fields: list[FieldDecl] = field(default_factory=list)
    pos: Pos | None = _pos_field()


@dataclass
class RequestResponseOp:
    name: str
    request: TypeRef
    response: TypeRef
    pos: Pos | None = _pos_field()


@dataclass
class OneWayOp:
    name: str
    request: TypeRef
    pos: Pos | None = _pos_field()


@dataclass
class InterfaceDecl:
    name: str
    request_responses: list[RequestResponseOp] = field(default_factory=list)
    one_ways: list[OneWayOp] = field(default_factory=list)
    pos: Pos | None = _pos_field()

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
    interface_positions: list[Pos | None] = field(default_factory=list, compare=False, repr=False)
    pos: Pos | None = _pos_field()

    def interface_pos(self, index: int) -> Pos | None:
        if index < len(self.interface_positions):
            return self.interface_positions[index]
        return self.pos


@unique
class ExecutionMode(Enum):
    CONCURRENT = "concurrent"
    SEQUENTIAL = "sequential"
    SINGLE = "single"


@dataclass
class ConfigParam:
    name: str
    type_name: str | None = None
    pos: Pos | None = _pos_field()


@dataclass
class ServiceDecl:
    name: str
    config: ConfigParam | None = None
    execution: ExecutionMode = ExecutionMode.SINGLE
    input_ports: list[PortDecl] = field(default_factory=list)
    output_ports: list[PortDecl] = field(default_factory=list)
    behavior: Behavior = field(default_factory=lambda: StatementSequence([]))
    pos: Pos | None = _pos_field()

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

    def of_kind(self, kind: type) -> list:
        return [d for d in self.declarations if isinstance(d, kind)]

    @property
    def services(self) -> list[ServiceDecl]:
        return self.of_kind(ServiceDecl)
