"""Name resolution and value conformance checking.

resolve() validates a parsed program and produces a CheckedProgram, the
substrate for slicing and interpretation. Name and arity checking is
static; message shapes are enforced dynamically at port boundaries with
check_value(). An error takes the line and column of the node it names
from the program's offsets when it is made, so a program that resolves
builds no position.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, Mapping

from .ast import (
    Assign,
    BasicRef,
    BasicType,
    Binary,
    Cardinality,
    Expr,
    If,
    InlineTreeRef,
    InputChoice,
    InterfaceDecl,
    Literal,
    NamedRef,
    OneWaySend,
    Path,
    PathExpr,
    Pos,
    Receive,
    RequestResponseBranch,
    RequestResponseOp,
    ServiceDecl,
    SolicitResponse,
    SourceProgram,
    Statement,
    Throw,
    TreeLiteral,
    TypeDecl,
    TypeRef,
    Unary,
    While,
)
from .config import BadLocationSyntax, Location
from .errors import MonosliceError
from .records import field, record
from .values import Long, ValueTree, kind_of


class SemanticError(MonosliceError):
    def __init__(self, message: str, pos: Pos | None):
        self.pos = pos
        where = f"{pos}: " if pos else ""
        super().__init__(f"{where}{message}")


class UndefinedType(SemanticError):
    def __init__(self, name: str, pos: Pos | None):
        self.name = name
        super().__init__(f"undefined type '{name}'", pos)


class UndefinedInterface(SemanticError):
    def __init__(self, name: str, pos: Pos | None):
        self.name = name
        super().__init__(f"undefined interface '{name}'", pos)


class UnknownOperation(SemanticError):
    def __init__(self, operation: str, where: str, pos: Pos | None):
        self.operation = operation
        super().__init__(f"operation '{operation}' is not offered by {where}", pos)


class DuplicateDeclaration(SemanticError):
    def __init__(self, what: str, name: str, pos: Pos | None):
        self.name = name
        super().__init__(f"duplicate {what} '{name}'", pos)


class UnknownPort(SemanticError):
    def __init__(self, port: str, service: str, pos: Pos | None):
        self.port = port
        super().__init__(f"'{port}' is not an output port of service {service}", pos)


class BehaviorError(SemanticError):
    """Misuse of a port or config name inside a behavior."""


class BadLocationExpr(SemanticError):
    """A port location that is neither a well-formed string literal nor a config path."""

    def __init__(self, reason: str, pos: Pos | None):
        super().__init__(f"bad location: {reason}", pos)


class ResolveFailure(MonosliceError):
    """Raised by resolve() with the complete list of semantic errors."""

    def __init__(self, errors: list[SemanticError]):
        self.errors = errors
        super().__init__("; ".join(str(e) for e in errors))


@record(frozen=True)
class OpInfo:
    name: str
    kind: str  # "rr" or "ow"
    request: TypeRef
    response: TypeRef | None


@record
class CheckedProgram:
    """A resolved program. Immutable after construction, but for the runtime's cache in behaviors."""

    program: SourceProgram
    type_table: dict[str, TypeDecl]
    interface_table: dict[str, InterfaceDecl]
    service_table: dict[str, ServiceDecl]
    port_ops: dict[tuple[str, str], dict[str, OpInfo]]
    warnings: list[str] = field(default_factory=list)
    # each behavior the runtime compiled, by service and operation ("main" for
    # an executable's), so every system started from this program shares them
    behaviors: dict[tuple[str, str], object] = field(default_factory=dict, compare=False, repr=False)


def _operations_of(interface: InterfaceDecl) -> Iterator[OpInfo]:
    for op in interface.request_responses:
        yield OpInfo(op.name, "rr", op.request, op.response)
    for op in interface.one_ways:
        yield OpInfo(op.name, "ow", op.request, None)


class _Resolver:
    def __init__(self, program: SourceProgram):
        self.program = program
        # an error's position, from a node's offset
        self._pos = program.position
        self.errors: list[SemanticError] = []
        self.warnings: list[str] = []
        self.types: dict[str, TypeDecl] = {}
        self.interfaces: dict[str, InterfaceDecl] = {}
        self.services: dict[str, ServiceDecl] = {}
        self.port_ops: dict[tuple[str, str], dict[str, OpInfo]] = {}

    def run(self) -> CheckedProgram:
        self._collect_tables()
        for decl in self.types.values():
            self._check_type_decl(decl)
        for decl in self.interfaces.values():
            self._check_interface_decl(decl)
        for decl in self.services.values():
            self._check_service_decl(decl)
        if self.errors:
            raise ResolveFailure(self.errors)
        return CheckedProgram(
            self.program,
            self.types,
            self.interfaces,
            self.services,
            self.port_ops,
            self.warnings,
        )

    def _collect_tables(self) -> None:
        for decl in self.program.declarations:
            if isinstance(decl, TypeDecl):
                table, what = self.types, "type"
            elif isinstance(decl, InterfaceDecl):
                table, what = self.interfaces, "interface"
            else:
                table, what = self.services, "service"
            if decl.name in table:
                self.errors.append(DuplicateDeclaration(what, decl.name, self._pos(decl.offset)))
            else:
                table[decl.name] = decl

    def _check_type_ref(self, ref: TypeRef) -> None:
        if isinstance(ref, NamedRef) and ref.name not in self.types:
            self.errors.append(UndefinedType(ref.name, self._pos(ref.offset)))
        elif isinstance(ref, InlineTreeRef):
            self._check_fields(ref.fields, "inline type")

    def _check_fields(self, fields, owner: str) -> None:
        seen: set[str] = set()
        for f in fields:
            if f.name in seen:
                self.errors.append(
                    DuplicateDeclaration(f"field in {owner}", f.name, self._pos(f.offset))
                )
            seen.add(f.name)
            self._check_type_ref(f.type)

    def _check_type_decl(self, decl: TypeDecl) -> None:
        self._check_fields(decl.fields, f"type {decl.name}")

    def _check_interface_decl(self, decl: InterfaceDecl) -> None:
        seen: set[str] = set()
        for op in decl.operations():
            if op.name in seen:
                self.errors.append(
                    DuplicateDeclaration(
                        f"operation in interface {decl.name}", op.name, self._pos(op.offset)
                    )
                )
            seen.add(op.name)
            self._check_type_ref(op.request)
            if isinstance(op, RequestResponseOp):
                self._check_type_ref(op.response)

    def _check_service_decl(self, decl: ServiceDecl) -> None:
        if decl.config is not None:
            if decl.config.type_name is None:
                self.warnings.append(
                    f"service {decl.name}: config parameter '{decl.config.name}' is untyped "
                    "and treated as unconstrained"
                )
            elif decl.config.type_name not in self.types:
                self.warnings.append(
                    f"service {decl.name}: config type '{decl.config.type_name}' is not "
                    "declared; the parameter is treated as unconstrained"
                )
        port_names: set[str] = set()
        for port in decl.ports():
            if port.name in port_names:
                self.errors.append(
                    DuplicateDeclaration(
                        f"port in service {decl.name}", port.name, self._pos(port.offset)
                    )
                )
                continue
            port_names.add(port.name)
            self._check_location(decl, port.location)
            ops: dict[str, OpInfo] = {}
            for index, iface_name in enumerate(port.interfaces):
                iface = self.interfaces.get(iface_name)
                if iface is None:
                    at = self._pos(port.interface_offset(index))
                    self.errors.append(UndefinedInterface(iface_name, at))
                    continue
                for info in _operations_of(iface):
                    ops.setdefault(info.name, info)
            self.port_ops[(decl.name, port.name)] = ops
        self._check_behavior(decl)

    def _check_location(self, decl: ServiceDecl, location: Expr) -> None:
        """Report a location that is no well-formed string literal nor an index-free path from the config parameter."""
        if isinstance(location, Literal) and isinstance(location.value, str):
            try:
                Location.parse(location.value)
            except BadLocationSyntax as exc:
                reason = exc.reason
            else:
                return
        elif not isinstance(location, PathExpr):
            reason = "location must be a string literal or a config path"
        elif any(step.index is not None for step in location.path.steps):
            reason = "indices are not allowed in config paths"
        elif decl.config is None:
            reason = f"service {decl.name} has no config parameter, so a location must be a string literal"
        elif location.path.root != decl.config.name:
            reason = f"location path must be rooted at config parameter '{decl.config.name}'"
        else:
            return
        self.errors.append(BadLocationExpr(reason, self._pos(location.offset)))

    # -- behavior ----------------------------------------------------------

    def _check_behavior(self, decl: ServiceDecl) -> None:
        behavior = decl.behavior
        if isinstance(behavior, InputChoice):
            seen: set[str] = set()
            for branch in behavior.branches:
                if branch.operation in seen:
                    self.errors.append(
                        DuplicateDeclaration(
                            f"input branch in service {decl.name}",
                            branch.operation,
                            self._pos(branch.offset),
                        )
                    )
                seen.add(branch.operation)
                wanted = "rr" if isinstance(branch, RequestResponseBranch) else "ow"
                self._check_inbound_op(decl, branch.operation, wanted, branch.offset)
                _StatementChecker(self, decl, executable=False).walk(branch.body)
        else:
            _StatementChecker(self, decl, executable=True).walk(behavior.statements)

    def _inbound_info(self, decl: ServiceDecl, operation: str) -> OpInfo | None:
        for port in decl.input_ports:
            info = self.port_ops.get((decl.name, port.name), {}).get(operation)
            if info is not None:
                return info
        return None

    def _check_inbound_op(
        self, decl: ServiceDecl, operation: str, wanted: str, offset: int | None
    ) -> None:
        where = f"any input port of service {decl.name}"
        self._check_kind(self._inbound_info(decl, operation), wanted, operation, where, offset)

    def _check_kind(
        self, info: OpInfo | None, wanted: str, operation: str, where: str, offset: int | None
    ) -> None:
        """Report an operation that the ports where names do not offer as wanted ("rr" or "ow")."""
        if info is None or info.kind != wanted:
            kind_name = "request-response" if wanted == "rr" else "one-way"
            at = self._pos(offset)
            self.errors.append(UnknownOperation(operation, f"{where} as {kind_name}", at))


class _StatementChecker:
    """The checks of one behavior's statements against its service's ports and config.

    Methods of an object, not closures that call one another: such closures
    sit in a reference cycle that holds the resolver, and with it the whole
    program, until the cycle collector runs. The checker holds the
    resolver, and nothing holds the checker once its walk is done.
    """

    def __init__(self, resolver: _Resolver, decl: ServiceDecl, executable: bool):
        self.resolver = resolver
        self.decl = decl
        self.executable = executable
        self.port_names = {p.name for p in decl.ports()}
        self.output_names = {p.name for p in decl.output_ports}
        self.config_name = decl.config.name if decl.config else None

    def error(self, message: str, offset: int | None) -> None:
        self.resolver.errors.append(BehaviorError(message, self.resolver._pos(offset)))

    def check_indices(self, path: Path) -> None:
        for step in path.steps:
            if step.index is not None:
                self.check_expr(step.index)

    def check_expr(self, expr: Expr) -> None:
        if isinstance(expr, PathExpr):
            root = expr.path.root
            if root != self.config_name and root in self.port_names:
                self.error(f"port name '{root}' cannot be read as a variable", expr.path.offset)
            self.check_indices(expr.path)
        elif isinstance(expr, Unary):
            self.check_expr(expr.operand)
        elif isinstance(expr, Binary):
            self.check_expr(expr.left)
            self.check_expr(expr.right)
        elif isinstance(expr, TreeLiteral):
            for key, value in expr.entries:
                self.check_indices(key)
                self.check_expr(value)

    def check_write_path(self, path: Path, offset: int | None) -> None:
        root = path.root
        if root == self.config_name:
            self.error(f"config parameter '{root}' is read-only", offset)
            return
        if root in self.output_names:
            is_rebind = (
                len(path.steps) == 2
                and path.steps[1].name == "location"
                and path.steps[0].index is None
                and path.steps[1].index is None
            )
            if not is_rebind:
                self.error(f"only '{root}.location' may be assigned on output port '{root}'", offset)
            return
        if root in self.port_names:
            self.error(f"input port name '{root}' cannot be assigned", offset)
            return
        self.check_indices(path)

    def check_outbound(self, statement: SolicitResponse | OneWaySend, wanted: str) -> None:
        decl = self.decl
        if statement.port not in self.output_names:
            at = self.resolver._pos(statement.offset)
            self.resolver.errors.append(UnknownPort(statement.port, decl.name, at))
            return
        info = self.resolver.port_ops.get((decl.name, statement.port), {}).get(statement.operation)
        where = f"output port {statement.port}"
        self.resolver._check_kind(info, wanted, statement.operation, where, statement.offset)

    def walk(self, statements: list[Statement]) -> None:
        for statement in statements:
            if isinstance(statement, Assign):
                self.check_write_path(statement.target, statement.offset)
                self.check_expr(statement.value)
            elif isinstance(statement, SolicitResponse):
                self.check_outbound(statement, "rr")
                self.check_expr(statement.argument)
                if statement.target is not None:
                    self.check_write_path(statement.target, statement.offset)
            elif isinstance(statement, OneWaySend):
                self.check_outbound(statement, "ow")
                self.check_expr(statement.argument)
            elif isinstance(statement, Receive):
                if not self.executable:
                    self.error(
                        "inline receive is only valid in an executable service "
                        "(a main that is a statement sequence)",
                        statement.offset,
                    )
                self.resolver._check_inbound_op(self.decl, statement.operation, "ow", statement.offset)
                self.check_write_path(statement.target, statement.offset)
            elif isinstance(statement, If):
                self.check_expr(statement.condition)
                self.walk(statement.then)
                self.walk(statement.orelse)
            elif isinstance(statement, While):
                self.check_expr(statement.condition)
                self.walk(statement.body)
            elif isinstance(statement, Throw):
                pass


def resolve(program: SourceProgram) -> CheckedProgram:
    """Resolve every reference in a parsed program.

    Raises ResolveFailure carrying the complete error list; a program
    either yields a CheckedProgram or a non-empty error list, never both.
    """
    return _Resolver(program).run()


# ---------------------------------------------------------------------------
# value conformance


@record(frozen=True)
class Violation:
    path: str
    expected: str
    found: str

    def __str__(self) -> str:
        return f"at '{self.path}': expected {self.expected}, found {self.found}"


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def check_value(
    tree: ValueTree,
    type_: TypeRef | TypeDecl,
    types: Mapping[str, TypeDecl] | None = None,
) -> list[Violation]:
    """Check structural conformance of a tree against a type.

    Returns the full violation list (empty means conforming). Undeclared
    children are rejected; cardinality bounds and root kinds are checked
    at every level. Type cycles are safe because the walk follows the value.
    JSON carries no int/long distinction, so a long within 32 bits conforms
    where int is declared, and any long where double is.

    A conforming tree costs one walk of a predicate compiled once per
    (type, table) pair, each named type once per table; only a failing
    tree is walked again, without recursion, to name its violations, and
    so is one too deep for the predicate on the caller's stack, so the
    verdict never depends on how deep the caller is. The table must not
    change once a type was checked with it.

    The walk stops at a node whose admitted mark holds the very predicate
    it would run there, and a node that passes keeps that predicate in
    its mark, but only if the mark is already set: a port has admitted
    the node, so it can no longer change (ValueTree.admitted). A tree no
    port admitted is walked whole each time and keeps no verdict.
    """
    types = _NO_TYPES if types is None else types
    conforms = _conformance(type_, types)
    try:
        if conforms(tree):
            return []
    except RecursionError:
        pass
    violations: list[Violation] = []
    _check_ref(tree, type_, types, "", violations)
    return violations


def _shape(type_, types: Mapping[str, TypeDecl]) -> tuple[BasicType, list] | None:
    """The root kind and fields a type declares; None for a name the table lacks."""
    if isinstance(type_, TypeDecl):
        return type_.root, type_.fields
    if isinstance(type_, BasicRef):
        return type_.basic, []
    if isinstance(type_, InlineTreeRef):
        return BasicType.VOID, type_.fields
    decl = types.get(type_.name)  # a NamedRef, the last kind of type reference
    return None if decl is None else (decl.root, decl.fields)


def _check_ref(tree: ValueTree, type_, types, path: str, out: list[Violation]) -> None:
    """Append the violations of a tree in the order a depth-first walk meets them.

    At each node: its root, then each declared field in order (its
    cardinality, then its items' subtrees), then its undeclared children.
    The stack holds the subtrees still to walk, and the violations to name
    once the subtrees pushed above them are done.
    """
    pending: list = [(tree, type_, path)]
    while pending:
        item = pending.pop()
        if isinstance(item, Violation):
            out.append(item)
            continue
        tree, type_, path = item
        shape = _shape(type_, types)
        if shape is None:
            out.append(Violation(path or "<root>", f"known type '{type_.name}'", "unresolved type"))
            continue
        root, fields = shape
        if not _ROOT_TESTS[root](tree.root):
            out.append(Violation(path or "<root>", f"root of kind {root.value}", kind_of(tree.root)))
        later: list = []
        for f in fields:
            seq = tree.children.get(f.name, ())
            at = _join(path, f.name)
            least, most = _BOUNDS[f.cardinality]
            if not least <= len(seq) <= most:
                expected = f"{f.cardinality.describe()} {_ref_display(f.type)}"
                later.append(Violation(at, expected, f"{len(seq)} occurrence(s)"))
            later.extend((sub, f.type, f"{at}[{i}]" if len(seq) > 1 else at) for i, sub in enumerate(seq))
        declared = {f.name for f in fields}
        for name, seq in tree.children.items():
            if name not in declared:
                later.append(Violation(_join(path, name), "no such child", f"{len(seq)} occurrence(s)"))
        pending.extend(reversed(later))


def _ref_display(ref: TypeRef) -> str:
    if isinstance(ref, BasicRef):
        return ref.basic.value
    if isinstance(ref, NamedRef):
        return ref.name
    return "inline tree"


# ---------------------------------------------------------------------------
# compiled conformance: the same verdict as _check_ref, without the messages

_NO_TYPES: Mapping[str, TypeDecl] = {}

# the root kinds each basic type admits: int widens to long and double, and a
# long, which every integer crossing a port is, passes as an int within 32 bits
_ROOT_TESTS: dict[BasicType, Callable[[object], bool]] = {
    BasicType.ANY: lambda v: True,
    BasicType.VOID: lambda v: v is None,
    BasicType.BOOL: lambda v: isinstance(v, bool),
    BasicType.INT: lambda v: isinstance(v, int)
    and not isinstance(v, bool)
    and (not isinstance(v, Long) or -(2**31) <= v < 2**31),
    BasicType.LONG: lambda v: isinstance(v, int) and not isinstance(v, bool),
    BasicType.DOUBLE: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    BasicType.STRING: lambda v: isinstance(v, str),
}

# the (least, most) occurrences each cardinality accepts
_BOUNDS = {Cardinality.ONE: (1, 1), Cardinality.OPTIONAL: (0, 1), Cardinality.MANY: (0, float("inf"))}

# (id(type), id(table)) -> (type, table, predicate), and id(table) -> (table,
# {type name: predicate}), so a named type has one predicate per table, under
# whichever type it is met. An entry holds its type and table, so neither id
# can be reused by another object while it lives. Both are cleared together.
_PREDICATES: dict[tuple[int, int], tuple[object, object, Callable[[ValueTree], bool]]] = {}
_NAMED: dict[int, tuple[object, dict[str, Callable[[ValueTree], bool]]]] = {}
_PREDICATE_LIMIT = 1024
_COMPILING = threading.Lock()


def _conformance(type_, types: Mapping[str, TypeDecl]) -> Callable[[ValueTree], bool]:
    key = (id(type_), id(types))
    entry = _PREDICATES.get(key)
    if entry is None:
        with _COMPILING:  # one compile at a time, so a table's named predicates stay one each
            entry = _PREDICATES.get(key)
            if entry is None:
                if len(_PREDICATES) >= _PREDICATE_LIMIT:
                    _PREDICATES.clear()
                    _NAMED.clear()
                entry = _PREDICATES[key] = (type_, types, _compile_conformance(type_, types))
    return entry[2]


def _never(tree: ValueTree) -> bool:
    return False


def _compile_conformance(type_, types: Mapping[str, TypeDecl]) -> Callable[[ValueTree], bool]:
    compiled = _NAMED.setdefault(id(types), (types, {}))[1]
    named = dict(compiled)  # published only once the whole type has compiled
    # module functions, not nested closures that call one another: those would
    # form a reference cycle, left to the cycle collector after every compile
    predicate = _compile_ref(type_, types, named)
    compiled.update(named)
    return predicate


def _compile_ref(type_, types: Mapping[str, TypeDecl], named: dict) -> Callable[[ValueTree], bool]:
    if not isinstance(type_, NamedRef):
        return _compile_node(types, named, *_shape(type_, types))
    name = type_.name
    if name not in named:
        shape = _shape(type_, types)
        named[name] = _never if shape is None else _compile_node(types, named, *shape, name)
    return named[name]


def _compile_node(
    types: Mapping[str, TypeDecl], named: dict, root: BasicType, fields, name: str | None = None
) -> Callable[[ValueTree], bool]:
    root_ok = _ROOT_TESTS[root]
    declared = frozenset(f.name for f in fields)
    checks: list[tuple[str, int, float, Callable[[ValueTree], bool]]] = []

    def conforms(tree: ValueTree) -> bool:
        # only a node a port admitted, which never changes, keeps a verdict
        mark = tree.admitted
        if mark is conforms:
            return True
        if not root_ok(tree.root):
            return False
        children = tree.children
        if not declared.issuperset(children):
            return False
        for name, least, most, sub in checks:
            seq = children.get(name, ())
            if not least <= len(seq) <= most:
                return False
            for item in seq:
                if not sub(item):
                    return False
        if mark is not None:
            tree.admitted = conforms
        return True

    if name is not None:
        # named before its fields compile, so a recursive type calls itself
        # directly: one frame per level of the tree it checks
        named[name] = conforms
    checks.extend((f.name, *_BOUNDS[f.cardinality], _compile_ref(f.type, types, named)) for f in fields)
    return conforms
