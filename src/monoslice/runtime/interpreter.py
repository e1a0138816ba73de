"""Code-generating interpreter for service behaviors.

compile_block turns a statement list into a Block once: one generated
Python function per statement, with the bodies of its ifs and whiles
written inline in it, at any depth up to _MAX_DEPTH. The interpreter's
dispatch is spent while the source is written, the first Futamura
projection done by hand for each statement shape (Futamura, "Partial
evaluation of computation process", 1971): inside a statement's
function, nested statements, path walks, variable and constant indices,
tests with {}, equality of two roots of one kind, and + - * of two ints
are inline bytecode. Everything else calls the helpers of this module:
mixed-kind equality, the other operators, index and kind faults, padding
and its undo, and the context's messages. So every fault has the name
and message it had before the shape was inlined. Program text is data:
identifiers and literals reach the generated code only as constants
bound to names the generator makes, never as source. So the source of a
statement depends on its shape alone (which of its paths are the same
included), and _BUILDERS keeps what one compile() made of it for every
statement of that shape. Each function
has a compile() of its own: the parser's transient memory grows with the
source it is given, and malloc keeps it per thread.

exec_statements runs a Block against an ExecutionContext, one
exec_statement per top-level statement. A statement nested deeper than
_MAX_DEPTH is a function of its own, which its block calls through
exec_statement, looked up in this module at each call, as an expression
nested that deep is spilled. A while tests its condition inline, leaves
with break, and reads ctx.aborted on each iteration. A condition that
can only be a bool (a comparison, a logical operator or a bool literal)
is tested without checking its kind.

A function locates each path once: it keeps a table of the reads
available, from each prefix of a path it located (a variable, then each
step's name and index, an index being a constant or a variable) to the
local that holds its sequence, node or root, and a later read of the
prefix takes that local (local common subexpression elimination: Cocke,
"Global common subexpression elimination", 1970). Only a store rooted at
a variable changes a node reachable from it, since no shared node is
changed in place, so a store rooted at v, an assignment or the message a
solicit or a receive binds, drops every entry that reads v, as its root
or in an index. Each branch of an if starts from the table as it was
before the if, and after it an entry stays only if neither branch
dropped it; a while drops before its condition every entry that reads a
variable the loop stores to, and what its body made is gone after it; a
statement written out of line drops all. (A spilled expression stores
nothing, so it drops nothing.)
Before a loop, each path it reads through a variable it never stores to
is located as far as its indices are constants, or its prefixes already
available, which cannot fault (loop-invariant code motion: Allen and
Cocke, "A Catalogue of Optimizing Transformations", 1971). The runtime
compiles each branch once per checked program, on first use.

A variable scope is itself a value tree whose children are the
variables. Reads of missing paths yield an empty tree without mutating
the scope; assignments create intermediate nodes on demand, and an
index past the end of a sequence extends it with empty nodes, up to
MAX_PAD of them: one further is the TypeMismatch fault.

Assignment semantics: a childless right-hand side sets the target
node's root and preserves its children; a tree-valued right-hand side
replaces the target subtree. Message bindings (receives, response
targets, branch request variables) always replace.

Reads borrow, stores share, writes copy the path. A path read yields
the scope node itself, and operators read roots in place. A tree read
from a path and stored, by an assignment or a tree-literal entry, is
marked shared (ValueTree.writable) and stored as it is, so two
variables may hold one node. No shared node is ever changed in place: a
write swaps each shared node on the path it writes along, the target
included, for its writable clone, so no write shows through another
variable, activation or service, and a store costs the length of its
path, not the size of its tree. The tree handed to solicit or
send_oneway may be a scope node: the runtime marks it shared before
anything else holds it. Messages that arrive (replies, receives,
requests) are stored as they are, marked shared when the runtime keeps
them too.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from typing import Callable, Iterator, NoReturn

from ..ast import (
    Assign,
    Binary,
    Expr,
    If,
    Literal,
    OneWaySend,
    Path,
    PathExpr,
    PathStep,
    Receive,
    SolicitResponse,
    Statement,
    TreeLiteral,
    Unary,
    While,
)
from ..records import record
from ..values import Basic, Long, ValueTree, integer_repr, kind_of

# the most empty nodes a store may add past the end of one sequence, so that one
# index taken from a message cannot allocate without bound
MAX_PAD = 65536


@record
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


def aborted_fault() -> FaultSignal:
    """The fault of an activation the runtime aborted at shutdown."""
    return fault("Aborted", "the system shut down before the activation ended")


class ExecutionContext:
    """What a behavior needs from its surroundings.

    The runtime system supplies a live implementation per activation;
    tests may substitute stubs. solicit and send_oneway may be passed a
    node of the scope itself: they must not change it, and may keep it or
    hand it on only once it is marked shared. A tree that solicit or
    receive returns becomes the scope's, to be changed in place unless it
    is marked shared, so one that anything else keeps must be marked.

    aborted is set by the runtime on an activation that outlived its
    shutdown deadline: a while loop reads it on each iteration, and ends
    the activation with the fault Aborted once it is true.
    """

    scope: ValueTree
    aborted = False

    def solicit(self, port: str, operation: str, request: ValueTree) -> ValueTree:
        raise NotImplementedError

    def send_oneway(self, port: str, operation: str, message: ValueTree) -> None:
        raise NotImplementedError

    def receive(self, operation: str) -> ValueTree:
        raise NotImplementedError

    def rebind(self, port: str, location_text: str) -> None:
        raise NotImplementedError


Step = Callable[[ExecutionContext], None]
Block = tuple[Step, ...]


def compile_block(
    statements: list[Statement], output_ports: frozenset[str] = frozenset(), name: str = "<behavior>"
) -> Block:
    """Compile a statement list once; assignments to output_ports rebind them.

    name is the file name of the generated code, as a traceback shows it.
    """
    return tuple(_statement(s, output_ports, name) for s in statements)


def compile_expr(expr: Expr) -> Callable[[ExecutionContext], ValueTree]:
    """Compile an expression to its tree: a path read borrows the scope node."""
    function = _Function(frozenset(), "<expression>", "Expr", "ctx")
    function.line("scope = ctx.scope")
    function.line(f"return {function.tree(expr)}")
    return function.close()


def exec_statements(block: Block, ctx: ExecutionContext) -> None:
    for statement in block:
        exec_statement(statement, ctx)


def exec_statement(statement: Step, ctx: ExecutionContext) -> None:
    statement(ctx)


# ---------------------------------------------------------------------------
# the generator

# the Python operator of each comparison, and of each arithmetic operator that
# takes two ints inline
_INLINE = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "+": "+", "-": "-", "*": "*"}
# the binary operators whose result is a bool, whatever their operands
_BOOLEAN = frozenset(["==", "!=", "<", "<=", ">", ">=", "&&", "||"])
# how deep a generated function's blocks may nest before a statement or an
# expression is written as a function of its own: Python refuses more than 20
# nested loops and try blocks
_MAX_DEPTH = 12
# (file name, source) -> the function that source defines, which takes the
# constants and returns the statement's function. The source names no program
# text, so every statement of one shape, in any program checked again, compiles once.
_BUILDERS: dict[tuple[str, str], Callable] = {}
_BUILDERS_LIMIT = 4096


def _statement(statement: Statement, ports: frozenset[str], filename: str) -> Step:
    function = _Function(ports, filename, type(statement).__name__, "ctx")
    function.line("scope = ctx.scope")
    function.statement(statement)
    return function.close()


class _Function:
    """One generated function, written line by line, and the constants it reads.

    The methods that write an expression return the name of a local or a
    constant that holds its value once the lines written so far have run.
    """

    def __init__(self, ports: frozenset[str], filename: str, name: str, params: str):
        self.ports = ports
        self.filename = filename
        self.name = name
        self.lines = [f"def {name}({params}):"]
        self.depth = 1
        self.constants: list[object] = []
        self._temps = 0
        # the available reads: each path prefix that the lines written so far located, and
        # that no store changed since, -> the local that holds it. (v,) is the variable v's
        # sequence, (v, i) the node at index i in it, (v, i, n) the sequence n under that
        # node, and so on; an index is an int constant or the name of the variable it
        # reads. A node's key followed by "$", which names no child, is its root.
        self.available: dict[tuple, str] = {}

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def const(self, value: object) -> str:
        """The name the generated code reads value by, one for each use."""
        self.constants.append(value)
        return f"k{len(self.constants) - 1}"

    @contextmanager
    def block(self, header: str) -> Iterator[None]:
        """Write a block: past it, a read stays available only if it was before and the block left it."""
        self.line(header)
        self.depth += 1
        start = len(self.lines)
        outer = self.available
        self.available = dict(outer)
        yield
        if len(self.lines) == start:
            self.line("pass")
        self.depth -= 1
        self.available = _kept(outer, self.available)

    def drop(self, variables: set[str]) -> None:
        """Forget each available read that reads one of variables, as its root or in an index."""
        self.available = {
            key: local
            for key, local in self.available.items()
            if key[0] not in variables and variables.isdisjoint(key[1::2])
        }

    def close(self) -> Callable:
        """Compile the function, with its constants bound, and return it."""
        lines = self.lines
        if self.constants:
            lines.insert(0, "".join(f"k{i}, " for i in range(len(self.constants))) + "= K")
        lines.append(f"return {self.name}")
        key = (self.filename, "def _build(K):\n    " + "\n    ".join(lines))
        build = _BUILDERS.get(key)
        if build is None:
            if len(_BUILDERS) >= _BUILDERS_LIMIT:
                _BUILDERS.clear()
            namespace: dict[str, Callable] = {}
            # this module's globals: the code calls its helpers and exec_statement by name
            exec(compile(key[1], self.filename, "exec"), globals(), namespace)
            build = _BUILDERS[key] = namespace["_build"]
        return build(tuple(self.constants))

    def spill(self, expr: Expr) -> str:
        """Write expr's root as a function of its own, so that the blocks here nest no deeper."""
        function = _Function(self.ports, self.filename, "Expr", "scope")
        function.line(f"return {function.root(expr)}")
        result = self.temp()
        self.line(f"{result} = {self.const(function.close())}(scope)")
        return result

    # -- statements ---------------------------------------------------------

    def statement(self, statement: Statement) -> None:
        if isinstance(statement, Assign):
            if statement.target.root in self.ports:
                # resolve-time checks guarantee the shape Port.location
                location = self.root(statement.value)
                self.line(f"ctx.rebind({self.const(statement.target.root)}, _location({location}))")
            else:
                self.store("scope", statement.target, statement.value)
        elif isinstance(statement, SolicitResponse):
            port, operation = self.const(statement.port), self.const(statement.operation)
            call = f"ctx.solicit({port}, {operation}, {self.tree(statement.argument)})"
            if statement.target is None:
                self.line(call)
            else:
                self.bind(statement.target, call)
        elif isinstance(statement, OneWaySend):
            port, operation = self.const(statement.port), self.const(statement.operation)
            self.line(f"ctx.send_oneway({port}, {operation}, {self.tree(statement.argument)})")
        elif isinstance(statement, Receive):
            self.bind(statement.target, f"ctx.receive({self.const(statement.operation)})")
        elif isinstance(statement, If):
            condition = self.root(statement.condition)
            before, test = self.available, _is_bool(statement.condition)
            with self.block(f"if {condition}:" if test else f"if {condition} is True:"):
                self.body(statement.then)
            then, self.available = self.available, before
            if not test:
                with self.block(f"elif {condition} is not False:"):
                    self.line(f'_not_a_bool({condition}, "if condition")')
            if statement.orelse:
                with self.block("else:"):
                    self.body(statement.orelse)
            self.available = _kept(then, self.available)
        elif isinstance(statement, While):
            # what the loop reads through variables it never stores to is the same on
            # every iteration: only a store rooted at a variable changes a node reachable
            # from it. So each such path is located once, before the loop, as far as that
            # cannot fault: to its root if its indices are all constants, else up to the
            # first index not yet available.
            reads: list[Path] = []
            stores: set[str] = set()
            _reads(statement, reads, stores)
            self.drop(stores)
            for path in reads:
                if path.root in stores:
                    continue
                if all(_fixed(step.index) is not None for step in path.steps):
                    self.read(path)
                else:
                    self.locate(path, hoist=True)
            with self.block("while True:"):
                condition = self.root(statement.condition)
                if _is_bool(statement.condition):
                    self.line(f"if not {condition}: break")
                else:
                    with self.block(f"if {condition} is not True:"):
                        self.line(f'if {condition} is not False: _not_a_bool({condition}, "while condition")')
                        self.line("break")
                # a plain attribute: this loop is the interpreter's hot path
                self.line("if ctx.aborted: raise aborted_fault()")
                self.body(statement.body)
        else:  # a Throw, the last kind of statement
            self.line(f"raise FaultSignal(Fault({self.const(statement.fault)}))")

    def body(self, statements: list[Statement]) -> None:
        """Write a block's statements inline, each past _MAX_DEPTH as a function of its own."""
        for statement in statements:
            if self.depth > _MAX_DEPTH:
                self.line(f"exec_statement({self.const(_statement(statement, self.ports, self.filename))}, ctx)")
                self.available = {}
            else:
                self.statement(statement)

    def bind(self, target: Path, call: str) -> None:
        """Store the message a call returns at target, replacing what is there."""
        message = self.temp()
        self.line(f"{message} = {call}")
        seq, index = self.slot("scope", target)
        self.line(f"{seq}[{index}] = {message}")

    # -- stores -------------------------------------------------------------

    def store(self, node: str, target: Path, value: Expr) -> None:
        """Assign an expression to a path under a node, sharing a borrowed tree."""
        if isinstance(value, (Literal, Unary, Binary)):  # always childless
            root = self.root(value)
            if not _is_variable(target):
                self.set_root(*self.slot(node, target), root)
                return
            name = self.const(target.root)
            # a childless value changes no sequence, so an available read of the variable
            # still holds its sequence
            seq = self.available.get((target.root,)) if node == "scope" else None
            if seq is None:
                seq = self.temp()
                self.line(f"{seq} = {node}.children.get({name})")
            self.line(f"if {seq} and not {seq}[0].shared: {seq}[0].root = {root}")
            self.line(f"else: _set_variable({node}, {name}, {root})")
            if node == "scope":
                self.drop({target.root})
            return
        tree = self.tree(value)
        # decide before the slot is made: making it may add children to a borrowed
        # node, unless the mark makes the slot clone it
        childless, root = self.temp(), self.temp()
        self.line(f"{childless} = not {tree}.children")
        if isinstance(value, PathExpr):
            self.line(f"if not {childless}: {tree}.shared = True")
        self.line(f"{root} = {tree}.root")
        seq, index = self.slot(node, target)
        with self.block(f"if {childless}:"):
            self.set_root(seq, index, root)
        self.line(f"else: {seq}[{index}] = {tree}")

    def set_root(self, seq: str, index: str, root: str) -> None:
        self.line(f"if {seq}[{index}].shared: {seq}[{index}] = {seq}[{index}].writable()")
        self.line(f"{seq}[{index}].root = {root}")

    def slot(self, node: str, path: Path) -> tuple[str, str]:
        """The sequence and index a path names under a node, created on demand.

        The node must not be shared; every shared node on the way down is
        swapped for its writable clone, so the sequence may be changed. A
        step that faults leaves the node as it was: _unpad cuts back the
        first sequence the walk padded, and every later pad lies below it.
        """
        *parents, last = path.steps
        seq = self.temp()
        # the walk starts from the variable's sequence if a local holds it, and its
        # indices may read what was available before it: up to its last step, it only
        # pads sequences with empty nodes, read as absent ones, and swaps nodes for clones
        first = self.available.get((path.root,), "") if node == "scope" else ""
        if not parents:
            index = self.pad(node, seq, last, first)
        elif all(index is not None and index <= MAX_PAD for index in (_fixed(step.index) for step in path.steps)):
            # no step can fault: each pads to a constant index at most MAX_PAD out
            index = self.descend(node, self.temp(), seq, parents, last, first, "")
        else:
            walk, undo = self.temp(), self.temp()
            self.line(f"{undo} = []")  # the first sequence padded, with its node and length before
            with self.block("try:"):
                index = self.descend(node, walk, seq, parents, last, first, f", {undo}")
            with self.block("except FaultSignal:"):
                self.line(f"_unpad({undo})")
                self.line("raise")
        if node == "scope":  # what was read through the variable may have changed
            self.drop({path.root})
        return seq, index

    def descend(
        self, node: str, walk: str, seq: str, parents: list[PathStep], last: PathStep, first: str, undo: str
    ) -> str:
        """Walk a slot's steps down from node, padding and cloning; returns the last index."""
        for step in parents:
            index, name = self.index(step.index), self.const(step.name)
            self.line(f"{seq} = {first or f'{node}.children.get({name})'}")
            self.line(f"if {seq} is None or len({seq}) <= {index}: {seq} = _pad({node}, {name}, {index}{undo})")
            self.line(f"{walk} = {seq}[{index}]")
            self.line(f"if {walk}.shared: {walk} = {seq}[{index}] = {walk}.writable()")
            node, first = walk, ""
        return self.pad(walk, seq, last, "")

    def pad(self, node: str, seq: str, step: PathStep, first: str) -> str:
        """A slot's last step: its sequence (first, if a local holds it), padded up to its index, which this returns."""
        index, name = self.index(step.index), self.const(step.name)
        self.line(f"{seq} = {first or f'{node}.children.get({name})'}")
        # _pad refuses before it changes the node
        self.line(f"if {seq} is None or len({seq}) <= {index}: {seq} = _pad({node}, {name}, {index})")
        return index

    # -- paths --------------------------------------------------------------

    def index(self, index: Expr | None) -> str:
        """A step's index: a constant, or a local checked where it is computed."""
        fixed = _fixed(index)
        if fixed is not None:
            return "0" if fixed == 0 else self.const(fixed)
        root = self.root(index)
        checked = self.temp()
        self.line(f"{checked} = {root} if type({root}) is int and {root} >= 0 else _checked_index({root})")
        return checked

    def locate(self, path: Path, hoist: bool = False) -> tuple[str, tuple | None]:
        """The local holding the scope node a path names, itself and not a copy, or None if absent, and its key.

        Each prefix is taken from the available reads if it is there, and is
        made available once located, unless a computed index that is no
        variable comes before it (the key is then None). An index is
        computed only once the steps before it were found, and before its
        own step is looked up, so its faults propagate; the root of a
        variable it reads is read before that test, which cannot fault, so
        it stays available. hoist stops at the first index it would have to
        compute, and then returns no node.
        """
        node = ""
        key: tuple | None = ()
        for step in path.steps:
            # the step's sequence
            if not node:
                key, seq = (step.name,), self.variable(step.name)
            else:
                key = None if key is None else key + (step.name,)
                seq = self.available.get(key)  # no read is kept under None
                if seq is None:
                    seq = self.temp()
                    self.line(f"{seq} = {node}.children.get({self.const(step.name)}) if {node} is not None else None")
                    if key is not None:
                        self.available[key] = seq
            # the node at the step's index in it
            fixed = _fixed(step.index)
            index = fixed if fixed is not None else _variable_index(step.index)
            key = None if key is None or index is None else key + (index,)
            found = self.available.get(key)
            if found is None and hoist and fixed is None:
                return "", None
            if found is None:
                found = self.temp()
                if fixed is not None or not node:
                    self.take(found, seq, self.index(step.index))
                else:
                    if index is not None:
                        self.read(step.index.path)
                    with self.block(f"if {node} is not None:"):
                        self.take(found, seq, self.index(step.index))
                    self.line(f"else: {found} = None")
                if key is not None:
                    self.available[key] = found
            node = found
        return node, key

    def read(self, path: Path) -> str:
        """The local that holds the root a path names, or None if it is absent."""
        if _is_variable(path):  # read from its sequence, with no node between
            key: tuple | None = (path.root, 0, "$")
            root = self.available.get(key)
            if root is None:
                seq = self.variable(path.root)
                root = self.available[key] = self.temp()
                self.line(f"{root} = {seq}[0].root if {seq} else None")
            return root
        node, key = self.locate(path)
        key = None if key is None else key + ("$",)
        root = self.available.get(key)
        if root is None:
            root = self.temp()
            self.line(f"{root} = None if {node} is None else {node}.root")
            if key is not None:
                self.available[key] = root
        return root

    def variable(self, name: str) -> str:
        """The local that holds a variable's sequence, or None if it is absent."""
        seq = self.available.get((name,))
        if seq is None:
            seq = self.available[(name,)] = self.temp()
            self.line(f"{seq} = scope.children.get({self.const(name)})")
        return seq

    def take(self, node: str, seq: str, index: str) -> None:
        if index == "0":  # a sequence is never empty
            self.line(f"{node} = {seq}[0] if {seq} else None")
        else:
            self.line(f"{node} = {seq}[{index}] if {seq} is not None and {index} < len({seq}) else None")

    # -- expressions --------------------------------------------------------

    def tree(self, expr: Expr) -> str:
        tree = self.temp()
        if isinstance(expr, PathExpr):
            node, _ = self.locate(expr.path)
            self.line(f"{tree} = ValueTree() if {node} is None else {node}")
        elif isinstance(expr, TreeLiteral):
            self.line(f"{tree} = ValueTree()")
            for key, value in expr.entries:
                self.store(tree, key, value)
        else:
            self.line(f"{tree} = ValueTree({self.root(expr)})")
        return tree

    def root(self, expr: Expr) -> str:
        """An expression's root value alone, building no tree where it can."""
        if isinstance(expr, Literal):
            return self.const(expr.value)
        if _is_nothing(expr):
            return "None"
        if self.depth > _MAX_DEPTH:  # every block opens while a root is written
            return self.spill(expr)
        if isinstance(expr, PathExpr):
            return self.read(expr.path)
        root = self.temp()
        if isinstance(expr, TreeLiteral):
            self.line(f"{root} = {self.tree(expr)}.root")
        elif isinstance(expr, Unary):
            operand = self.root(expr.operand)
            if expr.op == "!":
                what = repr("operand of '!'")
                self.line(f"if type({operand}) is not bool: _not_a_bool({operand}, {what})")
                self.line(f"{root} = not {operand}")
            else:
                self.line(f"{root} = _negate({operand})")
        elif expr.op in ("&&", "||"):
            what = repr(f"operand of '{expr.op}'")
            left = self.root(expr.left)
            self.line(f"if type({left}) is not bool: _not_a_bool({left}, {what})")
            self.line(f"{root} = {left}")
            # the right operand counts only when the left does not decide
            with self.block(f"if {left}:" if expr.op == "&&" else f"if not {left}:"):
                right = self.root(expr.right)
                self.line(f"if type({right}) is not bool: _not_a_bool({right}, {what})")
                self.line(f"{root} = {right}")
        else:
            self.binary(root, expr)
        return root

    def binary(self, result: str, expr: Binary) -> None:
        op = expr.op
        if op in ("==", "!=") and (_is_nothing(expr.left) or _is_nothing(expr.right)):  # a test for absence
            other = self.root(expr.right if _is_nothing(expr.left) else expr.left)
            self.line(f"{result} = {other} {'is' if op == '==' else 'is not'} None")
            return
        left, right = self.root(expr.left), self.root(expr.right)
        if op in ("==", "!="):
            same = f"type({left}) is type({right})"
            if op == "==":
                self.line(f"{result} = {left} == {right} if {same} else _equal_roots({left}, {right})")
            else:
                self.line(f"{result} = {left} != {right} if {same} else not _equal_roots({left}, {right})")
            return
        cold = f"{'_order' if op in _ORDER else '_arithmetic'}({op!r}, {left}, {right})"
        sides = ((expr.left, left), (expr.right, right))
        if op not in _INLINE or any(isinstance(e, Literal) and type(e.value) is not int for e, _ in sides):
            self.line(f"{result} = {cold}")
            return
        # a literal's kind is known now
        ints = " and ".join(f"type({name}) is int" for e, name in sides if not isinstance(e, Literal)) or "True"
        self.line(f"{result} = {left} {_INLINE[op]} {right} if {ints} else {cold}")


def _reads(node: Statement | Expr | Path, paths: list[Path], stores: set[str]) -> None:
    """Add to paths the paths node reads at any depth, in the order it reads them, and to stores the roots of its stores."""
    if isinstance(node, PathExpr):
        paths.append(node.path)
        _reads(node.path, paths, stores)
    elif isinstance(node, Path):
        for step in node.steps:
            if step.index is not None:
                _reads(step.index, paths, stores)
    elif isinstance(node, Unary):
        _reads(node.operand, paths, stores)
    elif isinstance(node, Binary):
        _reads(node.left, paths, stores)
        _reads(node.right, paths, stores)
    elif isinstance(node, TreeLiteral):
        for key, value in node.entries:
            _reads(key, paths, stores)
            _reads(value, paths, stores)
    elif isinstance(node, If):
        _reads(node.condition, paths, stores)
        for statement in node.then + node.orelse:
            _reads(statement, paths, stores)
    elif isinstance(node, While):
        _reads(node.condition, paths, stores)
        for statement in node.body:
            _reads(statement, paths, stores)
    elif isinstance(node, (Assign, SolicitResponse, OneWaySend)):
        _reads(node.value if isinstance(node, Assign) else node.argument, paths, stores)
    if isinstance(node, (Assign, SolicitResponse, Receive)) and node.target is not None:
        stores.add(node.target.root)
        _reads(node.target, paths, stores)


def _kept(before: dict[tuple, str], after: dict[tuple, str]) -> dict[tuple, str]:
    """The available reads of before that after still has."""
    return {key: local for key, local in before.items() if after.get(key) == local}


def _variable_index(index: Expr | None) -> str | None:
    """The variable a step's index reads, when the index is that variable alone."""
    if isinstance(index, PathExpr) and _is_variable(index.path):
        return index.path.root
    return None


def _is_variable(path: Path) -> bool:
    return len(path.steps) == 1 and path.steps[0].index is None


def _is_bool(expr: Expr) -> bool:
    """Whether expr's root is a bool whatever it reads: a comparison, a logical operator or a bool literal."""
    if isinstance(expr, Literal):
        return type(expr.value) is bool
    return isinstance(expr, Binary) and expr.op in _BOOLEAN or isinstance(expr, Unary) and expr.op == "!"


def _is_nothing(expr: Expr) -> bool:
    """Whether expr is {}, whose root is absent."""
    return isinstance(expr, TreeLiteral) and not expr.entries


def _fixed(index: Expr | None) -> int | None:
    """A step's index when it is known without running anything: absent, or a literal in range."""
    if index is None:
        return 0
    if isinstance(index, Literal) and type(index.value) in (int, Long) and index.value >= 0:
        return int(index.value)
    return None


# ---------------------------------------------------------------------------
# the helpers the generated code calls: faults, padding, and the cold operators


def _checked_index(root: Basic | None) -> int:
    if isinstance(root, bool) or not isinstance(root, int):
        raise fault("TypeMismatch", f"index must be an integer, found {kind_of(root)}")
    if root < 0:
        raise fault("TypeMismatch", f"index must be non-negative, found {integer_repr(root)}")
    return int(root)


def _pad(node: ValueTree, name: str, index: int, undo: list | None = None) -> list[ValueTree]:
    """The node's sequence name, extended with empty nodes up to index, at most MAX_PAD past its end.

    An empty undo list is given the node, the name and the sequence's length before.
    """
    seq = node.children.get(name, [])
    if index - len(seq) > MAX_PAD:  # refused before the scope changes
        raise fault("TypeMismatch", f"index {integer_repr(index)} is more than {MAX_PAD} past the end of its sequence")
    if undo is not None and not undo:
        undo.append((node, name, len(seq)))
    seq.extend([ValueTree() for _ in range(index + 1 - len(seq))])
    node.children[name] = seq
    return seq


def _unpad(undo: list[tuple[ValueTree, str, int]]) -> None:
    """Cut back the first sequence a faulted store padded, as _pad recorded it in undo."""
    if undo:
        padded, name, length = undo[0]
        if length:
            del padded.children[name][length:]
        else:  # a sequence the store made
            padded.children.pop(name)


def _set_variable(node: ValueTree, name: str, root: Basic | None) -> None:
    """Set the root of the variable name under node that is absent or shared."""
    seq = node.children.get(name)
    if not seq:
        node.children[name] = [ValueTree(root)]
    else:
        held = seq[0] = seq[0].writable()
        held.root = root


def _location(text: Basic | None) -> str:
    if not isinstance(text, str):
        raise fault("TypeMismatch", f"port location must be a string, found {kind_of(text)}")
    return text


def _numeric(value: Basic | None) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _not_a_bool(value: Basic | None, what: str) -> NoReturn:
    raise fault("TypeMismatch", f"{what} must be a bool, found {kind_of(value)}")


def _negate(root: Basic | None) -> Basic:
    if not _numeric(root):
        raise fault("TypeMismatch", f"cannot negate {kind_of(root)}")
    return Long(-int(root)) if isinstance(root, Long) else -root


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


def _order(op: str, a: Basic | None, b: Basic | None) -> bool:
    if not _numeric(a) or not _numeric(b):
        raise fault("TypeMismatch", f"cannot apply '{op}' to {kind_of(a)} and {kind_of(b)}")
    return _ORDER[op](a, b)


def _arithmetic(op: str, a: Basic | None, b: Basic | None) -> Basic:
    """a op b for + - * and /, with the checks the inline case of two ints needs not."""
    if not _numeric(a) or not _numeric(b):
        raise fault("TypeMismatch", f"cannot apply '{op}' to {kind_of(a)} and {kind_of(b)}")
    if op == "/" and b == 0:
        raise fault("DivisionByZero", "division by zero")
    result = _ARITHMETIC[op](a, b)
    if isinstance(result, float):
        return result
    if isinstance(a, Long) or isinstance(b, Long):
        return Long(result)
    return result
