"""Recursive descent parser building syntax trees from a source's tokens.

The parser reads the lexer's parallel lists of kinds, lexemes, offsets
and values by token index, so it builds no object per token: taking a
token returns its index, and a `Token` is built only to describe the one
a `ParseError` stands at. Each syntax node keeps the offset of the token
it starts at. The parser computes the source's table of line starts once
and hands it to the program it builds; it turns an offset into a line
and column (`position`) only for a `ParseError`. The end-of-input entry
sits just past the last token, so an error there is reported on that
token's line.

The first error aborts parsing; there is no recovery. Keywords double as
identifiers where that is unambiguous (path steps after a dot, field
names, tree-literal keys), so data can have fields like `type`.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .ast import (
    PRECEDENCE,
    Assign,
    BasicRef,
    BasicType,
    Behavior,
    Binary,
    Branch,
    Cardinality,
    ConfigParam,
    Declaration,
    Expr,
    ExecutionMode,
    FieldDecl,
    If,
    InlineTreeRef,
    InputChoice,
    InterfaceDecl,
    Literal,
    NamedRef,
    OneWayBranch,
    OneWayOp,
    OneWaySend,
    Path,
    PathExpr,
    PathStep,
    PortDecl,
    PortKind,
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
from .errors import MonosliceError
from .lexer import Token, TokenKind, Tokens, line_starts, position, tokenize
from .values import Long

_BASIC_NAMES = {t.value: t for t in BasicType}
_EXECUTION_MODES = {m.value: m for m in ExecutionMode}
_T = TypeVar("_T")


class ParseError(MonosliceError):
    def __init__(self, line: int, column: int, expected: str, found: str):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(f"{line}:{column}: expected {expected}, found {found}")


def _describe(token: Token) -> str:
    if token.kind is TokenKind.EOF:
        return "end of input"
    return f"'{token.lexeme}'"


class Parser:
    def __init__(self, tokens: Tokens, starts: list[int], source_name: str = "program"):
        # Every token is taken only once its kind is known not to be EOF, and
        # lookahead stops at the first EOF, so the one EOF entry ends the lists.
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.lexemes = tokens.lexemes
        self.offsets = tokens.offsets
        self.values = tokens.values
        self.starts = starts
        self.source_name = source_name
        self.pos = 0

    # ------------------------------------------------------------------
    # token plumbing: a token is its index into the lists

    def advance(self) -> int:
        """Take the next token, which the caller has seen is not EOF."""
        self.pos += 1
        return self.pos - 1

    def accept(self, kind: TokenKind) -> bool:
        """Take the next token if it is of this kind, which is never EOF."""
        if self.kinds[self.pos] is kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: TokenKind, expected: str | None = None) -> int:
        pos = self.pos
        if self.kinds[pos] is not kind:
            raise self.error(expected or f"'{kind.value}'")
        self.pos = pos + 1
        return pos

    def expect_name(self, expected: str, keyword_ok: bool = False) -> int:
        """An identifier, or with keyword_ok a keyword too."""
        pos = self.pos
        kind = self.kinds[pos]
        if kind is TokenKind.IDENT or keyword_ok and kind is TokenKind.KEYWORD:
            self.pos = pos + 1
            return pos
        raise self.error(expected)

    def name(self, expected: str, keyword_ok: bool = False) -> str:
        """The lexeme of expect_name's token."""
        return self.lexemes[self.expect_name(expected, keyword_ok)]

    def at(self, kind: TokenKind) -> bool:
        return self.kinds[self.pos] is kind

    def at_word(self, word: str) -> bool:
        """Whether the next token is this keyword or contextual word, the one token with that lexeme."""
        return self.lexemes[self.pos] == word

    def error(self, expected: str, index: int | None = None) -> ParseError:
        """The error at the token at index, the next one by default."""
        token = self.tokens[self.pos if index is None else index]
        return ParseError(*position(self.starts, token.offset), expected, _describe(token))

    def braced(self, item: Callable[[], _T]) -> list[_T]:
        """`{ item* }`: the items read up to the closing brace."""
        self.expect(TokenKind.LBRACE)
        items: list[_T] = []
        kinds = self.kinds
        while kinds[self.pos] is not TokenKind.RBRACE:  # an item raises at EOF
            items.append(item())
        self.pos += 1
        return items

    def parenthesized(self, item: Callable[[], _T]) -> _T:
        """`( item )`"""
        self.expect(TokenKind.LPAREN)
        value = item()
        self.expect(TokenKind.RPAREN)
        return value

    def _once(self, seen: set[str], expected: str) -> None:
        """Take a clause keyword, refusing it at its second occurrence in a block."""
        word = self.lexemes[self.pos]
        if word in seen:
            raise self.error(expected)
        seen.add(word)
        self.pos += 1

    def _entries(self, key: Callable[[], _T]) -> list[tuple[_T, Expr]]:
        """`{ key = expr [,] ... }`"""

        def entry() -> tuple[_T, Expr]:
            name = key()
            self.expect(TokenKind.ASSIGN)
            value = self.parse_expr()
            self.accept(TokenKind.COMMA)
            return name, value

        return self.braced(entry)

    # ------------------------------------------------------------------
    # declarations

    def parse_program(self) -> SourceProgram:
        declarations: list[Declaration] = []
        while not self.at(TokenKind.EOF):
            if self.at_word("type"):
                declarations.append(self.parse_type_decl())
            elif self.at_word("interface"):
                declarations.append(self.parse_interface_decl())
            elif self.at_word("service"):
                declarations.append(self.parse_service_decl())
            else:
                raise self.error("a declaration (type, interface, or service)")
        return SourceProgram(declarations, self.source_name, self.starts)

    def parse_type_decl(self) -> TypeDecl:
        offset = self.offsets[self.advance()]  # 'type', which parse_program saw
        name = self.name("type name")
        root = BasicType.VOID
        if self.accept(TokenKind.COLON):
            word = self.lexemes[self.pos]
            if self.kinds[self.pos] is not TokenKind.KEYWORD or word not in _BASIC_NAMES:
                raise self.error("a basic type (void, bool, int, long, double, string, any)")
            self.advance()
            root = _BASIC_NAMES[word]
        fields: list[FieldDecl] = []
        if self.at(TokenKind.LBRACE):
            fields = self.parse_field_block()
        return TypeDecl(name, root, fields, offset=offset)

    def parse_field_block(self, inline: bool = False) -> list[FieldDecl]:
        return self.braced(lambda: self.parse_field_decl(inline))

    def parse_field_decl(self, inline: bool) -> FieldDecl:
        name = self.expect_name("field name", keyword_ok=True)
        cardinality = Cardinality.ONE
        if self.accept(TokenKind.QUESTION):
            cardinality = Cardinality.OPTIONAL
        elif self.accept(TokenKind.STAR):
            cardinality = Cardinality.MANY
        self.expect(TokenKind.COLON)
        ref = self.parse_type_ref(inline_forbidden=inline)
        return FieldDecl(self.lexemes[name], cardinality, ref, offset=self.offsets[name])

    def parse_type_ref(self, inline_forbidden: bool = False) -> TypeRef:
        pos = self.pos
        kind, word, offset = self.kinds[pos], self.lexemes[pos], self.offsets[pos]
        if kind is TokenKind.KEYWORD and word in _BASIC_NAMES:
            self.advance()
            return BasicRef(_BASIC_NAMES[word], offset=offset)
        if kind is TokenKind.IDENT:
            self.advance()
            return NamedRef(word, offset=offset)
        if kind is TokenKind.LBRACE:
            if inline_forbidden:
                raise self.error("a basic or named type (inline trees do not nest)")
            fields = self.parse_field_block(inline=True)
            return InlineTreeRef(fields, offset=offset)
        raise self.error("a type reference")

    def parse_interface_decl(self) -> InterfaceDecl:
        offset = self.offsets[self.advance()]  # 'interface', which parse_program saw
        name = self.name("interface name")
        request_responses: list[RequestResponseOp] = []
        one_ways: list[OneWayOp] = []

        def section() -> None:
            with_response = self.at_word("RequestResponse")
            if not with_response and not self.at_word("OneWay"):
                raise self.error("'RequestResponse' or 'OneWay'")
            self.advance()
            self.expect(TokenKind.COLON)
            while True:
                op = self.expect_name("operation name")
                request = self.parenthesized(self.parse_type_ref)
                if with_response:
                    response = self.parenthesized(self.parse_type_ref)
                    request_responses.append(
                        RequestResponseOp(self.lexemes[op], request, response, offset=self.offsets[op])
                    )
                else:
                    one_ways.append(OneWayOp(self.lexemes[op], request, offset=self.offsets[op]))
                if not self.accept(TokenKind.COMMA):
                    return

        self.braced(section)
        return InterfaceDecl(name, request_responses, one_ways, offset=offset)

    def parse_service_decl(self) -> ServiceDecl:
        offset = self.offsets[self.advance()]  # 'service', which parse_program saw
        name = self.name("service name")
        config = self.parenthesized(self._config_param) if self.at(TokenKind.LPAREN) else None
        seen: set[str] = set()
        execution = ExecutionMode.SINGLE
        input_ports: list[PortDecl] = []
        output_ports: list[PortDecl] = []
        behavior: Behavior = StatementSequence([])

        def clause() -> None:
            nonlocal execution, behavior
            if self.accept(TokenKind.ELLIPSIS):
                pass  # elided body, as printed in skeleton listings
            elif self.at_word("execution"):
                self._once(seen, "at most one execution clause")
                self.expect(TokenKind.COLON)
                mode = self.lexemes[self.pos]
                if self.kinds[self.pos] is not TokenKind.IDENT or mode not in _EXECUTION_MODES:
                    raise self.error("an execution mode (concurrent, sequential, single)")
                self.advance()
                execution = _EXECUTION_MODES[mode]
            elif self.at_word("inputPort"):
                input_ports.append(self.parse_port_decl(PortKind.INPUT))
            elif self.at_word("outputPort"):
                output_ports.append(self.parse_port_decl(PortKind.OUTPUT))
            elif self.at_word("main"):
                self._once(seen, "at most one main block")
                behavior = self.parse_behavior()
            else:
                raise self.error("'execution', 'inputPort', 'outputPort', or 'main'")

        self.braced(clause)
        return ServiceDecl(
            name,
            config=config,
            execution=execution,
            input_ports=input_ports,
            output_ports=output_ports,
            behavior=behavior,
            offset=offset,
        )

    def _config_param(self) -> ConfigParam | None:
        if self.at(TokenKind.RPAREN):
            return None
        param = self.expect_name("configuration parameter name")
        type_name: str | None = None
        if self.accept(TokenKind.COLON):
            type_name = self.name("configuration type name")
        return ConfigParam(self.lexemes[param], type_name, offset=self.offsets[param])

    def parse_port_decl(self, kind: PortKind) -> PortDecl:
        start = self.advance()  # inputPort / outputPort keyword
        name = self.name("port name")
        seen: set[str] = set()
        location: Expr | None = None
        protocol: tuple[str, list[tuple[str, Expr]]] | None = None
        interfaces: list[int] = []

        def protocol_parameter() -> str:
            return self.name("protocol parameter name", keyword_ok=True)

        def clause() -> None:
            nonlocal location, protocol
            if self.at_word("location"):
                self._once(seen, "at most one location clause")
                self.expect(TokenKind.COLON)
                location = self.parse_expr()
            elif self.at_word("protocol"):
                self._once(seen, "at most one protocol clause")
                self.expect(TokenKind.COLON)
                proto_name = self.name("protocol name")
                params = self._entries(protocol_parameter) if self.at(TokenKind.LBRACE) else []
                protocol = (proto_name, params)
            elif self.at_word("interfaces"):
                self._once(seen, "at most one interfaces clause")
                self.expect(TokenKind.COLON)
                interfaces.append(self.expect_name("interface name"))
                while self.accept(TokenKind.COMMA):
                    interfaces.append(self.expect_name("interface name"))
            else:
                raise self.error("'location', 'protocol', or 'interfaces'")

        self.braced(clause)
        if location is None:
            raise self.error(f"a location clause in port {name}", start)
        if protocol is None:
            raise self.error(f"a protocol clause in port {name}", start)
        if not interfaces:
            raise self.error(f"an interfaces clause in port {name}", start)
        return PortDecl(
            kind,
            name,
            location,
            protocol[0],
            protocol[1],
            [self.lexemes[i] for i in interfaces],
            interface_offsets=[self.offsets[i] for i in interfaces],
            offset=self.offsets[start],
        )

    # ------------------------------------------------------------------
    # behaviors

    def parse_behavior(self) -> Behavior:
        offset = self.offsets[self.pos]
        if self._behavior_is_choice():
            return InputChoice(self.braced(self.parse_branch), offset=offset)
        return StatementSequence(self.parse_block(), offset=offset)

    def _behavior_is_choice(self) -> bool:
        # Past the `{`, a branch looks like `op( v )( v ) {` or `op( v ) {`; a
        # statement starting `op(` is an inline receive, never followed by ( or {.
        kinds = self.kinds
        i = self.pos
        if not (
            kinds[i] is TokenKind.LBRACE
            and kinds[i + 1] is TokenKind.IDENT
            and kinds[i + 2] is TokenKind.LPAREN
        ):
            return False
        depth = 0
        i += 2
        while True:
            kind = kinds[i]
            if kind is TokenKind.EOF:
                return False
            if kind is TokenKind.LPAREN:
                depth += 1
            elif kind is TokenKind.RPAREN:
                depth -= 1
                if depth == 0:
                    break
            i += 1
        return kinds[i + 1] in (TokenKind.LPAREN, TokenKind.LBRACE)

    def parse_branch(self) -> Branch:
        name = self.expect_name("operation name")
        operation, offset = self.lexemes[name], self.offsets[name]
        request_var = self.parenthesized(lambda: self.name("request variable"))
        if self.at(TokenKind.LPAREN):
            response_var = self.parenthesized(lambda: self.name("response variable"))
            body = self.parse_block()
            return RequestResponseBranch(operation, request_var, response_var, body, offset=offset)
        body = self.parse_block()
        return OneWayBranch(operation, request_var, body, offset=offset)

    # ------------------------------------------------------------------
    # statements

    def parse_block(self) -> list[Statement]:
        return self.braced(self.parse_statement)

    def parse_body(self) -> list[Statement]:
        """A braced block, or a single statement (as in the bare `if ... throw` idiom)."""
        if self.at(TokenKind.LBRACE):
            return self.parse_block()
        return [self.parse_statement()]

    def parse_statement(self) -> Statement:
        pos = self.pos
        word, offset = self.lexemes[pos], self.offsets[pos]
        if word == "if":
            self.advance()
            condition = self.parenthesized(self.parse_expr)
            then = self.parse_body()
            orelse: list[Statement] = []
            if self.at_word("else"):
                self.advance()
                orelse = self.parse_body()
            return If(condition, then, orelse, offset=offset)
        if word == "while":
            self.advance()
            condition = self.parenthesized(self.parse_expr)
            return While(condition, self.parse_body(), offset=offset)
        if word == "throw":
            self.advance()
            fault = self.parenthesized(lambda: self.name("fault name"))
            return Throw(fault, offset=offset)
        if self.kinds[pos] is TokenKind.IDENT:
            after = self.kinds[pos + 1]
            if after is TokenKind.AT:
                return self.parse_invocation()
            if after is TokenKind.LPAREN:
                self.advance()
                return Receive(word, self.parenthesized(self.parse_path), offset=offset)
            target = self.parse_path()
            self.expect(TokenKind.ASSIGN)
            value = self.parse_expr()
            return Assign(target, value, offset=offset)
        raise self.error("a statement")

    def parse_invocation(self) -> Statement:
        name = self.expect_name("operation name")
        operation, offset = self.lexemes[name], self.offsets[name]
        self.expect(TokenKind.AT)
        port = self.name("port name")
        argument = self.parenthesized(self.parse_expr)
        if self.at(TokenKind.LPAREN):
            target = self.parenthesized(lambda: None if self.at(TokenKind.RPAREN) else self.parse_path())
            return SolicitResponse(operation, port, argument, target, offset=offset)
        return OneWaySend(operation, port, argument, offset=offset)

    # ------------------------------------------------------------------
    # expressions

    def parse_path(self, keyword_root: bool = False) -> Path:
        first = self.expect_name("a variable path", keyword_ok=keyword_root)
        steps = [PathStep(self.lexemes[first], self._maybe_index())]
        while self.accept(TokenKind.DOT):
            name = self.name("a path segment", keyword_ok=True)
            steps.append(PathStep(name, self._maybe_index()))
        return Path(steps, offset=self.offsets[first])

    def _maybe_index(self) -> Expr | None:
        if not self.accept(TokenKind.LBRACKET):
            return None
        index = self.parse_expr()
        self.expect(TokenKind.RBRACKET)
        return index

    def parse_expr(self, least: int = 1) -> Expr:
        """An expression whose binary operators all bind at least as tightly as least.

        Precedence climbing: a right operand takes only operators binding
        tighter than its own, so each level nests to the left.
        """
        left = self._parse_unary()
        lexemes = self.lexemes
        # only an operator token has an operator as its lexeme
        while (precedence := PRECEDENCE.get(lexemes[self.pos], 0)) >= least:
            op = self.advance()
            left = Binary(lexemes[op], left, self.parse_expr(precedence + 1), offset=self.offsets[op])
        return left

    def _parse_unary(self) -> Expr:
        pos = self.pos
        kind = self.kinds[pos]
        if kind is TokenKind.MINUS:
            self.advance()
            operand = self._parse_unary()
            folded = _fold_negation(operand)
            if folded is not None:
                return folded
            return Unary("-", operand, offset=self.offsets[pos])
        if kind is TokenKind.BANG:
            self.advance()
            return Unary("!", self._parse_unary(), offset=self.offsets[pos])
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        pos = self.pos
        value = self.values[pos]
        if value is not None:  # a number, a string, true or false
            self.advance()
            return Literal(value, offset=self.offsets[pos])
        kind = self.kinds[pos]
        if kind is TokenKind.LPAREN:
            return self.parenthesized(self.parse_expr)
        if kind is TokenKind.LBRACE:
            return self.parse_tree_literal()
        if kind is TokenKind.IDENT:
            path = self.parse_path()
            return PathExpr(path, offset=path.offset)
        raise self.error("an expression")

    def parse_tree_literal(self) -> TreeLiteral:
        offset = self.offsets[self.pos]
        return TreeLiteral(self._entries(lambda: self.parse_path(keyword_root=True)), offset=offset)


def _fold_negation(operand: Expr) -> Literal | None:
    if not isinstance(operand, Literal):
        return None
    value = operand.value
    if isinstance(value, bool) or isinstance(value, str):
        return None
    if isinstance(value, Long):
        return Literal(Long(-int(value)), offset=operand.offset)
    return Literal(-value, offset=operand.offset)


def parse_source(source: str, source_name: str = "program") -> SourceProgram:
    """Tokenize and parse source text in one step.

    Nesting deeper than Python's stack allows is a ParseError at the token
    where parsing stood.
    """
    parser = Parser(tokenize(source), line_starts(source), source_name)
    try:
        return parser.parse_program()
    except RecursionError:
        raise parser.error("code nested less deeply") from None
