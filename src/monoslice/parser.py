"""Recursive descent parser building syntax trees from token streams.

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
    Pos,
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
from .lexer import Token, TokenKind, tokenize
from .values import Long

_BASIC_NAMES = {t.value: t for t in BasicType}
_EXECUTION_MODES = {m.value: m for m in ExecutionMode}
# the binding of each operator token, 0 for every other kind of token
_BINDING = {kind: PRECEDENCE.get(kind.value, 0) for kind in TokenKind}
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
    def __init__(self, tokens: list[Token], source_name: str = "program"):
        if tokens:
            last = tokens[-1]
            eof = Token(TokenKind.EOF, "", last.line, last.column + len(last.lexeme))
        else:
            eof = Token(TokenKind.EOF, "", 1, 1)
        # The parser looks at most one token past the first EOF, so two EOFs
        # let peek and advance index the list without a bounds check.
        self.tokens = [*tokens, eof, eof]
        self.source_name = source_name
        self.pos = 0

    # ------------------------------------------------------------------
    # token plumbing

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def accept(self, kind: TokenKind) -> Token | None:
        """Take the next token if it is of this kind, which is never EOF."""
        token = self.tokens[self.pos]
        if token.kind is kind:
            self.pos += 1
            return token
        return None

    def error(self, expected: str, token: Token | None = None) -> ParseError:
        token = token or self.peek()
        return ParseError(token.line, token.column, expected, _describe(token))

    def expect(self, kind: TokenKind, expected: str | None = None) -> Token:
        token = self.peek()
        if token.kind is not kind:
            raise self.error(expected or f"'{kind.value}'")
        return self.advance()

    def at(self, kind: TokenKind) -> bool:
        return self.peek().kind is kind

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token.kind is TokenKind.KEYWORD and token.lexeme == word

    def at_lexeme(self, word: str) -> bool:
        token = self.peek()
        return token.kind is TokenKind.IDENT and token.lexeme == word

    def expect_ident(self, expected: str = "identifier") -> Token:
        return self.expect(TokenKind.IDENT, expected)

    def expect_name(self, keyword_ok: bool = False, expected: str = "identifier") -> Token:
        token = self.peek()
        if token.kind is TokenKind.IDENT:
            return self.advance()
        if keyword_ok and token.kind is TokenKind.KEYWORD:
            return self.advance()
        raise self.error(expected)

    def braced(self, item: Callable[[], _T]) -> list[_T]:
        """`{ item* }`: the items read up to the closing brace."""
        self.expect(TokenKind.LBRACE)
        items: list[_T] = []
        while not self.accept(TokenKind.RBRACE):
            items.append(item())
        return items

    def parenthesized(self, item: Callable[[], _T]) -> _T:
        """`( item )`"""
        self.expect(TokenKind.LPAREN)
        value = item()
        self.expect(TokenKind.RPAREN)
        return value

    def _once(self, seen: set[str], expected: str) -> Token:
        """Take a clause keyword, refusing it at its second occurrence in a block."""
        token = self.advance()
        if token.lexeme in seen:
            raise self.error(expected, token)
        seen.add(token.lexeme)
        return token

    def _entries(self, key: Callable[[], _T]) -> list[tuple[_T, Expr]]:
        """`{ key = expr [,] ... }`"""

        def entry() -> tuple[_T, Expr]:
            name = key()
            self.expect(TokenKind.ASSIGN)
            value = self.parse_expr()
            self.accept(TokenKind.COMMA)
            return name, value

        return self.braced(entry)

    @staticmethod
    def _pos(token: Token) -> Pos:
        return Pos(token.line, token.column)

    # ------------------------------------------------------------------
    # declarations

    def parse_program(self) -> SourceProgram:
        declarations: list[Declaration] = []
        while not self.at(TokenKind.EOF):
            if self.at_keyword("type"):
                declarations.append(self.parse_type_decl())
            elif self.at_keyword("interface"):
                declarations.append(self.parse_interface_decl())
            elif self.at_keyword("service"):
                declarations.append(self.parse_service_decl())
            else:
                raise self.error("a declaration (type, interface, or service)")
        return SourceProgram(declarations, self.source_name)

    def parse_type_decl(self) -> TypeDecl:
        start = self.advance()  # 'type', which parse_program saw
        name = self.expect_ident("type name")
        root = BasicType.VOID
        if self.accept(TokenKind.COLON):
            token = self.peek()
            if token.kind is not TokenKind.KEYWORD or token.lexeme not in _BASIC_NAMES:
                raise self.error("a basic type (void, bool, int, long, double, string, any)")
            root = _BASIC_NAMES[self.advance().lexeme]
        fields: list[FieldDecl] = []
        if self.at(TokenKind.LBRACE):
            fields = self.parse_field_block()
        return TypeDecl(name.lexeme, root, fields, pos=self._pos(start))

    def parse_field_block(self, inline: bool = False) -> list[FieldDecl]:
        return self.braced(lambda: self.parse_field_decl(inline))

    def parse_field_decl(self, inline: bool) -> FieldDecl:
        name = self.expect_name(keyword_ok=True, expected="field name")
        cardinality = Cardinality.ONE
        if self.accept(TokenKind.QUESTION):
            cardinality = Cardinality.OPTIONAL
        elif self.accept(TokenKind.STAR):
            cardinality = Cardinality.MANY
        self.expect(TokenKind.COLON)
        ref = self.parse_type_ref(inline_forbidden=inline)
        return FieldDecl(name.lexeme, cardinality, ref, pos=self._pos(name))

    def parse_type_ref(self, inline_forbidden: bool = False) -> TypeRef:
        token = self.peek()
        if token.kind is TokenKind.KEYWORD and token.lexeme in _BASIC_NAMES:
            self.advance()
            return BasicRef(_BASIC_NAMES[token.lexeme], pos=self._pos(token))
        if token.kind is TokenKind.IDENT:
            self.advance()
            return NamedRef(token.lexeme, pos=self._pos(token))
        if token.kind is TokenKind.LBRACE:
            if inline_forbidden:
                raise self.error("a basic or named type (inline trees do not nest)")
            fields = self.parse_field_block(inline=True)
            return InlineTreeRef(fields, pos=self._pos(token))
        raise self.error("a type reference")

    def parse_interface_decl(self) -> InterfaceDecl:
        start = self.advance()  # 'interface', which parse_program saw
        name = self.expect_ident("interface name")
        request_responses: list[RequestResponseOp] = []
        one_ways: list[OneWayOp] = []

        def section() -> None:
            with_response = self.at_keyword("RequestResponse")
            if not with_response and not self.at_keyword("OneWay"):
                raise self.error("'RequestResponse' or 'OneWay'")
            self.advance()
            self.expect(TokenKind.COLON)
            while True:
                op = self.expect_ident("operation name")
                request = self.parenthesized(self.parse_type_ref)
                if with_response:
                    response = self.parenthesized(self.parse_type_ref)
                    request_responses.append(
                        RequestResponseOp(op.lexeme, request, response, pos=self._pos(op))
                    )
                else:
                    one_ways.append(OneWayOp(op.lexeme, request, pos=self._pos(op)))
                if not self.accept(TokenKind.COMMA):
                    return

        self.braced(section)
        return InterfaceDecl(name.lexeme, request_responses, one_ways, pos=self._pos(start))

    def parse_service_decl(self) -> ServiceDecl:
        start = self.advance()  # 'service', which parse_program saw
        name = self.expect_ident("service name")
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
            elif self.at_keyword("execution"):
                self._once(seen, "at most one execution clause")
                self.expect(TokenKind.COLON)
                mode = self.peek()
                if mode.kind is not TokenKind.IDENT or mode.lexeme not in _EXECUTION_MODES:
                    raise self.error("an execution mode (concurrent, sequential, single)")
                self.advance()
                execution = _EXECUTION_MODES[mode.lexeme]
            elif self.at_keyword("inputPort"):
                input_ports.append(self.parse_port_decl(PortKind.INPUT))
            elif self.at_keyword("outputPort"):
                output_ports.append(self.parse_port_decl(PortKind.OUTPUT))
            elif self.at_keyword("main"):
                self._once(seen, "at most one main block")
                behavior = self.parse_behavior()
            else:
                raise self.error("'execution', 'inputPort', 'outputPort', or 'main'")

        self.braced(clause)
        return ServiceDecl(
            name.lexeme,
            config=config,
            execution=execution,
            input_ports=input_ports,
            output_ports=output_ports,
            behavior=behavior,
            pos=self._pos(start),
        )

    def _config_param(self) -> ConfigParam | None:
        if self.at(TokenKind.RPAREN):
            return None
        param = self.expect_ident("configuration parameter name")
        type_name: str | None = None
        if self.accept(TokenKind.COLON):
            type_name = self.expect_ident("configuration type name").lexeme
        return ConfigParam(param.lexeme, type_name, pos=self._pos(param))

    def parse_port_decl(self, kind: PortKind) -> PortDecl:
        start = self.advance()  # inputPort / outputPort keyword
        name = self.expect_ident("port name")
        seen: set[str] = set()
        location: Expr | None = None
        protocol: tuple[str, list[tuple[str, Expr]]] | None = None
        interfaces: list[Token] = []

        def protocol_parameter() -> str:
            return self.expect_name(keyword_ok=True, expected="protocol parameter name").lexeme

        def clause() -> None:
            nonlocal location, protocol
            if self.at_lexeme("location"):
                self._once(seen, "at most one location clause")
                self.expect(TokenKind.COLON)
                location = self.parse_expr()
            elif self.at_lexeme("protocol"):
                self._once(seen, "at most one protocol clause")
                self.expect(TokenKind.COLON)
                proto_name = self.expect_ident("protocol name").lexeme
                params = self._entries(protocol_parameter) if self.at(TokenKind.LBRACE) else []
                protocol = (proto_name, params)
            elif self.at_lexeme("interfaces"):
                self._once(seen, "at most one interfaces clause")
                self.expect(TokenKind.COLON)
                interfaces.append(self.expect_ident("interface name"))
                while self.accept(TokenKind.COMMA):
                    interfaces.append(self.expect_ident("interface name"))
            else:
                raise self.error("'location', 'protocol', or 'interfaces'")

        self.braced(clause)
        if location is None:
            raise self.error(f"a location clause in port {name.lexeme}", start)
        if protocol is None:
            raise self.error(f"a protocol clause in port {name.lexeme}", start)
        if not interfaces:
            raise self.error(f"an interfaces clause in port {name.lexeme}", start)
        return PortDecl(
            kind,
            name.lexeme,
            location,
            protocol[0],
            protocol[1],
            [token.lexeme for token in interfaces],
            interface_positions=[self._pos(token) for token in interfaces],
            pos=self._pos(start),
        )

    # ------------------------------------------------------------------
    # behaviors

    def parse_behavior(self) -> Behavior:
        pos = self._pos(self.peek())
        if self._behavior_is_choice():
            return InputChoice(self.braced(self.parse_branch), pos=pos)
        return StatementSequence(self.parse_block(), pos=pos)

    def _behavior_is_choice(self) -> bool:
        # Past the `{`, a branch looks like `op( v )( v ) {` or `op( v ) {`; a
        # statement starting `op(` is an inline receive, never followed by ( or {.
        if not (
            self.peek().kind is TokenKind.LBRACE
            and self.peek(1).kind is TokenKind.IDENT
            and self.peek(2).kind is TokenKind.LPAREN
        ):
            return False
        depth = 0
        i = self.pos + 2
        while True:
            token = self.tokens[i]
            if token.kind is TokenKind.EOF:
                return False
            if token.kind is TokenKind.LPAREN:
                depth += 1
            elif token.kind is TokenKind.RPAREN:
                depth -= 1
                if depth == 0:
                    break
            i += 1
        return self.tokens[i + 1].kind in (TokenKind.LPAREN, TokenKind.LBRACE)

    def parse_branch(self) -> Branch:
        name = self.expect_ident("operation name")
        request_var = self.parenthesized(lambda: self.expect_ident("request variable").lexeme)
        if self.at(TokenKind.LPAREN):
            response_var = self.parenthesized(lambda: self.expect_ident("response variable").lexeme)
            body = self.parse_block()
            return RequestResponseBranch(name.lexeme, request_var, response_var, body, pos=self._pos(name))
        body = self.parse_block()
        return OneWayBranch(name.lexeme, request_var, body, pos=self._pos(name))

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
        token = self.peek()
        if self.at_keyword("if"):
            self.advance()
            condition = self.parenthesized(self.parse_expr)
            then = self.parse_body()
            orelse: list[Statement] = []
            if self.at_keyword("else"):
                self.advance()
                orelse = self.parse_body()
            return If(condition, then, orelse, pos=self._pos(token))
        if self.at_keyword("while"):
            self.advance()
            condition = self.parenthesized(self.parse_expr)
            return While(condition, self.parse_body(), pos=self._pos(token))
        if self.at_keyword("throw"):
            self.advance()
            fault = self.parenthesized(lambda: self.expect_ident("fault name").lexeme)
            return Throw(fault, pos=self._pos(token))
        if token.kind is TokenKind.IDENT:
            after = self.peek(1)
            if after.kind is TokenKind.AT:
                return self.parse_invocation()
            if after.kind is TokenKind.LPAREN:
                self.advance()
                return Receive(token.lexeme, self.parenthesized(self.parse_path), pos=self._pos(token))
            target = self.parse_path()
            self.expect(TokenKind.ASSIGN)
            value = self.parse_expr()
            return Assign(target, value, pos=self._pos(token))
        raise self.error("a statement")

    def parse_invocation(self) -> Statement:
        name = self.expect_ident("operation name")
        self.expect(TokenKind.AT)
        port = self.expect_ident("port name").lexeme
        argument = self.parenthesized(self.parse_expr)
        if self.at(TokenKind.LPAREN):
            target = self.parenthesized(lambda: None if self.at(TokenKind.RPAREN) else self.parse_path())
            return SolicitResponse(name.lexeme, port, argument, target, pos=self._pos(name))
        return OneWaySend(name.lexeme, port, argument, pos=self._pos(name))

    # ------------------------------------------------------------------
    # expressions

    def parse_path(self, keyword_root: bool = False) -> Path:
        first = self.expect_name(keyword_ok=keyword_root, expected="a variable path")
        steps = [PathStep(first.lexeme, self._maybe_index())]
        while self.accept(TokenKind.DOT):
            name = self.expect_name(keyword_ok=True, expected="a path segment")
            steps.append(PathStep(name.lexeme, self._maybe_index()))
        return Path(steps, pos=self._pos(first))

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
        while (precedence := _BINDING[self.peek().kind]) >= least:
            token = self.advance()
            left = Binary(token.kind.value, left, self.parse_expr(precedence + 1), pos=self._pos(token))
        return left

    def _parse_unary(self) -> Expr:
        if token := self.accept(TokenKind.MINUS):
            operand = self._parse_unary()
            folded = _fold_negation(operand)
            if folded is not None:
                return folded
            return Unary("-", operand, pos=self._pos(token))
        if token := self.accept(TokenKind.BANG):
            return Unary("!", self._parse_unary(), pos=self._pos(token))
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind in (TokenKind.INT, TokenKind.LONG, TokenKind.DOUBLE, TokenKind.STRING):
            self.advance()
            return Literal(token.value, pos=self._pos(token))
        if token.kind is TokenKind.KEYWORD and token.lexeme in ("true", "false"):
            self.advance()
            return Literal(token.value, pos=self._pos(token))
        if token.kind is TokenKind.LPAREN:
            return self.parenthesized(self.parse_expr)
        if token.kind is TokenKind.LBRACE:
            return self.parse_tree_literal()
        if token.kind is TokenKind.IDENT:
            path = self.parse_path()
            return PathExpr(path, pos=path.pos)
        raise self.error("an expression")

    def parse_tree_literal(self) -> TreeLiteral:
        pos = self._pos(self.peek())
        return TreeLiteral(self._entries(lambda: self.parse_path(keyword_root=True)), pos=pos)


def _fold_negation(operand: Expr) -> Literal | None:
    if not isinstance(operand, Literal):
        return None
    value = operand.value
    if isinstance(value, bool) or isinstance(value, str):
        return None
    if isinstance(value, Long):
        return Literal(Long(-int(value)), pos=operand.pos)
    return Literal(-value, pos=operand.pos)


def parse_program(tokens: list[Token], source_name: str = "program") -> SourceProgram:
    """Parse a token stream into a program."""
    return Parser(tokens, source_name).parse_program()


def parse_source(source: str, source_name: str = "program") -> SourceProgram:
    """Tokenize and parse source text in one step."""
    return parse_program(tokenize(source), source_name)
