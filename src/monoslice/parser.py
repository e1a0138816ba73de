"""Recursive descent parser building syntax trees from token streams.

The first error aborts parsing; there is no recovery. Keywords double as
identifiers where that is unambiguous (path steps after a dot, field
names, tree-literal keys), so data can have fields like `type`.
"""

from __future__ import annotations

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

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.error(f"'{word}'")
        return self.advance()

    def expect_ident(self, expected: str = "identifier") -> Token:
        return self.expect(TokenKind.IDENT, expected)

    def expect_name(self, keyword_ok: bool = False, expected: str = "identifier") -> Token:
        token = self.peek()
        if token.kind is TokenKind.IDENT:
            return self.advance()
        if keyword_ok and token.kind is TokenKind.KEYWORD:
            return self.advance()
        raise self.error(expected)

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
        start = self.expect_keyword("type")
        name = self.expect_ident("type name")
        root = BasicType.VOID
        if self.at(TokenKind.COLON):
            self.advance()
            token = self.peek()
            if token.kind is not TokenKind.KEYWORD or token.lexeme not in _BASIC_NAMES:
                raise self.error("a basic type (void, bool, int, long, double, string, any)")
            root = _BASIC_NAMES[self.advance().lexeme]
        fields: list[FieldDecl] = []
        if self.at(TokenKind.LBRACE):
            fields = self.parse_field_block()
        return TypeDecl(name.lexeme, root, fields, pos=self._pos(start))

    def parse_field_block(self, inline: bool = False) -> list[FieldDecl]:
        self.expect(TokenKind.LBRACE)
        fields: list[FieldDecl] = []
        while not self.at(TokenKind.RBRACE):
            fields.append(self.parse_field_decl(inline))
        self.expect(TokenKind.RBRACE)
        return fields

    def parse_field_decl(self, inline: bool) -> FieldDecl:
        name = self.expect_name(keyword_ok=True, expected="field name")
        cardinality = Cardinality.ONE
        if self.at(TokenKind.QUESTION):
            self.advance()
            cardinality = Cardinality.OPTIONAL
        elif self.at(TokenKind.STAR):
            self.advance()
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
        start = self.expect_keyword("interface")
        name = self.expect_ident("interface name")
        self.expect(TokenKind.LBRACE)
        request_responses: list[RequestResponseOp] = []
        one_ways: list[OneWayOp] = []
        while not self.at(TokenKind.RBRACE):
            if self.at_keyword("RequestResponse"):
                self.advance()
                self.expect(TokenKind.COLON)
                self._parse_operation_list(request_responses, with_response=True)
            elif self.at_keyword("OneWay"):
                self.advance()
                self.expect(TokenKind.COLON)
                self._parse_operation_list(one_ways, with_response=False)
            else:
                raise self.error("'RequestResponse' or 'OneWay'")
        self.expect(TokenKind.RBRACE)
        return InterfaceDecl(name.lexeme, request_responses, one_ways, pos=self._pos(start))

    def _parse_operation_list(self, into: list, with_response: bool) -> None:
        while True:
            name = self.expect_ident("operation name")
            self.expect(TokenKind.LPAREN)
            request = self.parse_type_ref()
            self.expect(TokenKind.RPAREN)
            if with_response:
                self.expect(TokenKind.LPAREN)
                response = self.parse_type_ref()
                self.expect(TokenKind.RPAREN)
                into.append(RequestResponseOp(name.lexeme, request, response, pos=self._pos(name)))
            else:
                into.append(OneWayOp(name.lexeme, request, pos=self._pos(name)))
            if self.at(TokenKind.COMMA):
                self.advance()
            else:
                return

    def parse_service_decl(self) -> ServiceDecl:
        start = self.expect_keyword("service")
        name = self.expect_ident("service name")
        config: ConfigParam | None = None
        if self.at(TokenKind.LPAREN):
            self.advance()
            if not self.at(TokenKind.RPAREN):
                param = self.expect_ident("configuration parameter name")
                type_name: str | None = None
                if self.at(TokenKind.COLON):
                    self.advance()
                    type_name = self.expect_ident("configuration type name").lexeme
                config = ConfigParam(param.lexeme, type_name, pos=self._pos(param))
            self.expect(TokenKind.RPAREN)
        self.expect(TokenKind.LBRACE)

        execution: ExecutionMode | None = None
        input_ports: list[PortDecl] = []
        output_ports: list[PortDecl] = []
        behavior: Behavior | None = None
        while not self.at(TokenKind.RBRACE):
            if self.at(TokenKind.ELLIPSIS):
                self.advance()  # elided body, as printed in skeleton listings
            elif self.at_keyword("execution"):
                token = self.advance()
                if execution is not None:
                    raise self.error("at most one execution clause", token)
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
                token = self.advance()
                if behavior is not None:
                    raise self.error("at most one main block", token)
                behavior = self.parse_behavior()
            else:
                raise self.error("'execution', 'inputPort', 'outputPort', or 'main'")
        self.expect(TokenKind.RBRACE)
        return ServiceDecl(
            name.lexeme,
            config=config,
            execution=execution or ExecutionMode.SINGLE,
            input_ports=input_ports,
            output_ports=output_ports,
            behavior=behavior if behavior is not None else StatementSequence([]),
            pos=self._pos(start),
        )

    def parse_port_decl(self, kind: PortKind) -> PortDecl:
        start = self.advance()  # inputPort / outputPort keyword
        name = self.expect_ident("port name")
        self.expect(TokenKind.LBRACE)
        location: Expr | None = None
        protocol: tuple[str, list[tuple[str, Expr]]] | None = None
        interfaces: list[str] = []
        interface_positions: list[Pos | None] = []
        while not self.at(TokenKind.RBRACE):
            if self.at_lexeme("location"):
                token = self.advance()
                if location is not None:
                    raise self.error("at most one location clause", token)
                self.expect(TokenKind.COLON)
                location = self.parse_expr()
            elif self.at_lexeme("protocol"):
                token = self.advance()
                if protocol is not None:
                    raise self.error("at most one protocol clause", token)
                self.expect(TokenKind.COLON)
                proto_name = self.expect_ident("protocol name").lexeme
                params: list[tuple[str, Expr]] = []
                if self.at(TokenKind.LBRACE):
                    self.advance()
                    while not self.at(TokenKind.RBRACE):
                        pname = self.expect_name(keyword_ok=True, expected="protocol parameter name")
                        self.expect(TokenKind.ASSIGN)
                        params.append((pname.lexeme, self.parse_expr()))
                        if self.at(TokenKind.COMMA):
                            self.advance()
                    self.expect(TokenKind.RBRACE)
                protocol = (proto_name, params)
            elif self.at_lexeme("interfaces"):
                token = self.advance()
                if interfaces:
                    raise self.error("at most one interfaces clause", token)
                self.expect(TokenKind.COLON)
                first = self.expect_ident("interface name")
                interfaces.append(first.lexeme)
                interface_positions = [self._pos(first)]
                while self.at(TokenKind.COMMA):
                    self.advance()
                    nth = self.expect_ident("interface name")
                    interfaces.append(nth.lexeme)
                    interface_positions.append(self._pos(nth))
            else:
                raise self.error("'location', 'protocol', or 'interfaces'")
        self.expect(TokenKind.RBRACE)
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
            interfaces,
            interface_positions=interface_positions,
            pos=self._pos(start),
        )

    # ------------------------------------------------------------------
    # behaviors

    def parse_behavior(self) -> Behavior:
        brace = self.expect(TokenKind.LBRACE)
        pos = self._pos(brace)
        if self._behavior_is_choice():
            branches: list[Branch] = []
            while not self.at(TokenKind.RBRACE):
                branches.append(self.parse_branch())
            self.expect(TokenKind.RBRACE)
            return InputChoice(branches, pos=pos)
        statements: list[Statement] = []
        while not self.at(TokenKind.RBRACE):
            statements.append(self.parse_statement())
        self.expect(TokenKind.RBRACE)
        return StatementSequence(statements, pos=pos)

    def _behavior_is_choice(self) -> bool:
        # A branch looks like `op( v )( v ) {` or `op( v ) {`; a statement
        # starting `op(` is an inline receive, never followed by ( or {.
        if self.peek().kind is not TokenKind.IDENT or self.peek(1).kind is not TokenKind.LPAREN:
            return False
        depth = 0
        i = self.pos + 1
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
        self.expect(TokenKind.LPAREN)
        request_var = self.expect_ident("request variable").lexeme
        self.expect(TokenKind.RPAREN)
        if self.at(TokenKind.LPAREN):
            self.advance()
            response_var = self.expect_ident("response variable").lexeme
            self.expect(TokenKind.RPAREN)
            body = self.parse_block()
            return RequestResponseBranch(name.lexeme, request_var, response_var, body, pos=self._pos(name))
        body = self.parse_block()
        return OneWayBranch(name.lexeme, request_var, body, pos=self._pos(name))

    # ------------------------------------------------------------------
    # statements

    def parse_block(self) -> list[Statement]:
        self.expect(TokenKind.LBRACE)
        statements: list[Statement] = []
        while not self.at(TokenKind.RBRACE):
            statements.append(self.parse_statement())
        self.expect(TokenKind.RBRACE)
        return statements

    def parse_body(self) -> list[Statement]:
        """A braced block, or a single statement (as in the bare `if ... throw` idiom)."""
        if self.at(TokenKind.LBRACE):
            return self.parse_block()
        return [self.parse_statement()]

    def parse_statement(self) -> Statement:
        token = self.peek()
        if self.at_keyword("if"):
            self.advance()
            self.expect(TokenKind.LPAREN)
            condition = self.parse_expr()
            self.expect(TokenKind.RPAREN)
            then = self.parse_body()
            orelse: list[Statement] = []
            if self.at_keyword("else"):
                self.advance()
                orelse = self.parse_body()
            return If(condition, then, orelse, pos=self._pos(token))
        if self.at_keyword("while"):
            self.advance()
            self.expect(TokenKind.LPAREN)
            condition = self.parse_expr()
            self.expect(TokenKind.RPAREN)
            body = self.parse_body()
            return While(condition, body, pos=self._pos(token))
        if self.at_keyword("throw"):
            self.advance()
            self.expect(TokenKind.LPAREN)
            fault = self.expect_ident("fault name").lexeme
            self.expect(TokenKind.RPAREN)
            return Throw(fault, pos=self._pos(token))
        if token.kind is TokenKind.IDENT:
            after = self.peek(1)
            if after.kind is TokenKind.AT:
                return self.parse_invocation()
            if after.kind is TokenKind.LPAREN:
                self.advance()
                self.advance()
                target = self.parse_path()
                self.expect(TokenKind.RPAREN)
                return Receive(token.lexeme, target, pos=self._pos(token))
            target = self.parse_path()
            self.expect(TokenKind.ASSIGN)
            value = self.parse_expr()
            return Assign(target, value, pos=self._pos(token))
        raise self.error("a statement")

    def parse_invocation(self) -> Statement:
        name = self.expect_ident("operation name")
        self.expect(TokenKind.AT)
        port = self.expect_ident("port name").lexeme
        self.expect(TokenKind.LPAREN)
        argument = self.parse_expr()
        self.expect(TokenKind.RPAREN)
        if self.at(TokenKind.LPAREN):
            self.advance()
            target: Path | None = None
            if not self.at(TokenKind.RPAREN):
                target = self.parse_path()
            self.expect(TokenKind.RPAREN)
            return SolicitResponse(name.lexeme, port, argument, target, pos=self._pos(name))
        return OneWaySend(name.lexeme, port, argument, pos=self._pos(name))

    # ------------------------------------------------------------------
    # expressions

    def parse_path(self, keyword_root: bool = False) -> Path:
        first = self.expect_name(keyword_ok=keyword_root, expected="a variable path")
        steps = [PathStep(first.lexeme, self._maybe_index())]
        while self.at(TokenKind.DOT):
            self.advance()
            name = self.expect_name(keyword_ok=True, expected="a path segment")
            steps.append(PathStep(name.lexeme, self._maybe_index()))
        return Path(steps, pos=self._pos(first))

    def _maybe_index(self) -> Expr | None:
        if not self.at(TokenKind.LBRACKET):
            return None
        self.advance()
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
        if self.at(TokenKind.MINUS):
            token = self.advance()
            operand = self._parse_unary()
            folded = _fold_negation(operand)
            if folded is not None:
                return folded
            return Unary("-", operand, pos=self._pos(token))
        if self.at(TokenKind.BANG):
            token = self.advance()
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
            self.advance()
            expr = self.parse_expr()
            self.expect(TokenKind.RPAREN)
            return expr
        if token.kind is TokenKind.LBRACE:
            return self.parse_tree_literal()
        if token.kind is TokenKind.IDENT:
            path = self.parse_path()
            return PathExpr(path, pos=path.pos)
        raise self.error("an expression")

    def parse_tree_literal(self) -> TreeLiteral:
        brace = self.expect(TokenKind.LBRACE)
        entries: list[tuple[Path, Expr]] = []
        while not self.at(TokenKind.RBRACE):
            path = self.parse_path(keyword_root=True)
            self.expect(TokenKind.ASSIGN)
            entries.append((path, self.parse_expr()))
            if self.at(TokenKind.COMMA):
                self.advance()
        self.expect(TokenKind.RBRACE)
        return TreeLiteral(entries, pos=self._pos(brace))


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
