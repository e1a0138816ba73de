"""Tokenizer for the service-definition language.

One compiled pattern, run by `finditer`, matches each token together with
the whitespace and comments after it, so its matches tile the source from
the first token to the end. Each token carries its start offset, not a
line and column: `position` (from `ast`, beside `Pos`) works those out,
from the source's table of line starts (`line_starts`) and a binary
search, only where a position is reported, in a `LexError` here and in
the parser's and resolver's errors.

Keywords, identifiers written in ASCII and punctuation take their kind
from one dict lookup. Numbers, strings, other words and every character
no token starts with go to one cold function each, which does the checks
and raises the `LexError`: an integer literal of more than 4300 digits
(`values.MAX_DIGITS`) is one, whatever the host's int-to-text limit. A
block comment ends at the next `*/`; one never closed is reported where
it opens. A string literal is decoded a character at a time only when
its body has a backslash; a string the pattern refuses takes the same
slow path, which reports its first error.
"""

from __future__ import annotations

import math
import re
from enum import Enum, unique
from typing import NamedTuple, NoReturn

from .ast import line_starts, position
from .errors import MonosliceError
from .values import Basic, Long, parse_integer


class LexError(MonosliceError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


@unique
class TokenKind(Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    INT = "int literal"
    LONG = "long literal"
    DOUBLE = "double literal"
    STRING = "string literal"
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COLON = ":"
    COMMA = ","
    DOT = "."
    ELLIPSIS = "..."
    AT = "@"
    ASSIGN = "="
    EQ = "=="
    NEQ = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    AND = "&&"
    OR = "||"
    BANG = "!"
    QUESTION = "?"
    EOF = "end of input"


# Reserved words. Everything else (location, protocol, interfaces, the
# execution modes, ...) is contextual and lexes as an identifier.
KEYWORDS = frozenset(
    {
        "type", "interface", "service",
        "inputPort", "outputPort", "execution", "main",
        "RequestResponse", "OneWay",
        "if", "else", "while", "throw",
        "true", "false",
        "void", "bool", "int", "long", "double", "string", "any",
    }
)


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    offset: int
    value: Basic | None = None


# the kind of every keyword and punctuation lexeme; any other plain word is an identifier
_KINDS = {
    **dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
    **{kind.value: kind for kind in TokenKind if not kind.value[0].isalpha()},
}
_WORD_VALUES = {"true": True, "false": False}
_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f"}
_HEX4 = re.compile(r"[0-9a-fA-F]{4}")

# whitespace, line comments and closed block comments
_SKIP = r"(?:[ \t\r\n]+|//[^\n]*|/\*[^*]*\*+(?:[^*/][^*]*\*+)*/)*"
# A token, then what is skipped after it. Group 1 is a plain token: an ASCII
# word or punctuation. The other groups go to _COLD by their number. Number
# literals are ASCII digits. A word starting outside ASCII starts with
# [^\W\d], which also admits characters like '²' that _word refuses. `.`
# takes every other character, an unclosed `/*` and a refused string
# included, so no character is passed over.
_TOKEN = re.compile(
    r"""
    (?: ( [A-Za-z_]\w* | \.\.\. | [=!<>]=? | && | \|\| | [{}()\[\]:,.@+\-*?] | /(?!\*) )
      | ( [0-9]+ (?: \.[0-9]+ (?:[eE][+-]?[0-9]+)? | [eE][+-]?[0-9]+ )? L? )
      | ( "(?:[^"\\\n]|\\[^\n])*" )
      | ( [^\W\d]\w* )
      | ( . )
    )"""
    + _SKIP,
    re.VERBOSE,
)
_LEADING = re.compile(_SKIP)
_new = tuple.__new__  # builds a Token without a Python-level __new__


def _error(source: str, offset: int, message: str) -> NoReturn:
    raise LexError(*position(line_starts(source), offset), message)


def _number(source: str, offset: int, text: str) -> Token:
    digits = text[:-1] if text[-1] == "L" else text
    if not digits.isdigit():
        if digits is not text:
            _error(source, offset, "long suffix on a non-integer literal")
        value = float(text)
        if not math.isfinite(value):  # rendered as `inf`, it would read back as a variable
            _error(source, offset, "double literal out of range")
        return Token(TokenKind.DOUBLE, text, offset, value)
    try:
        value = parse_integer(digits)
    except ValueError:  # more than MAX_DIGITS digits, whatever limit the process sets
        _error(source, offset, "integer literal has too many digits")
    if digits is text:
        return Token(TokenKind.INT, text, offset, value)
    return Token(TokenKind.LONG, text, offset, Long(value))


def _string(source: str, offset: int, text: str) -> Token:
    value = _decode_string(source, offset) if "\\" in text else text[1:-1]
    return Token(TokenKind.STRING, text, offset, value)


def _word(source: str, offset: int, text: str) -> Token:
    if not text[0].isalpha():
        _error(source, offset, f"illegal character {text[0]!r}")
    return Token(TokenKind.IDENT, text, offset)


def _other(source: str, offset: int, text: str) -> NoReturn:
    if text == '"':  # a string the pattern refused, so decoding it raises
        _decode_string(source, offset)
    if source.startswith("/*", offset):  # closed ones are skipped
        _error(source, offset, "unterminated block comment")
    _error(source, offset, f"illegal character {text!r}")


_COLD = (None, None, _number, _string, _word, _other)


def _decode_string(source: str, offset: int) -> str:
    """Decode the string literal that opens at source[offset].

    The slow path: it walks the body a character at a time and raises
    the first error, at the literal's position.
    """
    out: list[str] = []
    i = offset + 1
    while True:
        ch = source[i : i + 1]
        if ch in ("", "\n"):
            _error(source, offset, "unterminated string literal")
        i += 1
        if ch == '"':
            return "".join(out)
        if ch != "\\":
            out.append(ch)
            continue
        esc = source[i : i + 1]
        i += 1
        if not esc:
            _error(source, offset, "unterminated string literal")
        if esc in _ESCAPES:
            out.append(_ESCAPES[esc])
        elif esc == "u":
            if not _HEX4.match(source, i):
                _error(source, offset, "invalid \\u escape")
            code = int(source[i : i + 4], 16)
            if 0xD800 <= code <= 0xDFFF:  # not representable in UTF-8 text
                _error(source, offset, "surrogate \\u escape")
            out.append(chr(code))
            i += 4
        else:
            _error(source, offset, f"unknown escape \\{esc}")


def tokenize(source: str) -> list[Token]:
    """Tokenize source text. Comments and whitespace are dropped.

    Raises LexError with position on illegal characters, unterminated
    strings/comments, integer literals of more than 4300 digits
    (values.MAX_DIGITS), and double literals too large for a finite float.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = _new
    kinds, values, ident = _KINDS, _WORD_VALUES, TokenKind.IDENT
    for m in _TOKEN.finditer(source, _LEADING.match(source).end()):
        text = m[1]
        if text is None:
            group = m.lastindex
            append(_COLD[group](source, m.start(), m[group]))
        else:
            append(new(Token, (kinds.get(text, ident), text, m.start(), values.get(text))))
    return tokens
