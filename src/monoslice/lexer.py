"""Tokenizer for the service-definition language.

One compiled pattern, run by `finditer`, matches each token together with
the whitespace and comments after it, so its matches tile the source from
the first token to the end. `tokenize` returns a `Tokens`: four parallel
lists (each token's kind, lexeme, start offset and value) with an
end-of-input entry at the end of each. So tokenizing builds no tuple
per token, and a parse's tokens set off no garbage collection. A `Token`
is built only where one is asked for by index, as the parser does to
describe the token an error stands at. A token carries its start offset,
not a line and column: `position` (from `ast`, beside `Pos`) works those
out, from the source's table of line starts (`line_starts`) and a binary
search, only where a position is reported, in a `LexError` here and in
the parser's and resolver's errors.

Keywords, identifiers written in ASCII and punctuation take their kind
from one dict lookup. Numbers, strings, other words and every character
no token starts with go to one cold function each, which does the checks,
returns the token's kind and value, and raises the `LexError`: an integer
literal of more than 4300 digits (`values.MAX_DIGITS`) is one, whatever
the host's int-to-text limit. A block comment ends at the next `*/`; one
never closed is reported where it opens. A string literal is decoded a
character at a time only when its body has a backslash; a string the
pattern refuses takes the same slow path, which reports its first error.
"""

from __future__ import annotations

import math
import re
from enum import Enum, unique
from typing import Iterator, NamedTuple, NoReturn

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


class Tokens:
    """A source's tokens as four parallel lists, each ending in the end-of-input entry.

    `values` holds None except for literals, `true` and `false`. `len()` is
    the number of tokens in the source, the end-of-input entry not counted.
    """

    __slots__ = ("kinds", "lexemes", "offsets", "values")

    def __init__(self, kinds: list[TokenKind], lexemes: list[str], offsets: list[int], values: list[Basic | None]):
        self.kinds = kinds
        self.lexemes = lexemes
        self.offsets = offsets
        self.values = values

    def __len__(self) -> int:
        return len(self.kinds) - 1

    def __getitem__(self, index: int) -> Token:
        """The token at index, built anew; index len(self) is the end-of-input entry."""
        return Token(self.kinds[index], self.lexemes[index], self.offsets[index], self.values[index])

    def __iter__(self) -> Iterator[Token]:
        """The source's tokens, the end-of-input entry left out."""
        return map(self.__getitem__, range(len(self)))


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


def _error(source: str, offset: int, message: str) -> NoReturn:
    raise LexError(*position(line_starts(source), offset), message)


def _number(source: str, offset: int, text: str) -> tuple[TokenKind, Basic]:
    digits = text[:-1] if text[-1] == "L" else text
    if not digits.isdigit():
        if digits is not text:
            _error(source, offset, "long suffix on a non-integer literal")
        value = float(text)
        if not math.isfinite(value):  # rendered as `inf`, it would read back as a variable
            _error(source, offset, "double literal out of range")
        return TokenKind.DOUBLE, value
    try:
        value = parse_integer(digits)
    except ValueError:  # more than MAX_DIGITS digits, whatever limit the process sets
        _error(source, offset, "integer literal has too many digits")
    if digits is text:
        return TokenKind.INT, value
    return TokenKind.LONG, Long(value)


def _string(source: str, offset: int, text: str) -> tuple[TokenKind, str]:
    return TokenKind.STRING, _decode_string(source, offset) if "\\" in text else text[1:-1]


def _word(source: str, offset: int, text: str) -> tuple[TokenKind, None]:
    if not text[0].isalpha():
        _error(source, offset, f"illegal character {text[0]!r}")
    return TokenKind.IDENT, None


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


def tokenize(source: str) -> Tokens:
    """Tokenize source text. Comments and whitespace are dropped.

    The end-of-input entry sits just past the last token, at offset 0 when
    there is none. Raises LexError with position on illegal characters,
    unterminated strings/comments, integer literals of more than 4300
    digits (values.MAX_DIGITS), and double literals too large for a finite
    float.
    """
    kinds: list[TokenKind] = []
    lexemes: list[str] = []
    offsets: list[int] = []
    values: list[Basic | None] = []
    add_kind, add_lexeme, add_offset, add_value = kinds.append, lexemes.append, offsets.append, values.append
    kind_of, value_of, ident = _KINDS, _WORD_VALUES, TokenKind.IDENT
    for m in _TOKEN.finditer(source, _LEADING.match(source).end()):
        text = m[1]
        if text is None:
            group = m.lastindex
            text = m[group]
            kind, value = _COLD[group](source, m.start(), text)
            add_kind(kind)
            add_value(value)
        else:
            add_kind(kind_of.get(text, ident))
            add_value(value_of.get(text))
        add_lexeme(text)
        add_offset(m.start())
    add_offset(offsets[-1] + len(lexemes[-1]) if offsets else 0)
    add_kind(TokenKind.EOF)
    add_lexeme("")
    add_value(None)
    return Tokens(kinds, lexemes, offsets, values)
