"""The tokenizer as it was before tokens carried offsets, kept as a test oracle.

`tokenize` here tries one master pattern with `match` at each position and
gives every token its 1-based line and column. `tests/test_lexer.py`
checks `monoslice.lexer.tokenize` against it token by token and error by
error. It shares the package's token kinds, keywords and `LexError`, so
the two are compared by identity; nothing in `src/` imports it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import accumulate

from monoslice.lexer import KEYWORDS, LexError, TokenKind
from monoslice.values import Basic, Long

_PUNCT = {kind.value: kind for kind in TokenKind if not kind.value[0].isalpha()}
_WORD_VALUES = {"true": True, "false": False}
_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f"}
_HEX4 = re.compile(r"[0-9a-fA-F]{4}")

# Number literals are ASCII digits. A word starts with [^\W\d], which also
# admits characters like '²'; tokenize refuses those by the first character.
_MASTER = re.compile(
    r"""
      (?P<skip>(?:[ \t\r\n]+|//[^\n]*)+)
    | (?P<word>[^\W\d]\w*)
    | (?P<double>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)L?)
    | (?P<long>[0-9]+L)
    | (?P<int>[0-9]+)
    | (?P<string>"(?:[^"\\\n]|\\[^\n])*")
    | (?P<comment>/\*)
    | (?P<punct>\.\.\.|[=!<>]=|&&|\|\||[{}()\[\]:,.@=<>+\-*/!?])
    """,
    re.VERBOSE,
)


@dataclass(slots=True)
class Token:
    kind: TokenKind
    lexeme: str
    line: int
    column: int
    value: Basic | None = field(default=None, compare=False)


def _decode_string(source: str, i: int, line: int, column: int) -> str:
    """Decode the string literal whose body starts at source[i].

    The slow path: it walks the body a character at a time and raises
    the first error, at the literal's position.
    """
    out: list[str] = []
    while True:
        ch = source[i : i + 1]
        if ch in ("", "\n"):
            raise LexError(line, column, "unterminated string literal")
        i += 1
        if ch == '"':
            return "".join(out)
        if ch != "\\":
            out.append(ch)
            continue
        esc = source[i : i + 1]
        i += 1
        if not esc:
            raise LexError(line, column, "unterminated string literal")
        if esc in _ESCAPES:
            out.append(_ESCAPES[esc])
        elif esc == "u":
            if not _HEX4.match(source, i):
                raise LexError(line, column, "invalid \\u escape")
            code = int(source[i : i + 4], 16)
            if 0xD800 <= code <= 0xDFFF:  # not representable in UTF-8 text
                raise LexError(line, column, "surrogate \\u escape")
            out.append(chr(code))
            i += 4
        else:
            raise LexError(line, column, f"unknown escape \\{esc}")


_TOO_MANY_DIGITS = "integer literal has too many digits"


def tokenize(source: str) -> list[Token]:
    """Tokenize source text. Comments and whitespace are dropped.

    Raises LexError with position on illegal characters, unterminated
    strings/comments, integer literals too long for int(), and double
    literals too large for a finite float.
    """
    # starts[n] is the offset where line n + 1 begins; the last entry lies
    # past the end of the source.
    starts = [0, *accumulate(len(text) + 1 for text in source.split("\n"))]
    match = _MASTER.match
    tokens: list[Token] = []
    append = tokens.append
    pos, end, line = 0, len(source), 1
    while pos < end:
        m = match(source, pos)
        group = m.lastgroup if m else None
        if group == "skip":
            pos = m.end()
            continue
        while starts[line] <= pos:
            line += 1
        column = pos - starts[line - 1] + 1
        if m is None:
            if source[pos] == '"':  # refused by the pattern, so this raises
                _decode_string(source, pos + 1, line, column)
            raise LexError(line, column, f"illegal character {source[pos]!r}")
        text = m.group()
        if group == "punct":
            append(Token(_PUNCT[text], text, line, column))
        elif group == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexError(line, column, f"illegal character {text[0]!r}")
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            append(Token(kind, text, line, column, _WORD_VALUES.get(text)))
        elif group == "string":
            value = _decode_string(source, pos + 1, line, column) if "\\" in text else text[1:-1]
            append(Token(TokenKind.STRING, text, line, column, value))
        elif group == "int":
            try:
                append(Token(TokenKind.INT, text, line, column, int(text)))
            except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
                raise LexError(line, column, _TOO_MANY_DIGITS) from None
        elif group == "long":
            try:
                append(Token(TokenKind.LONG, text, line, column, Long(int(text[:-1]))))
            except ValueError:
                raise LexError(line, column, _TOO_MANY_DIGITS) from None
        elif group == "double":
            if text[-1] == "L":
                raise LexError(line, column, "long suffix on a non-integer literal")
            value = float(text)
            if not math.isfinite(value):  # rendered as `inf`, it would read back as a variable
                raise LexError(line, column, "double literal out of range")
            append(Token(TokenKind.DOUBLE, text, line, column, value))
        else:  # comment
            close = source.find("*/", pos + 2)
            if close < 0:
                raise LexError(line, column, "unterminated block comment")
            pos = close + 2
            continue
        pos = m.end()
    return tokens
