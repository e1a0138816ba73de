import sys

import pytest

from monoslice.lexer import LexError, TokenKind, tokenize
from monoslice.values import Long


def kinds(source):
    return [t.kind for t in tokenize(source)]


def test_type_declaration_tokens_drop_the_comment():
    tokens = tokenize("type PAID:long // Parking Area IDentifier")
    assert [(t.kind, t.lexeme) for t in tokens] == [
        (TokenKind.KEYWORD, "type"),
        (TokenKind.IDENT, "PAID"),
        (TokenKind.COLON, ":"),
        (TokenKind.KEYWORD, "long"),
    ]


def test_empty_input_yields_no_tokens():
    assert tokenize("") == []
    assert tokenize("   \n\t // just a comment\n/* and another */") == []


def test_long_literal():
    tokens = tokenize("123L")
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.LONG
    assert tokens[0].value == 123
    assert isinstance(tokens[0].value, Long)


def test_numeric_literals():
    assert tokenize("42")[0].kind is TokenKind.INT
    assert tokenize("1.5")[0].value == 1.5
    assert tokenize("2e3")[0].kind is TokenKind.DOUBLE
    assert tokenize("1e+21")[0].value == 1e21
    assert tokenize("3.5e-7")[0].kind is TokenKind.DOUBLE
    assert tokenize("1.7976931348623157e308")[0].value == 1.7976931348623157e308


def test_long_suffix_rejected_on_fractions():
    with pytest.raises(LexError):
        tokenize("1.5L")


def test_cardinality_marker_lexes_as_star():
    assert kinds("availability*:TimePeriod") == [
        TokenKind.IDENT,
        TokenKind.STAR,
        TokenKind.COLON,
        TokenKind.IDENT,
    ]


def test_two_character_operators():
    assert kinds("== != <= >= && ||") == [
        TokenKind.EQ,
        TokenKind.NEQ,
        TokenKind.LE,
        TokenKind.GE,
        TokenKind.AND,
        TokenKind.OR,
    ]


def test_ellipsis_token():
    assert kinds("{ ... }") == [TokenKind.LBRACE, TokenKind.ELLIPSIS, TokenKind.RBRACE]


def test_positions_are_one_based_line_and_column():
    tokens = tokenize("type A\ninterface B")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[1].line, tokens[1].column) == (1, 6)
    assert (tokens[2].line, tokens[2].column) == (2, 1)
    assert (tokens[3].line, tokens[3].column) == (2, 11)


def test_string_escapes():
    token = tokenize(r'"a\"b\\c\ndA"')[0]
    assert token.kind is TokenKind.STRING
    assert token.value == 'a"b\\c\nd' + "A"


def test_surrogate_escapes_rejected():
    with pytest.raises(LexError):
        tokenize(r'"\ud800"')


def test_unterminated_string_reports_start_position():
    with pytest.raises(LexError) as exc:
        tokenize('x = "oops')
    assert exc.value.line == 1
    assert exc.value.column == 5


def test_unterminated_block_comment():
    with pytest.raises(LexError) as exc:
        tokenize("type A /* never closed")
    assert exc.value.column == 8


def test_illegal_character():
    with pytest.raises(LexError) as exc:
        tokenize("a # b")
    assert exc.value.column == 3


# Python 3.10 converts integers of any length, so it has no over-long literal.
DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit"
)


# Every LexError path, with its position and message pinned byte for byte.
@pytest.mark.parametrize(
    "source, line, column, message",
    [
        ("type A\ntype B # c", 2, 8, "illegal character '#'"),
        ('x = "oops', 1, 5, "unterminated string literal"),
        ('x = "oops\ny', 1, 5, "unterminated string literal"),
        ('x = "oops\\', 1, 5, "unterminated string literal"),
        ('"a\\\nb"', 1, 1, "unknown escape \\\n"),
        ('"\\u12"', 1, 1, "invalid \\u escape"),
        ('"\\u12', 1, 1, "invalid \\u escape"),
        ('"\\ud800"', 1, 1, "surrogate \\u escape"),
        ('"\\q"', 1, 1, "unknown escape \\q"),
        ('x\n  "\\q and no end', 2, 3, "unknown escape \\q"),
        ("a b\nc\n  d /* never closed", 3, 5, "unterminated block comment"),
        ("1.5L", 1, 1, "long suffix on a non-integer literal"),
        ("1e3L", 1, 1, "long suffix on a non-integer literal"),
        ("\n x = 1.5L", 2, 6, "long suffix on a non-integer literal"),
        # float() reads these as infinity, which no literal can render back
        ("y = 1e999", 1, 5, "double literal out of range"),
        ("y = -1.0e400", 1, 6, "double literal out of range"),
        pytest.param(
            "x = " + "7" * 5000, 1, 5, "integer literal has too many digits",
            marks=DIGIT_LIMIT, id="5000-digit-int",
        ),
        pytest.param(
            "a\n  " + "7" * 5000 + "L", 2, 3, "integer literal has too many digits",
            marks=DIGIT_LIMIT, id="5000-digit-long",
        ),
    ],
)
def test_lex_error_positions_and_messages(source, line, column, message):
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert (exc.value.line, exc.value.column, str(exc.value)) == (line, column, f"{line}:{column}: {message}")


@pytest.mark.parametrize("source, column", [("²", 1), ("x = ²", 5), ("١٢", 1), ("7²", 2)])
def test_number_literals_are_ascii_digits(source, column):
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert (exc.value.line, exc.value.column) == (1, column)
    assert str(exc.value) == f"1:{column}: illegal character {source[column - 1]!r}"


def test_letters_and_digit_marks_inside_words_are_identifiers():
    assert [(t.kind, t.lexeme) for t in tokenize("a² é x١")] == [
        (TokenKind.IDENT, "a²"),
        (TokenKind.IDENT, "é"),
        (TokenKind.IDENT, "x١"),
    ]


def test_every_punctuation_kind_lexes():
    punctuation = [kind for kind in TokenKind if not kind.value[0].isalpha()]
    assert kinds(" ".join(kind.value for kind in punctuation)) == punctuation


def test_keywords_versus_identifiers():
    tokens = tokenize("service location concurrent RequestResponse")
    assert tokens[0].kind is TokenKind.KEYWORD
    assert tokens[1].kind is TokenKind.IDENT  # contextual
    assert tokens[2].kind is TokenKind.IDENT  # contextual
    assert tokens[3].kind is TokenKind.KEYWORD
