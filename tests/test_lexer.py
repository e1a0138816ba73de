import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lexer
from monoslice.lexer import LexError, TokenKind, line_starts, position, tokenize
from monoslice.render import render
from monoslice.values import Long
from proggen import random_behavior_program, random_program


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
    source = "type A\ninterface B"
    starts = line_starts(source)
    tokens = tokenize(source)
    assert [t.offset for t in tokens] == [0, 5, 7, 17]
    assert position(starts, tokens[0].offset) == (1, 1)
    assert position(starts, tokens[1].offset) == (1, 6)
    assert position(starts, tokens[2].offset) == (2, 1)
    assert position(starts, tokens[3].offset) == (2, 11)


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
            id="5000-digit-int",
        ),
        pytest.param(
            "a\n  " + "7" * 5000 + "L", 2, 3, "integer literal has too many digits",
            id="5000-digit-long",
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


# ---------------------------------------------------------------------------
# Differential: tokenize against the line-and-column tokenizer it replaced


def _lexed(source: str, reference: bool):
    """Every token's kind, lexeme, value, value type and (line, column), or the error."""
    try:
        if reference:
            return [
                (t.kind, t.lexeme, t.value, type(t.value), (t.line, t.column))
                for t in reference_lexer.tokenize(source)
            ]
        starts = line_starts(source)
        return [
            (t.kind, t.lexeme, t.value, type(t.value), position(starts, t.offset))
            for t in tokenize(source)
        ]
    except LexError as error:
        return type(error), error.line, error.column, str(error)


def _assert_lexed_alike(source: str) -> None:
    assert _lexed(source, reference=False) == _lexed(source, reference=True)


_COMMENT_TEXT = 'ab /*/ * // é"\\'


def _separator(rng: random.Random) -> str:
    """Whitespace and comments, which tokenize drops, of every form it knows."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        text = "".join(rng.choice(_COMMENT_TEXT) for _ in range(rng.randint(0, 6)))
        unclosing = text.replace("*", "* ")  # no `*/` inside a block comment
        parts.append(
            rng.choice(
                [
                    rng.choice([" ", "\t", "\n", "\r\n", "  \n "]),
                    f"//{text}\n",
                    f"/*{unclosing}{'*' * rng.randint(1, 3)}/",
                    f"/*{unclosing}\n*/",
                ]
            )
        )
    return "".join(parts)


def _gaps(source: str) -> list[int]:
    """The offsets between tokens of source, as the reference tokenizer reads it."""
    starts = [0]
    for text in source.split("\n"):
        starts.append(starts[-1] + len(text) + 1)
    gaps = []
    for token in reference_lexer.tokenize(source):
        start = starts[token.line - 1] + token.column - 1
        gaps += [start, start + len(token.lexeme)]
    return gaps


# the example count comes from the loaded profile when it asks for more (tests/conftest.py)
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_tokenize_agrees_with_the_reference_on_generated_programs(seed, behaviors):
    """A rendered generated program, with whitespace and comments put between its tokens."""
    rng = random.Random(seed)
    program = random_behavior_program(rng) if behaviors else random_program(rng, max_decls=8, max_services=2)
    source = render(program)
    pieces, last = [], 0
    for gap in _gaps(source):
        pieces.append(source[last:gap])
        if rng.random() < 0.3:
            pieces.append(_separator(rng))
        last = gap
    pieces.append(source[last:])
    _assert_lexed_alike("".join(pieces))


# The language's characters and fragments that start its cold paths: strings
# and escapes, comments, number forms, and characters it refuses or takes
# only inside a word.
_PIECES = [
    *"aZ_x09L.eE+-*/=!<>{}()[]:,@?", " ", "\t", "\n", "\r", "&&", "||", "...",
    '"', "\\", "\\u", '"a b"', '"\\n\\t\\\\\\""', '"\\u00e9"', '"\\ud800"', '"\\q"', '"é²"',
    "/*", "*/", "//", "1.5", "2e9", "1e999", "7L", "1.5L",
    "²", "é", "١", "#", "true", "false", "type", "main",
]


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_tokenize_agrees_with_the_reference_on_drawn_text(source):
    _assert_lexed_alike(source)
