import random
import string

import pytest

from tqft2d.dsl import ParseError, ParseErrorKind, SourceSpan, format_word, parse
from tqft2d.words import CobordismWord, identity, random_word


def test_parse_single_generators():
    w = parse("mu")
    assert (w.source, w.target) == (2, 1)
    assert len(w.layers) == 1

    w = parse("cap | id ; mu")
    assert (w.source, w.target) == (1, 1)


def test_parse_arity_mismatch_reports_offending_layer():
    with pytest.raises(ParseError) as exc:
        parse("mu ; mu")
    assert exc.value.kind is ParseErrorKind.ARITY_MISMATCH
    assert exc.value.span.column == 6
    assert exc.value.message == "layer needs 2 input circles but receives 1"

    with pytest.raises(ParseError) as exc:
        parse("cap | id ;\n  mu ; mu")
    assert exc.value.kind is ParseErrorKind.ARITY_MISMATCH
    assert (exc.value.span.line, exc.value.span.column, exc.value.span.length) == (2, 8, 2)


def test_parse_repetition():
    assert parse("id^3") == parse("id | id | id")
    assert parse("cap^2 ; mu") == parse("cap | cap ; mu")


def test_parse_aliases():
    assert parse("pants") == parse("delta")
    assert parse("copants") == parse("mu")
    assert parse("twist") == parse("swap")
    assert parse("cyl") == parse("id")


def test_parse_comments_and_whitespace():
    text = """
    # birth next to a wire
    cap | id   # layer one
    ; mu       # then merge
    """
    assert parse(text) == parse("cap|id;mu")


def test_parse_crlf():
    assert parse("cap | id ;\r\nmu") == parse("cap | id ; mu")


def test_parse_empty_is_identity_on_zero():
    assert parse("") == CobordismWord((), 0)
    assert parse("  # nothing\n") == CobordismWord((), 0)


# (text, kind, (line, column) of the span)
_ERROR_CASES = [
    ("frob", ParseErrorKind.UNKNOWN_TOKEN, (1, 1)),
    ("mu $ id", ParseErrorKind.UNKNOWN_TOKEN, (1, 4)),
    ("mu 2", ParseErrorKind.UNKNOWN_TOKEN, (1, 4)),
    ("mu ; ; id", ParseErrorKind.EMPTY_LAYER, (1, 6)),
    ("; mu", ParseErrorKind.EMPTY_LAYER, (1, 1)),
    ("mu ;", ParseErrorKind.EMPTY_LAYER, (1, 4)),
    ("id | | id", ParseErrorKind.EMPTY_LAYER, (1, 6)),
    ("id^", ParseErrorKind.BAD_REPETITION, (1, 3)),
    ("id^0", ParseErrorKind.BAD_REPETITION, (1, 4)),
    ("id^x", ParseErrorKind.BAD_REPETITION, (1, 3)),
    ("id^99999999999999", ParseErrorKind.BAD_REPETITION, (1, 4)),
    # an unknown character is reported before any earlier grammar error
    ("mu ; ; id $", ParseErrorKind.UNKNOWN_TOKEN, (1, 11)),
    # names and numbers are ASCII, though str.isdigit/isalpha accept these
    ("id^²", ParseErrorKind.UNKNOWN_TOKEN, (1, 4)),
    ("id^٣", ParseErrorKind.UNKNOWN_TOKEN, (1, 4)),
    ("idé", ParseErrorKind.UNKNOWN_TOKEN, (1, 3)),
    # too many digits for int()
    ("id^" + "9" * 5000, ParseErrorKind.BAD_REPETITION, (1, 4)),
]


@pytest.mark.parametrize(
    "text,kind,at", _ERROR_CASES, ids=[f"{text[:20]}-{kind}" for text, kind, _ in _ERROR_CASES]
)
def test_parse_error_kinds(text, kind, at):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.kind is kind
    assert exc.value.message
    assert (exc.value.span.line, exc.value.span.column) == at


def test_spans_are_one_based():
    with pytest.raises(ValueError):
        SourceSpan(0, 1, 1)
    with pytest.raises(ParseError) as exc:
        parse("cap\nbad")
    assert (exc.value.span.line, exc.value.span.column) == (2, 1)


def test_format_examples():
    assert format_word(parse("cap|id;mu")) == "cap | id ; mu"
    assert format_word(identity(3)) == "id^3"
    assert format_word(identity(0)) == ""
    assert format_word(parse("id | id | mu | id")) == "id^2 | mu | id"


def test_format_compresses_only_identity_runs():
    assert format_word(parse("cap | cap")) == "cap | cap"
    assert format_word(parse("id^2 ; mu")) == "id^2 ; mu"


def test_round_trip_on_random_words():
    for seed in range(1000):
        w = random_word(seed, 4, 6)
        assert parse(format_word(w)) == w


def test_parse_is_total_under_fuzz():
    alphabet = "capmudeltaswingid;|^ \t\n#0123456789" + string.ascii_lowercase + "$%()²٣é"
    rng = random.Random(424242)
    for _ in range(100_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        try:
            result = parse(text)
        except ParseError:
            continue
        assert isinstance(result, CobordismWord)
