"""Textual language for cobordism words.

Grammar::

    word  := ws? [layer (";" layer)*] ws?
    layer := gen ("|" gen)*
    gen   := ("cap" | "cup" | "id" | "mu" | "delta" | "swap") ["^" natural]

"#" starts a comment running to end of line; whitespace (space, tab,
CR, LF) is otherwise insignificant.  Names and numbers are ASCII.  The
repetition suffix repeats a generator in parallel; counts above 10^6
are rejected so parsing stays total instead of exhausting memory.
Surface-name aliases are accepted on input: pants -> delta, copants ->
mu, twist -> swap, cyl -> id.  This grammar is also the on-disk format
for ``.cob`` files (UTF-8, LF or CRLF).
"""

from __future__ import annotations

import enum
import re
import string
from dataclasses import dataclass

from .words import BoundaryMismatch, CobordismWord, Generator, Layer


class ParseErrorKind(enum.Enum):
    UNKNOWN_TOKEN = "UnknownToken"
    ARITY_MISMATCH = "ArityMismatch"
    EMPTY_LAYER = "EmptyLayer"
    BAD_REPETITION = "BadRepetition"


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int

    def __post_init__(self) -> None:
        if self.line < 1 or self.column < 1:
            raise ValueError("line and column are 1-based")


class ParseError(ValueError):
    def __init__(self, span: SourceSpan, kind: ParseErrorKind, message: str) -> None:
        if not message:
            raise ValueError("ParseError message must be nonempty")
        super().__init__(f"{span.line}:{span.column}: {kind.value}: {message}")
        self.span = span
        self.kind = kind
        self.message = message


_MAX_REPETITION = 10**6

_KEYWORDS = {g.keyword: g for g in Generator} | {
    # surface-name aliases
    "pants": Generator.SPLIT,
    "copants": Generator.MERGE,
    "twist": Generator.SWAP,
    "cyl": Generator.ID,
}

# Names, numbers, the three separators, comments (which parse() drops),
# and any other character outside whitespace, which is an unknown token.
_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[0-9]+|[|;^]|#[^\n]*|[^ \t\r\n]")
_TOKEN_STARTS = frozenset(string.ascii_letters + string.digits + "|;^")


def _span_at(text: str, offset: int, length: int) -> SourceSpan:
    column = offset - text.rfind("\n", 0, offset)
    return SourceSpan(text.count("\n", 0, offset) + 1, column, length)


def _error(text: str, index: int, kind: ParseErrorKind, message: str) -> ParseError:
    """The error at the index-th token, comments not counted, unless the
    text holds an unknown character: the first one is reported instead,
    wherever it is.  Spans are worked out only here."""
    tokens = [m for m in _TOKEN.finditer(text) if m[0][0] != "#"]
    for m in tokens:
        if m[0][0] not in _TOKEN_STARTS:
            return ParseError(
                _span_at(text, m.start(), 1),
                ParseErrorKind.UNKNOWN_TOKEN,
                f"unexpected character {m[0]!r}",
            )
    m = tokens[index]
    return ParseError(_span_at(text, m.start(), len(m[0])), kind, message)


def parse(text: str) -> CobordismWord:
    """Parse a word; raises :class:`ParseError` on any malformed input."""
    tokens = _TOKEN.findall(text)
    if "#" in text:
        tokens = [t for t in tokens if t[0] != "#"]
    if not tokens:
        return CobordismWord((), 0)

    layers: list[Layer] = []
    firsts = [0]  # token index of each layer's first generator
    gens: list[Generator] = []
    i, n = 0, len(tokens)
    while True:
        tok = tokens[i]
        gen = _KEYWORDS.get(tok)
        if gen is None:
            if tok[0].isalpha():
                raise _error(text, i, ParseErrorKind.UNKNOWN_TOKEN, f"unknown generator {tok!r}")
            kind = ParseErrorKind.EMPTY_LAYER if tok in ("|", ";") else ParseErrorKind.UNKNOWN_TOKEN
            raise _error(text, i, kind, f"expected a generator, found {tok!r}")
        i += 1
        if i < n and tokens[i] == "^":
            if i + 1 == n or tokens[i + 1][0] not in string.digits:
                raise _error(text, i, ParseErrorKind.BAD_REPETITION, "'^' needs a number")
            i += 1
            digits = tokens[i].lstrip("0") or "0"
            count = int(digits) if len(digits) <= 7 else 0  # int() refuses > 4300 digits
            if not 1 <= count <= _MAX_REPETITION:
                raise _error(
                    text,
                    i,
                    ParseErrorKind.BAD_REPETITION,
                    f"repetition must be in [1, {_MAX_REPETITION}], got {digits}",
                )
            gens.extend([gen] * count)
            i += 1
        else:
            gens.append(gen)
        if i == n:
            break
        sep = tokens[i]
        if sep == ";":
            layers.append(Layer(tuple(gens)))
            gens = []
            firsts.append(i + 1)
        elif sep != "|":
            raise _error(
                text,
                i,
                ParseErrorKind.UNKNOWN_TOKEN,
                f"expected '|', ';' or end of input, found {sep!r}",
            )
        i += 1
        if i == n:
            raise _error(
                text, i - 1, ParseErrorKind.EMPTY_LAYER, "trailing separator leaves an empty layer"
            )
    layers.append(Layer(tuple(gens)))
    try:
        return CobordismWord(tuple(layers), layers[0].inputs)
    except BoundaryMismatch as exc:
        raise _error(
            text,
            firsts[exc.layer],  # type: ignore[index]
            ParseErrorKind.ARITY_MISMATCH,
            f"layer needs {exc.got} input circles but receives {exc.expected}",
        ) from None


def format_word(w: CobordismWord) -> str:
    """Canonical text: layers joined by " ; ", generators by " | ".

    Runs of two or more adjacent identities print as ``id^k``.  The
    layerless identity word renders as ``id^n`` (its one-layer DSL
    equivalent); parse(format_word(w)) is structurally equal to w for
    every word that carries at least one layer.
    """
    if not w.layers:
        if w.source == 0:
            return ""
        return "id" if w.source == 1 else f"id^{w.source}"
    rendered_layers = []
    for layer in w.layers:
        parts: list[str] = []
        run = 0
        for gen in layer.generators + (None,):  # type: ignore[operator]
            if gen is Generator.ID:
                run += 1
                continue
            if run == 1:
                parts.append("id")
            elif run > 1:
                parts.append(f"id^{run}")
            run = 0
            if gen is not None:
                parts.append(gen.keyword)
        rendered_layers.append(" | ".join(parts))
    return " ; ".join(rendered_layers)
