"""Parser for trace-product expressions.

Grammar:
    expr   := trace+
    trace  := "tr(" letter+ ")"
    letter := "U" integer ["'"]        (the apostrophe marks the adjoint)

Tokens may be separated by arbitrary whitespace. Example:
"tr(U1 U2) tr(U2' U1')". Each trace is reduced cyclically; traces that
reduce to nothing are tr(1) = N and are returned as a separate factor
count rather than kept in the query.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from .words import ExpectationQuery, query_from_traces


@dataclass(frozen=True)
class ParseResult:
    query: ExpectationQuery
    empty_traces: int  # each contributes one factor of N to the value


def _fail(text: str, pos: int, message: str) -> None:
    raise ValidationError(f"syntax error at position {pos}: {message} (input {text!r})")


def parse_trace_expr(text: str, max_letters: int | None = None) -> ParseResult:
    """Parse and canonicalize; with `max_letters`, an expression over that
    letter budget (after cyclic reduction) is refused before the search."""
    pos = 0
    n = len(text)
    traces: list[tuple[int, ...]] = []

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    pos = skip_ws(pos)
    if pos == n:
        _fail(text, pos, "expected at least one trace")
    while pos < n:
        if not text.startswith("tr(", pos):
            _fail(text, pos, "expected 'tr('")
        pos += 3
        letters: list[int] = []
        while True:
            pos = skip_ws(pos)
            if pos == n:
                _fail(text, pos, "unclosed trace: expected ')' before end of input")
            if text[pos] == ")":
                pos += 1
                break
            if text[pos] != "U":
                _fail(text, pos, f"expected 'U<index>' or ')', found {text[pos]!r}")
            pos += 1
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos == start:
                _fail(text, pos, "expected a generator index after 'U'")
            gen = int(text[start:pos])
            if gen < 1:
                _fail(text, start, "generator indices start at 1")
            inverted = pos < n and text[pos] == "'"
            if inverted:
                pos += 1
            letters.append(-gen if inverted else gen)
        if not letters:
            _fail(text, pos - 1, "empty trace 'tr()' is not a valid query")
        traces.append(tuple(letters))
        pos = skip_ws(pos)

    query, empties = query_from_traces(traces, max_letters)
    return ParseResult(query=query, empty_traces=empties)
