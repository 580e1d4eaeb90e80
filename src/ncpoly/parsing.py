"""Reading element text: one tokenizer and the flat term syntax.

``tokenize`` is the one scanner for both expression grammars, this
module's flat syntax (``parse``) and the session syntax of the command
line (``ncpoly.cli.evaluate_expression``).  It yields ``Token``\\ s with
0-based start and end offsets: ``num`` (digits and ``.``), ``name``
(``[A-Za-z_][A-Za-z0-9_]*``), ``op`` (one of ``+-*^()[],=``) and a
final ``end``.  Spaces between tokens are skipped.  It is the only
place that checks numbers (a second decimal point, no digits, a value
too large for a float are BadNumber) and characters (anything else is
UnexpectedChar).  A rejected number or character comes out as a ``bad``
token carrying its ParseError, so each grammar raises it where its own
reading order reaches it: ``parse`` reads tokens lazily and reports the
first error from the left, while the session scans the whole line first.

The flat grammar (spaces allowed between tokens)::

    expression  := [sign] term {sign term}        empty input is zero
    term        := coefficient ["*" letters]
                 | coefficient [letters]
                 | letters
    coefficient := digits ["." digits] | digits "." | "." digits
    letters     := one or more of a-z A-Z

Lowercase letters are generators and uppercase letters their group
inverses.  A coefficient with no letters is a constant; an omitted
coefficient means 1.  ``*`` is only the optional separator between a
coefficient and its letters.  There is no power or parenthesis syntax.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterator

from .element import Element
from .words import text_word

UNEXPECTED_CHAR = "UnexpectedChar"
BAD_NUMBER = "BadNumber"
EMPTY_TERM = "EmptyTerm"
TRAILING_INPUT = "TrailingInput"


class ParseError(ValueError):
    """Rejected input.

    ``position`` is the 0-based offset of the first offending character
    (it may sit one past the end when the input stops too early), and
    ``kind`` is one of UnexpectedChar, BadNumber, EmptyTerm,
    TrailingInput.
    """

    def __init__(self, position: int, message: str, kind: str):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.message = message
        self.kind = kind


# kind is "num", "name", "op", "bad" or "end"; value is the number, or a bad token's error
Token = namedtuple("Token", "kind text value start end")


_TOKEN = re.compile(
    r" *(?:(?P<num>[0-9.]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()\[\],=])|(?P<bad>[^ ]))"
)


def tokenize(text: str) -> Iterator[Token]:
    """Yield the tokens of ``text`` lazily, ending with an ``end`` token."""
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        start, end = match.span(kind)
        raw = match[kind]
        value = None
        if kind == "num":
            value = _number(raw, start)
            if isinstance(value, ParseError):
                kind = "bad"
        elif kind == "bad":
            value = ParseError(start, f"character {raw!r} is not element syntax", UNEXPECTED_CHAR)
        # tuple.__new__ skips the namedtuple's slower Python-level __new__
        yield tuple.__new__(Token, (kind, raw, value, start, end))
    yield Token("end", "", None, len(text), len(text))


def _number(raw: str, start: int) -> float | ParseError:
    second_dot = raw.find(".", raw.find(".") + 1)
    if second_dot >= 0:
        return ParseError(start + second_dot, "number has a second decimal point", BAD_NUMBER)
    if raw == ".":
        return ParseError(start, "number has no digits", BAD_NUMBER)
    value = float(raw)
    if not math.isfinite(value):
        return ParseError(start, "number is too large for a float", BAD_NUMBER)
    return value


def parse(text: str) -> Element:
    """Parse element syntax, e.g. ``parse("xxyx + 2zy")``.

    The result is fully normalized: words reduced, like terms collected,
    zero coefficients dropped.  Raises ParseError on bad input.
    """
    tokens = tokenize(text)
    token = next(tokens)
    if token.kind == "end":
        return Element.zero()
    sign = _SIGNS.get(token.text, 1.0)
    if token.text in _SIGNS:
        token = next(tokens)
    terms: dict[bytes, float] = {}
    while True:
        coeff = sign
        if token.kind == "num":
            coeff *= token.value
            token = next(tokens)
            if token.text == "*":
                token = next(tokens)
                if not _is_letters(token):
                    raise ParseError(token.start, "expected generator letters after '*'", EMPTY_TERM)
        elif not _is_letters(token):
            raise _term_error(token)
        word = b""
        if _is_letters(token):
            word = _word(token)
            token = next(tokens)
        # words from text_word are reduced already: collect like terms here
        terms[word] = terms.get(word, 0.0) + coeff
        if token.kind == "end":
            return Element._from_reduced(terms)
        if token.text not in _SIGNS:
            raise _after_term_error(token.start, token.text[0])
        sign = _SIGNS[token.text]
        token = next(tokens)


_SIGNS = {"+": 1.0, "-": -1.0}


def _is_letters(token: Token) -> bool:
    return token.kind == "name" and token.text[0] != "_"


def _word(token: Token) -> bytes:
    """The word of a name token that must be letters only."""
    text = token.text
    if not text.isalpha():
        # a digit or "_" ends the letters, and so the term
        n = next(i for i, ch in enumerate(text) if not ch.isalpha())
        raise _after_term_error(token.start + n, text[n])
    return text_word(text)


def _term_error(token: Token) -> ParseError:
    if token.kind == "bad":
        return token.value
    if token.kind == "end" or token.text in _SIGNS:
        return ParseError(token.start, "expected a term", EMPTY_TERM)
    if token.text == "*":
        return ParseError(token.start, "'*' needs a coefficient before it", UNEXPECTED_CHAR)
    return ParseError(token.start, f"character {token.text[0]!r} is not element syntax", UNEXPECTED_CHAR)


def _after_term_error(position: int, ch: str) -> ParseError:
    if ch.isascii() and (ch.isalnum() or ch in ".*"):
        return ParseError(position, f"unexpected {ch!r} after a complete term", TRAILING_INPUT)
    return ParseError(position, f"character {ch!r} is not element syntax", UNEXPECTED_CHAR)
