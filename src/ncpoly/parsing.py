"""Reading element text: the flat term syntax and the session tokenizer.

``parse`` reads the flat syntax one term at a time, each term one match
of a single pattern (sign, number, ``*``, letters, each optional), and
reports the first error from the left.  ``tokenize`` is the scanner of
the session syntax of the command line (``ncpoly.cli``).  It yields
``Token``\\ s with 0-based start and end offsets: ``num`` (digits and
``.``), ``name`` (``[A-Za-z_][A-Za-z0-9_]*``), ``op`` (one of
``+-*^()[],=``) and a final ``end``, skipping spaces between them.  It
raises ParseError on reaching any other character (UnexpectedChar) or a
rejected number.  Both grammars read numbers with one pattern and check
them in ``_number``: a second decimal point, no digits or a value too
large for a float are BadNumber.

The flat grammar (spaces allowed between the parts of a term and around signs)::

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


# kind is "num", "name", "op" or "end"; value is a number token's float
Token = namedtuple("Token", "kind text value start end")


# one number piece for both grammars, checked by _number
_NUMBER = "[0-9.]+"
# the last alternative, any other character, is rejected by tokenize
_TOKEN = re.compile(
    rf" *(?:(?P<num>{_NUMBER})|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()\[\],=])|[^ ])"
)
# one flat term, every part optional: sign, number, "*", letters
_TERM = re.compile(rf" *([-+]?) *(?:({_NUMBER}) *)?(\*?) *([A-Za-z]*) *")


def tokenize(text: str) -> Iterator[Token]:
    """Yield the session tokens of ``text`` lazily, ending with an ``end`` token.

    Raises ParseError on reaching a rejected character or number.
    """
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            raise _char_error(match.end() - 1, text[match.end() - 1])
        start, end = match.span(kind)
        raw = match[kind]
        value = _number(raw, start) if kind == "num" else None
        yield Token(kind, raw, value, start, end)
    yield Token("end", "", None, len(text), len(text))


def _number(raw: str, start: int) -> float:
    second_dot = raw.find(".", raw.find(".") + 1)
    if second_dot >= 0:
        raise ParseError(start + second_dot, "number has a second decimal point", BAD_NUMBER)
    if raw == ".":
        raise ParseError(start, "number has no digits", BAD_NUMBER)
    value = float(raw)
    if not math.isfinite(value):
        raise ParseError(start, "number is too large for a float", BAD_NUMBER)
    return value


def parse(text: str) -> Element:
    """Parse element syntax, e.g. ``parse("xxyx + 2zy")``.

    The result is fully normalized: words reduced, like terms collected,
    zero coefficients dropped.  Raises ParseError on bad input.
    """
    terms: dict[bytes, float] = {}
    match = _TERM.match(text)
    while True:
        sign, number, star, letters = match.groups()
        end = match.end()
        coeff = -1.0 if sign == "-" else 1.0
        if number:
            coeff *= _number(number, match.start(2))
            if star and not letters:
                raise ParseError(end, "expected generator letters after '*'", EMPTY_TERM)
        elif star:
            raise ParseError(match.start(3), "'*' needs a coefficient before it", UNEXPECTED_CHAR)
        elif not letters:
            if end < len(text) and text[end] not in "+-":
                raise _char_error(end, text[end])
            if sign:
                raise ParseError(end, "expected a term", EMPTY_TERM)
            # only the first term may lack a sign, so this is blank input
            return Element.zero()
        # words from text_word are reduced already: collect like terms here
        word = text_word(letters)
        terms[word] = terms.get(word, 0.0) + coeff
        if end == len(text):
            return Element._from_reduced(terms)
        if text[end] not in "+-":
            raise _after_term_error(end, text[end])
        match = _TERM.match(text, end)


def _after_term_error(position: int, ch: str) -> ParseError:
    if ch.isascii() and (ch.isalnum() or ch in ".*"):
        return ParseError(position, f"unexpected {ch!r} after a complete term", TRAILING_INPUT)
    return _char_error(position, ch)


def _char_error(position: int, ch: str) -> ParseError:
    return ParseError(position, f"character {ch!r} is not element syntax", UNEXPECTED_CHAR)
