"""The element text syntax: flat sums of terms like ``3 + 5X - 2Xyx``.

Grammar (spaces allowed between tokens)::

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

from .element import Element
from .words import word_from_text

UNEXPECTED_CHAR = "UnexpectedChar"
BAD_NUMBER = "BadNumber"
EMPTY_TERM = "EmptyTerm"
TRAILING_INPUT = "TrailingInput"

_DIGITS = frozenset("0123456789")


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


def parse(text: str) -> Element:
    """Parse element syntax, e.g. ``parse("xxyx + 2zy")``.

    The result is fully normalized: words reduced, like terms collected,
    zero coefficients dropped.  Raises ParseError on bad input.
    """
    return _Parser(text).parse()


def _is_ascii_letter(ch: str) -> bool:
    return ch.isascii() and ch.isalpha()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_spaces(self) -> None:
        while self.peek() == " ":
            self.pos += 1

    def fail(self, position: int, message: str, kind: str):
        raise ParseError(position, message, kind)

    def parse(self) -> Element:
        self.skip_spaces()
        if not self.peek():
            return Element.zero()
        sign = 1.0
        if self.peek() in "+-":
            sign = -1.0 if self.peek() == "-" else 1.0
            self.pos += 1
        terms = []
        while True:
            terms.append(self.term(sign))
            self.skip_spaces()
            ch = self.peek()
            if not ch:
                break
            if ch == "+":
                sign = 1.0
            elif ch == "-":
                sign = -1.0
            elif ch.isascii() and (ch.isalnum() or ch in ".*"):
                self.fail(self.pos, f"unexpected {ch!r} after a complete term", TRAILING_INPUT)
            else:
                self.fail(self.pos, f"character {ch!r} is not element syntax", UNEXPECTED_CHAR)
            self.pos += 1
        return Element(terms)

    def term(self, sign: float) -> tuple[tuple[int, ...], float]:
        self.skip_spaces()
        ch = self.peek()
        if not ch:
            self.fail(self.pos, "expected a term", EMPTY_TERM)
        if ch in "+-":
            self.fail(self.pos, "expected a term, not another sign", EMPTY_TERM)
        if ch == "*":
            self.fail(self.pos, "'*' needs a coefficient before it", UNEXPECTED_CHAR)
        if ch in _DIGITS or ch == ".":
            coeff = self.number()
            self.skip_spaces()
            if self.peek() == "*":
                self.pos += 1
                self.skip_spaces()
                if not _is_ascii_letter(self.peek()):
                    self.fail(self.pos, "expected generator letters after '*'", EMPTY_TERM)
                return (self.letters(), sign * coeff)
            if _is_ascii_letter(self.peek()):
                return (self.letters(), sign * coeff)
            return ((), sign * coeff)
        if _is_ascii_letter(ch):
            return (self.letters(), sign)
        self.fail(self.pos, f"character {ch!r} is not element syntax", UNEXPECTED_CHAR)

    def number(self) -> float:
        start = self.pos
        digits = 0
        dot = -1
        while True:
            ch = self.peek()
            if ch in _DIGITS:
                digits += 1
            elif ch == ".":
                if dot >= 0:
                    self.fail(self.pos, "number has a second decimal point", BAD_NUMBER)
                dot = self.pos
            else:
                break
            self.pos += 1
        if digits == 0:
            self.fail(start, "number has no digits", BAD_NUMBER)
        value = float(self.text[start:self.pos])
        if not math.isfinite(value):
            self.fail(start, "number is too large for a float", BAD_NUMBER)
        return value

    def letters(self) -> tuple[int, ...]:
        start = self.pos
        while _is_ascii_letter(self.peek()):
            self.pos += 1
        return word_from_text(self.text[start:self.pos])
