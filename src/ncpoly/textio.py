"""Canonical printing and the JSON interchange format.

Both renderings use one fixed total order so equal elements always
produce identical text: words compare lexicographically by the ASCII of
their printed symbols (uppercase inverses before lowercase letters, a
prefix before its extensions), with each differential token placed
immediately after its own letter.
"""

from __future__ import annotations

import json
import math

from .element import Element
from .parsing import BAD_NUMBER, UNEXPECTED_CHAR, ParseError
from .words import DIFF_BASE, differential, is_differential, symbol_text, word_text


def format_coefficient(value: float) -> str:
    """Shortest decimal that round-trips; integral values print bare."""
    value = float(value)
    if value.is_integer():
        return str(int(value))
    text = repr(value)
    if "e" in text:
        # repr writes values below 1e-4 as e.g. "1e-05", which both
        # grammars would read as the coefficient 1 times the letter e
        from decimal import Decimal

        text = format(Decimal(text), "f")
    return text


def canonical_print(element: Element) -> str:
    """Render an element canonically; the zero element prints as ``0``.

    Terms appear in collation order, each as sign, space, unsigned
    coefficient, ``*`` and the word's letters.  The ``*word`` part is
    dropped for the empty word, e.g. ``+ 3 + 5*X - 2*Xyx``.
    """
    terms = element.terms()
    if not terms:
        return "0"
    parts = []
    for word, coeff in terms:
        sign = "-" if coeff < 0 else "+"
        magnitude = format_coefficient(abs(coeff))
        body = f"{magnitude}*{word_text(word)}" if word else magnitude
        parts.append(f"{sign} {body}")
    return " ".join(parts)


def to_json(element: Element) -> str:
    """Serialize to ``{"terms":[{"word":[...],"coeff":n}, ...]}``.

    A word entry is the signed letter index (positive for a letter,
    negative for its inverse) or a string like ``"da"`` for a
    differential token.  Terms are emitted in collation order and fields
    in a fixed order, so output bytes are reproducible.
    """
    terms = [
        {
            "word": [_symbol_to_json(s) for s in word],
            "coeff": int(coeff) if coeff.is_integer() else coeff,
        }
        for word, coeff in element.terms()
    ]
    return json.dumps({"terms": terms}, separators=(",", ":"), allow_nan=False)


def from_json(text: str) -> Element:
    """Rebuild an element from its JSON form, normalizing on the way in.

    Raises ParseError on malformed JSON, schema violations, out-of-range
    symbol integers and non-numeric coefficients.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.pos, f"invalid JSON: {exc.msg}", UNEXPECTED_CHAR) from None
    except ValueError as exc:  # an integer too long for int(), see sys.set_int_max_str_digits
        raise ParseError(0, f"invalid JSON number: {exc}", BAD_NUMBER) from None
    if not isinstance(obj, dict) or set(obj) != {"terms"} or not isinstance(obj["terms"], list):
        raise ParseError(0, 'expected an object of the form {"terms": [...]}', UNEXPECTED_CHAR)
    pairs = []
    for entry in obj["terms"]:
        if not isinstance(entry, dict) or set(entry) != {"word", "coeff"}:
            raise ParseError(0, 'each term needs exactly "word" and "coeff"', UNEXPECTED_CHAR)
        if not isinstance(entry["word"], list):
            raise ParseError(0, '"word" must be a list of symbols', UNEXPECTED_CHAR)
        word = tuple(_symbol_from_json(value) for value in entry["word"])
        coeff = entry["coeff"]
        if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
            raise ParseError(0, f'"coeff" must be a number, got {coeff!r}', BAD_NUMBER)
        try:
            value = float(coeff)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ParseError(0, '"coeff" must be a finite float', BAD_NUMBER)
        pairs.append((word, value))
    return Element(pairs)


def _symbol_to_json(sym: int):
    if is_differential(sym):
        return "d" + symbol_text(sym - DIFF_BASE)
    return sym


def _symbol_from_json(value) -> int:
    if isinstance(value, bool):
        raise ParseError(0, f"invalid symbol entry: {value!r}", BAD_NUMBER)
    if isinstance(value, int):
        if value == 0 or abs(value) > 26:
            raise ParseError(0, f"symbol integer out of range: {value}", BAD_NUMBER)
        return value
    if isinstance(value, str) and value[:1] == "d":
        try:
            return differential(value[1:])
        except ValueError:
            pass
    raise ParseError(0, f"invalid symbol entry: {value!r}", BAD_NUMBER)
