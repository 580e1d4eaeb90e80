"""Canonical printing and the JSON interchange format.

Both renderings list terms in the one collation order of
``ncpoly.words``, in which a stored word is its own sort key, so equal
elements always produce identical text.  Both write each word through
a by-rank ``str.translate`` table, so ``json`` loads only to read.
"""

from __future__ import annotations

import math

from .element import Element
from .parsing import BAD_NUMBER, UNEXPECTED_CHAR, ParseError
from .words import _RANK_TEXT, SYMBOLS, reduce_checked, word_text

# a JSON word entry, by rank: the signed letter index, or "da".."dz" for a differential
# token; _JSON_ENTRY holds its JSON text and a trailing comma (a str.translate table)
_TO_JSON = tuple(text[1:-1] if text[0] == "(" else sym for sym, text in zip(SYMBOLS, _RANK_TEXT))
_FROM_JSON = {entry: rank for rank, entry in enumerate(_TO_JSON)}
_JSON_ENTRY = tuple(f'"{entry}",' if type(entry) is str else f"{entry}," for entry in _TO_JSON)


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
    terms = element._sorted()
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
    in a fixed order, so output bytes are reproducible: those of compact
    ``json.dumps``, as every coefficient is finite, integral ones as ints.
    """
    terms = ",".join([
        f'{{"word":[{word_text(word, _JSON_ENTRY)[:-1]}],'
        f'"coeff":{(int(coeff) if coeff.is_integer() else coeff)!r}}}'
        for word, coeff in element._sorted()
    ])
    return f'{{"terms":[{terms}]}}'


def _unique_keys(pairs: list) -> dict:
    """The ``object_pairs_hook`` of every document: a repeated key is refused, not overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ParseError(0, f"repeated key {key!r}", UNEXPECTED_CHAR)
    return obj


def _load_json(text: str):
    """The one JSON document reader: every way it can fail, a repeated key included, is a ParseError."""
    import json

    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.pos, f"invalid JSON: {exc.msg}", UNEXPECTED_CHAR) from None
    except RecursionError:
        raise ParseError(0, "invalid JSON: nested too deeply", UNEXPECTED_CHAR) from None
    except ParseError:  # a repeated key, from _unique_keys
        raise
    except ValueError as exc:  # an integer too long for int(), see sys.set_int_max_str_digits
        raise ParseError(0, f"invalid JSON number: {exc}", BAD_NUMBER) from None


def from_json(text: str) -> Element:
    """Rebuild an element from its JSON form, normalizing on the way in.

    Raises ParseError on malformed JSON, a repeated key, schema violations, word entries
    that are not in the symbol table and non-numeric coefficients.
    """
    obj = _load_json(text)
    if not isinstance(obj, dict) or set(obj) != {"terms"} or not isinstance(obj["terms"], list):
        raise ParseError(0, 'expected an object of the form {"terms": [...]}', UNEXPECTED_CHAR)
    terms: dict[bytes, float] = {}
    for entry in obj["terms"]:
        if not isinstance(entry, dict) or set(entry) != {"word", "coeff"}:
            raise ParseError(0, 'each term needs exactly "word" and "coeff"', UNEXPECTED_CHAR)
        word = entry["word"]
        if not isinstance(word, list):
            raise ParseError(0, '"word" must be a list of symbols', UNEXPECTED_CHAR)
        # the type guard keeps true from matching 1, and unhashable entries from the lookup
        try:
            if not {int, str}.issuperset(map(type, word)):
                raise KeyError
            word = reduce_checked(bytes(map(_FROM_JSON.__getitem__, word)))
        except KeyError:
            value = next(v for v in word if type(v) not in (int, str) or v not in _FROM_JSON)
            raise ParseError(0, f"invalid symbol entry: {value!r}", BAD_NUMBER) from None
        coeff = entry["coeff"]
        if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
            raise ParseError(0, f'"coeff" must be a number, got {coeff!r}', BAD_NUMBER)
        try:
            value = float(coeff)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ParseError(0, '"coeff" must be a finite float', BAD_NUMBER)
        terms[word] = terms.get(word, 0.0) + value
    return Element._from_reduced(terms)
