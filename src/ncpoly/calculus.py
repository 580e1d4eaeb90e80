"""Substitution and position-wise differentiation of elements."""

from __future__ import annotations

from .element import Element, _coerce
from .parsing import parse
from .words import DIFF_BASE, Word, invert_word, join_reduced, letter_index


class NonInvertibleReplacement(ValueError):
    """Substituting into an inverse occurrence needs an invertible replacement:
    a single nonzero term whose word is free of differential tokens."""


def substitute(element: Element, pairs=None, /, **named) -> Element:
    """Apply letter substitutions one after another, strictly in order.

    ``pairs`` is an ordered iterable of ``(letter, replacement)``;
    keyword arguments append more pairs in keyword order, so
    ``substitute(e, b="1+3x", x="1+d+2e")`` rewrites ``b`` first and the
    ``x`` it introduced afterwards.  A replacement may be an Element,
    element syntax text, or a number.

    A positive occurrence of the target letter becomes the replacement.
    An inverse occurrence requires the replacement to be one term
    ``c*w`` with ``c != 0`` and becomes ``(1/c) * w^-1``; anything else
    raises NonInvertibleReplacement (only when such an occurrence is
    actually present).
    """
    result = element
    seq = list(pairs or ())
    seq.extend(named.items())
    for target, replacement in seq:
        result = _substitute_one(result, letter_index(target), _as_element(replacement))
    return result


def derivative(element: Element, letter: str | int) -> Element:
    """Position-wise Leibniz derivative with respect to one letter.

    Every occurrence of the letter in a word contributes a copy of that
    word with the occurrence replaced by the letter's differential
    token; an occurrence of the inverse letter contributes the word with
    it replaced by inverse, token, inverse, negated (forced by
    differentiating ``x * x^-1 = 1``).  Differential tokens already
    present are inert constants, and so is every other letter.
    """
    target = letter_index(letter)
    token = DIFF_BASE + target
    out: dict[Word, float] = {}
    for word, coeff in element.terms():
        for i, sym in enumerate(word):
            # still reduced: neither replacement puts a letter next to its inverse
            if sym == target:
                new = word[:i] + (token,) + word[i + 1:]
                delta = coeff
            elif sym == -target:
                new = word[:i] + (-target, token, -target) + word[i + 1:]
                delta = -coeff
            else:
                continue
            out[new] = out.get(new, 0.0) + delta
    return Element._from_reduced(out)


def _as_element(value) -> Element:
    element = parse(value) if isinstance(value, str) else _coerce(value)
    if element is None:
        raise TypeError(f"cannot use {value!r} as a replacement")
    return element


def _substitute_one(element: Element, target: int, replacement: Element) -> Element:
    images = {target: replacement}
    out: dict[Word, float] = {}
    for word, coeff in element.terms():
        acc = {(): coeff}
        start = 0
        for i, sym in enumerate(word):
            if sym == target or sym == -target:
                # joining one run onto distinct reduced words keeps them distinct
                run = word[start:i]
                acc = {join_reduced(w, run): c for w, c in acc.items()}
                if sym not in images:
                    images[sym] = _inverted(replacement)
                acc = (Element._from_reduced(acc) * images[sym])._terms
                start = i + 1
        run = word[start:]
        for w, c in acc.items():
            w = join_reduced(w, run)
            out[w] = out.get(w, 0.0) + c
    return Element._from_reduced(out)


def _inverted(replacement: Element) -> Element:
    terms = replacement.terms()
    if len(terms) != 1:
        raise NonInvertibleReplacement(
            "replacement for an inverted letter must be a single nonzero term"
        )
    ((word, coeff),) = terms
    try:
        inverted = invert_word(word)
    except ValueError:
        raise NonInvertibleReplacement(
            "replacement word contains a differential token and cannot be inverted"
        ) from None
    return Element._from_reduced({inverted: 1.0 / coeff})
