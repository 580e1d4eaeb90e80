"""Substitution and position-wise differentiation of elements."""

from __future__ import annotations

from .element import Element, _coerce
from .parsing import parse
from .words import DIFF_BASE, encode_word, invert_stored, join_reduced, letter_index


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
    up, down, token = encode_word((target, -target, DIFF_BASE + target))
    # still reduced: neither replacement puts a letter next to its inverse
    images = {up: (bytes((token,)), 1.0), down: (bytes((down, token, down)), -1.0)}
    out: dict[bytes, float] = {}
    for word, coeff in element._sorted():
        for i, rank in enumerate(word):
            if rank in images:
                image, sign = images[rank]
                new = word[:i] + image + word[i + 1:]
                out[new] = out.get(new, 0.0) + sign * coeff
    return Element._from_reduced(out)


def _as_element(value) -> Element:
    element = parse(value) if isinstance(value, str) else _coerce(value)
    if element is None:
        raise TypeError(f"cannot use {value!r} as a replacement")
    return element


def _substitute_one(element: Element, target: int, replacement: Element) -> Element:
    up, down = encode_word((target, -target))
    images = {up: replacement}
    out: dict[bytes, float] = {}
    for word, coeff in element._sorted():
        acc = {b"": coeff}
        start = 0
        for i, rank in enumerate(word):
            if rank == up or rank == down:
                # joining one run onto distinct reduced words keeps them distinct
                run = word[start:i]
                acc = {join_reduced(w, run): c for w, c in acc.items()}
                if rank not in images:
                    images[rank] = _inverted(replacement)
                acc = (Element._from_reduced(acc) * images[rank])._terms
                start = i + 1
        run = word[start:]
        for w, c in acc.items():
            w = join_reduced(w, run)
            out[w] = out.get(w, 0.0) + c
    return Element._from_reduced(out)


def _inverted(replacement: Element) -> Element:
    if len(replacement) != 1:
        raise NonInvertibleReplacement(
            "replacement for an inverted letter must be a single nonzero term"
        )
    ((word, coeff),) = replacement._terms.items()
    try:
        inverted = invert_stored(word)
    except ValueError:
        raise NonInvertibleReplacement(
            "replacement word contains a differential token and cannot be inverted"
        ) from None
    return Element._from_reduced({inverted: 1.0 / coeff})
