"""Substitution and position-wise differentiation of elements, and their size rules."""

from __future__ import annotations

import math
from contextlib import suppress

from .element import Element, _check_size, _coerce
from .parsing import parse
from .words import DIFF_BASE, encode_word, invert_stored, join_reduced, letter_index, reduce_checked


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
    An inverse occurrence becomes ``(1/c) * w^-1`` and needs a one-term
    replacement ``c*w`` whose word has no differential token: a word with
    an inverse occurrence raises NonInvertibleReplacement under any other
    replacement, before any term is computed.  Cost: one pass over each
    word for a one-term replacement, otherwise within a constant factor
    of the output.
    """
    for target, replacement in [*(pairs or ()), *named.items()]:
        element = _substitute_one(element, letter_index(target), _as_element(replacement))
    return element


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


def _bounded_derivative(element: Element, letter: int) -> Element:
    """``derivative``, refused when its terms or their symbols in all could pass POWER_LIMIT."""
    up, down = encode_word((letter, -letter))
    terms = symbols = 0
    for word in element._terms:
        hits = word.count(up) + word.count(down)
        terms += hits
        symbols += hits * (len(word) + 2)
    _check_size("deriv", terms, symbols)
    return derivative(element, letter)


def _bounded_substitution(element: Element, pairs: list[tuple[int, Element]]) -> Element:
    """``substitute`` of (letter, replacement) pairs, one after another, each
    refused like ``_bounded_derivative`` against the result so far.

    A word with k occurrences of the letter and m of its inverse becomes at
    most n**k terms, n being the replacement's term count, each at most
    len(word) + (k + m) * (longest - 1) symbols long, longest being the
    replacement's longest word.
    """
    for letter, replacement in pairs:
        up, down = encode_word((letter, -letter))
        n = len(replacement)
        longest = max(map(len, replacement._terms), default=0)
        terms = symbols = 0
        for word in element._terms:
            k, m = word.count(up), word.count(down)
            # n**20 is past the limit for any n above 1, so the exponent stops there
            count = n ** min(k, 20)
            terms += count
            symbols += count * (len(word) + (k + m) * (longest - 1))
        _check_size("subs", terms, symbols)
        element = _substitute_one(element, letter, replacement)
    return element


def _as_element(value) -> Element:
    element = parse(value) if isinstance(value, str) else _coerce(value)
    if element is None:
        raise TypeError(f"cannot use {value!r} as a replacement")
    return element


def _substitute_one(element: Element, target: int, replacement: Element) -> Element:
    up, down = encode_word((target, -target))
    # by rank, the piece a symbol becomes and the factor it brings: a one-term
    # replacement c*w sends the letter to w and c, and its inverse to w^-1 and 1/c
    pieces = [bytes((rank,)) for rank in range(256)]
    factors = [1.0] * 256
    pieces[down] = None
    if len(replacement) == 1:
        ((image, c),) = replacement._terms.items()
        pieces[up], factors[up] = image, c
        with suppress(ValueError):  # a word with a differential token has no inverse
            pieces[down], factors[down] = invert_stored(image), 1.0 / c
    if pieces[down] is None and any(down in word for word in element._terms):
        raise NonInvertibleReplacement(
            "an inverse occurrence needs a one-term replacement free of differential tokens"
        )
    out: dict[bytes, float] = {}
    for word, coeff in element._sorted():
        if len(replacement) == 1:
            # free reduction is confluent: one pass over the joined pieces gives their reduced product,
            # and a factor 1.0 is exact, so the coefficient takes the image factors in occurrence order
            new = reduce_checked(b"".join(map(pieces.__getitem__, word)))
            acc = {new: math.prod(map(factors.__getitem__, word), start=coeff)}
        else:
            # zero or several terms: expand occurrence by occurrence
            runs = word.split(bytes((up,)))
            acc = {runs[0]: coeff}
            for run in runs[1:]:
                acc = (Element._from_reduced(acc) * replacement)._terms
                # joining one run onto distinct reduced words keeps them distinct
                acc = {join_reduced(w, run): c for w, c in acc.items()}
        for w, c in acc.items():
            out[w] = out.get(w, 0.0) + c
    return Element._from_reduced(out)
