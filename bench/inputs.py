"""Input helpers shared by the workloads: trimming, element text in the
flat syntax, and scripted sessions with their expected output lines."""

from __future__ import annotations

import random

from ncpoly import Element, canonical_print, commutator, derivative, substitute

import reference as ref


def trimmed(element: Element, n: int, rng: random.Random) -> Element:
    """Exactly ``n`` of the element's terms, chosen by ``rng``."""
    terms = element.terms()
    if len(terms) < n:
        raise ValueError(f"only {len(terms)} terms, {n} needed")
    return Element(rng.sample(terms, n))


def flat_text(terms, rng: random.Random, separators=("*", "", " ")) -> str:
    """Element syntax for ``(word, coeff)`` pairs in the given order, with
    the separators between coefficient and word varied (``3*xY``, ``3xY``,
    ``3 xY``) and signs with or without a following space.  Words must be
    free of differential tokens."""
    parts = []
    for i, (word, coeff) in enumerate(terms):
        sign = "-" if coeff < 0 else "+"
        magnitude = ref.format_coefficient(abs(coeff))
        if word:
            body = magnitude + rng.choice(separators) + ref.word_text(word)
        else:
            body = magnitude
        if i == 0 and sign == "+" and rng.random() < 0.5:
            parts.append(body)
        else:
            parts.append(sign + rng.choice((" ", "")) + body)
    return " ".join(parts) if parts else "0"


def session_script(first: Element, second: Element, letter: str, rng: random.Random):
    """Session lines over two bound elements, and the lines they must
    print, computed with the library's own operations.

    The lines use bindings, ``*``, ``^``, brackets, ``deriv`` and ``subs``.
    The session syntax has no ``3 xY`` form, so terms are written
    ``3*xY`` or ``3xY``.
    """
    other = "b" if letter != "b" else "c"
    replacement = Element([((ref_letter(other), -ref_letter(letter)), 2.0)])
    expected = [
        (f"p1 = {flat_text(first.terms(), rng, ('*', ''))}", None),
        (f"p2 = {flat_text(second.terms(), rng, ('*', ''))}", None),
        ("p1*p2", first * second),
        ("(p1 + 2)^3", (first + 2) ** 3),
        ("[p1, p2]", commutator(first, second)),
        (f"deriv(p1*p2, {letter})", derivative(first * second, letter)),
        (
            f"subs(p1, {letter}=2{other}{letter.upper()})",
            substitute(first, [(letter, replacement)]),
        ),
        ("p2^2 - p2*p2", Element()),
    ]
    lines = [line for line, _ in expected]
    return lines, [canonical_print(value) for _, value in expected if value is not None]


def ref_letter(letter: str) -> int:
    return ord(letter) - 96
