"""Seeded random elements, built on a pinned SplitMix64 stream.

The generator is fixed so streams reproduce bit-for-bit across runs,
platforms and ports: SplitMix64 with the usual published constants, all
arithmetic truncated to 64 bits::

    state  += 0x9E3779B97F4A7C15
    z       = state
    z       = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z       = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output  = z ^ (z >> 31)

Derived draws are defined on top of that stream:

* ``below(n)``: ``next_uint64() % n`` with the standard rejection cutoff
  so the result is unbiased.
* ``uniform()``: ``(next_uint64() >> 11) * 2**-53``, a double in [0, 1).
* ``normal()``: Box-Muller on two uniforms; the cosine branch is
  returned first and the sine branch cached for the next call.

Reference outputs are frozen in ``tests/fixtures/prng.json``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .element import POWER_LIMIT, Element
from .words import encode_word, letter_index, reduce_checked

_MASK64 = (1 << 64) - 1
_MAX_ATTEMPTS = 100


class SplitMix64:
    """The pinned 64-bit stream; see the module docstring for the algorithm."""

    __slots__ = ("_state", "_cached_normal")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._cached_normal: float | None = None

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in ``[0, n)``, for ``0 < n <= 2**64``."""
        if n <= 0:
            raise ValueError("bound must be positive")
        cutoff = _MASK64 + 1 - ((_MASK64 + 1) % n)
        # above 2**64 the cutoff is 0, so every draw would be rejected
        if not cutoff:
            raise ValueError("bound must be at most 2**64")
        while True:
            value = self.next_uint64()
            if value < cutoff:
                return value % n

    def uniform(self) -> float:
        """Uniform double in ``[0, 1)`` using the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal draw (Box-Muller)."""
        if self._cached_normal is not None:
            value = self._cached_normal
            self._cached_normal = None
            return value
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._cached_normal = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)


class DegenerateSpec(ValueError):
    """Every attempt at a nonzero element collapsed to zero."""


class RandSpec(namedtuple("RandSpec", "seed n_terms alphabet word_len coeff_range allow_inverse")):
    """Parameters for one reproducible random element.

    ``seed`` and ``n_terms`` are ints and ``allow_inverse`` a bool
    (``TypeError`` otherwise).  ``alphabet`` accepts letter indices or
    letters (a string like ``"abc"`` works).  Both range fields are
    inclusive pairs of ints (a float end must be a whole number) and may
    span at most ``2**64`` values.  ``n_terms``, and ``n_terms`` times the
    longest word, are held to ``element.POWER_LIMIT``, so no draw runs
    away.  The defaults draw small integer coefficients so test
    arithmetic stays exact in doubles.
    """

    __slots__ = ()

    def __new__(
        cls,
        seed: int,
        n_terms: int = 5,
        alphabet: tuple[int, ...] = (1, 2, 3),
        word_len: tuple[int, int] = (1, 4),
        coeff_range: tuple[int, int] = (1, 9),
        allow_inverse: bool = False,
    ):
        for name, value in (("seed", seed), ("n_terms", n_terms)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if not isinstance(allow_inverse, bool):
            raise TypeError(f"allow_inverse must be a bool, got {allow_inverse!r}")
        letters = tuple(sorted({letter_index(x) for x in alphabet}))
        if not letters:
            raise ValueError("alphabet must not be empty")
        word_len = (_range_end("word_len", word_len[0]), _range_end("word_len", word_len[1]))
        coeff_range = (_range_end("coeff_range", coeff_range[0]), _range_end("coeff_range", coeff_range[1]))
        if n_terms < 1:
            raise ValueError("n_terms must be at least 1")
        lo, hi = word_len
        if lo < 0 or hi < lo:
            raise ValueError(f"word_len range is empty or negative: {word_len}")
        lo, hi = coeff_range
        if hi < lo:
            raise ValueError(f"coeff_range is empty: {coeff_range}")
        for name, (lo, hi) in (("word_len", word_len), ("coeff_range", coeff_range)):
            if hi - lo >= 1 << 64:
                raise ValueError(f"{name} spans more than 2**64 values: {(lo, hi)}")
        # every term and every symbol costs a draw, so both are capped like a power
        if max(n_terms, n_terms * word_len[1]) > POWER_LIMIT:
            raise ValueError(f"a draw may hold at most {POWER_LIMIT} terms and symbols: {n_terms} terms, word_len {word_len}")
        return super().__new__(cls, seed, n_terms, letters, word_len, coeff_range, allow_inverse)

    # _replace goes through _make, which would otherwise skip __new__
    _make = classmethod(lambda cls, fields: cls(*fields))


def _range_end(name: str, value) -> int:
    """An int range end; a float is taken only when its value is a whole number."""
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{name} ends must be whole numbers, got {value!r}")
    elif isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} ends must be ints, got {value!r}")
    return int(value)


def random_element(spec: RandSpec) -> Element:
    """Deterministic random element: equal specs give equal values.

    Draw order, from one SplitMix64 stream seeded with ``spec.seed``:
    for each term, the word length, then per symbol the letter followed
    by one extra flip draw when ``allow_inverse`` is set, then the
    coefficient.  Terms are summed and normalized, so fewer than
    ``n_terms`` distinct terms can survive.  If the whole sum collapses
    to zero the draw is retried on the same stream, at most 100 times,
    after which DegenerateSpec is raised.
    """
    rng = SplitMix64(spec.seed)
    len_lo, len_hi = spec.word_len
    coeff_lo, coeff_hi = spec.coeff_range
    # RandSpec checked the alphabet, so its ranks and its inverses' ranks are taken once
    ranks = encode_word(spec.alphabet)
    inverse_ranks = encode_word(-x for x in spec.alphabet)
    for _ in range(_MAX_ATTEMPTS):
        data: dict[bytes, float] = {}
        for _ in range(spec.n_terms):
            length = len_lo + rng.below(len_hi - len_lo + 1)
            word = bytearray()
            for _ in range(length):
                i = rng.below(len(ranks))
                word.append(inverse_ranks[i] if spec.allow_inverse and rng.below(2) == 1 else ranks[i])
            word = reduce_checked(bytes(word))
            data[word] = data.get(word, 0.0) + float(coeff_lo + rng.below(coeff_hi - coeff_lo + 1))
        element = Element._from_reduced(data)
        if element:
            return element
    raise DegenerateSpec(f"no nonzero element in {_MAX_ATTEMPTS} attempts for {spec!r}")
