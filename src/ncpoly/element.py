"""Elements of the algebra: finite real combinations of reduced words."""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from numbers import Real

from .words import DIFF_BASE, SYMBOLS, decode_word, encode_word, join_reduced, reduce_checked, text_word


# the most terms, and the most symbols in all, that ``**`` may build;
# ``*`` is unbounded, and ``_check_product`` applies the limit to one product
POWER_LIMIT = 10**6


def _check_size(what: str, terms: int, symbols: int) -> None:
    if terms > POWER_LIMIT or symbols > POWER_LIMIT:
        raise OverflowError(f"{what} could exceed the limit of {POWER_LIMIT} terms or symbols in all")


def _check_product(a: Element, b: Element) -> int:
    """Refuse ``a * b`` when it could pass POWER_LIMIT terms or symbols in all; else return the symbol bound.

    The symbols in all are at most ``len(b)*S(a) + len(a)*S(b)``, ``S`` summing word lengths.
    The bounds count the operands, so terms that collided or cancelled earlier do not.
    """
    symbols = len(b) * sum(map(len, a._terms)) + len(a) * sum(map(len, b._terms))
    _check_size("product", len(a) * len(b), symbols)
    return symbols


class NonFiniteCoefficient(ArithmeticError, ValueError):
    """A coefficient or matrix entry is infinite or NaN, given so or reached by arithmetic."""


def _normal(data: dict[bytes, float]) -> dict[bytes, float]:
    """The stored form of every element: summed terms, zero and ``-0.0`` dropped.

    The one place that enforces the invariant; raises NonFiniteCoefficient
    when a coefficient is infinite or NaN.
    """
    # 0.0 and -0.0 are the only falsy floats
    if not all(data.values()):
        data = {w: c for w, c in data.items() if c != 0.0}
    # one sum tests every value at once; only a non-finite sum, which
    # finite values can also reach by overflow, needs the value by value test
    if not math.isfinite(sum(data.values())):
        for coeff in data.values():
            if not math.isfinite(coeff):
                raise NonFiniteCoefficient(f"coefficient {coeff!r} is not finite")
    return data


class Element:
    """A finite formal sum of reduced words with nonzero real coefficients.

    The zero element stores no terms at all.  Instances are immutable:
    arithmetic always builds a new Element and never touches its inputs,
    so values can be shared freely across threads.

    Terms may be given as a mapping or an iterable of ``(word, coeff)``
    pairs.  Words are raw symbol sequences; construction reduces them,
    collects like terms and drops zero coefficients::

        Element({(1, 2): 2})          # 2*ab
        Element([((24, -24), 1.0)])   # x then x^-1, collapses to the constant 1
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable | None = None):
        data: dict[bytes, float] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for word, coeff in items:
                word = reduce_checked(encode_word(word))
                data[word] = data.get(word, 0.0) + float(coeff)
        self._terms = _normal(data)

    @classmethod
    def _from_reduced(cls, data: dict[bytes, float]) -> "Element":
        """Internal constructor from summed terms whose words are already reduced.

        Skips word validation; zero coefficients may remain and are dropped.
        """
        el = object.__new__(cls)
        el._terms = _normal(data)
        return el

    @classmethod
    def zero(cls) -> "Element":
        return cls._from_reduced({})

    @classmethod
    def one(cls) -> "Element":
        return cls._from_reduced({b"": 1.0})

    @classmethod
    def constant(cls, value: float) -> "Element":
        return cls._from_reduced({b"": float(value)})

    @classmethod
    def from_word(cls, word, coeff: float = 1.0) -> "Element":
        """Single term ``coeff * word``; accepts letters text like ``"xxY"``."""
        return cls._from_reduced({_word_argument(word): float(coeff)})

    # ------------------------------------------------------------------
    # queries

    def terms(self) -> list[tuple[tuple[int, ...], float]]:
        """Term list ``(word, coeff)`` in canonical print order."""
        return [(decode_word(word), coeff) for word, coeff in self._sorted()]

    def support(self) -> list[tuple[int, ...]]:
        """The words carrying nonzero coefficients, in print order."""
        return list(map(decode_word, sorted(self._terms)))

    def _sorted(self) -> list[tuple[bytes, float]]:
        """The stored terms, words as ``bytes``, in print order, for the library's own modules."""
        return sorted(self._terms.items())

    def coeff(self, word) -> float:
        """Coefficient of a word, 0.0 when absent; accepts letters text."""
        return self._terms.get(_word_argument(word), 0.0)

    @property
    def constant_term(self) -> float:
        return self._terms.get(b"", 0.0)

    def letters(self) -> set[int]:
        """Letter indices used anywhere (inverses and differentials included)."""
        return {abs(SYMBOLS[rank]) % DIFF_BASE for rank in set(b"".join(self._terms))}

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __reduce__(self):
        # a pickle holds the public form only, and loads through the checked constructor
        return Element, (self.terms(),)

    def __eq__(self, other) -> bool:
        if isinstance(other, Element):
            return self._terms == other._terms
        if isinstance(other, Real) and not isinstance(other, bool):
            return self._terms.keys() <= {b""} and self.constant_term == float(other)
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals the plain number, so it must hash like one
        if self._terms.keys() <= {b""}:
            return hash(self.constant_term)
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------------
    # ring structure

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for word, coeff in other._terms.items():
            data[word] = data.get(word, 0.0) + coeff
        return Element._from_reduced(data)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "Element":
        return Element._from_reduced({w: -c for w, c in self._terms.items()})

    def __pos__(self) -> "Element":
        return self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        data: dict[bytes, float] = {}
        left, right = self._terms.items(), other._terms.items()
        # a one-term operand gives distinct products; otherwise visit terms in
        # collation order, so collisions are summed in an order fixed by the values
        if len(left) > 1 and len(right) > 1:
            left, right = self._sorted(), other._sorted()
        for w1, c1 in left:
            for w2, c2 in right:
                word = join_reduced(w1, w2)
                data[word] = data.get(word, 0.0) + c1 * c2
        return Element._from_reduced(data)

    # a scalar, the only other operand, commutes with everything
    __rmul__ = __mul__

    def __pow__(self, n):
        if isinstance(n, bool) or not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("elements are not invertible in general; power must be >= 0")
        result = Element.one()
        base = self
        while n:
            if n & 1:
                result = _bounded_product(result, base)
            n >>= 1
            if n:
                base = _bounded_product(base, base)
        return result

    def commutator(self, other: "Element") -> "Element":
        """``self*other - other*self``."""
        return self * other - other * self

    def __str__(self) -> str:
        from .textio import canonical_print

        return canonical_print(self)

    def __repr__(self) -> str:
        return f"<Element {self}>"


def _bounded_product(a: Element, b: Element) -> Element:
    """``a * b``, refused by ``_check_product``."""
    _check_product(a, b)
    return a * b


def _word_argument(word) -> bytes:
    """A public word argument, letters text or a symbol sequence, as a reduced stored word."""
    return text_word(word) if isinstance(word, str) else reduce_checked(encode_word(word))


def _coerce(value):
    if isinstance(value, Element):
        return value
    if isinstance(value, Real) and not isinstance(value, bool):
        return Element.constant(value)
    return None


def commutator(a: Element, b: Element) -> Element:
    """Bracket ``[a, b] = a*b - b*a``."""
    return a.commutator(b)
