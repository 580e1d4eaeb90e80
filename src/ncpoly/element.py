"""Elements of the algebra: finite real combinations of reduced words."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from numbers import Real

from .words import Word, base_letter, join_reduced, reduce_word, word_from_text, word_sort_key


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
        data: dict[Word, float] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for word, coeff in items:
                word = reduce_word(word)
                data[word] = data.get(word, 0.0) + float(coeff)
            data = {w: c for w, c in data.items() if c != 0.0}
        self._terms = data

    @classmethod
    def _from_reduced(cls, data: dict[Word, float]) -> "Element":
        # fast path: words already reduced, zero coefficients already dropped
        el = object.__new__(cls)
        el._terms = data
        return el

    @classmethod
    def zero(cls) -> "Element":
        return cls._from_reduced({})

    @classmethod
    def one(cls) -> "Element":
        return cls._from_reduced({(): 1.0})

    @classmethod
    def constant(cls, value: float) -> "Element":
        value = float(value)
        return cls._from_reduced({(): value} if value != 0.0 else {})

    @classmethod
    def from_word(cls, word, coeff: float = 1.0) -> "Element":
        """Single term ``coeff * word``; accepts letters text like ``"xxY"``."""
        if isinstance(word, str):
            word = word_from_text(word)
        return cls([(tuple(word), coeff)])

    # ------------------------------------------------------------------
    # queries

    def terms(self) -> list[tuple[Word, float]]:
        """Term list ``(word, coeff)`` in canonical print order."""
        return sorted(self._terms.items(), key=lambda item: word_sort_key(item[0]))

    def support(self) -> list[Word]:
        """The words carrying nonzero coefficients, in print order."""
        return sorted(self._terms, key=word_sort_key)

    def coeff(self, word) -> float:
        """Coefficient of a word, 0.0 when absent; accepts letters text."""
        if isinstance(word, str):
            word = word_from_text(word)
        else:
            word = reduce_word(word)
        return self._terms.get(word, 0.0)

    @property
    def constant_term(self) -> float:
        return self._terms.get((), 0.0)

    def letters(self) -> set[int]:
        """Letter indices used anywhere (inverses and differentials included)."""
        return {base_letter(sym) for word in self._terms for sym in word}

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Element):
            return self._terms == other._terms
        if isinstance(other, Real) and not isinstance(other, bool):
            return self._terms == Element.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals the plain number, so it must hash like one
        if self._terms.keys() <= {()}:
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
            total = data.get(word, 0.0) + coeff
            if total == 0.0:
                data.pop(word, None)
            else:
                data[word] = total
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
        if isinstance(other, Element):
            data: dict[Word, float] = {}
            # visit terms in word order, so colliding contributions are
            # summed in an order fixed by the values, not by dict history
            right = sorted(other._terms.items())
            for w1, c1 in sorted(self._terms.items()):
                for w2, c2 in right:
                    word = join_reduced(w1, w2)
                    data[word] = data.get(word, 0.0) + c1 * c2
            return Element._from_reduced({w: c for w, c in data.items() if c != 0.0})
        if isinstance(other, Real) and not isinstance(other, bool):
            scale = float(other)
            if scale == 0.0:
                return Element.zero()
            return Element._from_reduced({w: c * scale for w, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Real) and not isinstance(other, bool):
            # scalars commute with everything
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if isinstance(n, bool) or not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("elements are not invertible in general; power must be >= 0")
        result = Element.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def commutator(self, other: "Element") -> "Element":
        """``self*other - other*self``."""
        return self * other - other * self

    def __str__(self) -> str:
        from .textio import canonical_print

        return canonical_print(self)

    def __repr__(self) -> str:
        return f"<Element {self}>"


def _coerce(value):
    if isinstance(value, Element):
        return value
    if isinstance(value, Real) and not isinstance(value, bool):
        return Element.constant(value)
    return None


def commutator(a: Element, b: Element) -> Element:
    """Bracket ``[a, b] = a*b - b*a``."""
    return a.commutator(b)
