"""Symbols and words: the monomial layer of the algebra.

A symbol is a plain ``int``:

* ``1 .. 26``     the generator letters a..z
* ``-1 .. -26``   their group inverses, printed as uppercase A..Z
* ``101 .. 126``  differential tokens, printed ``(da)`` .. ``(dz)``

A word is a tuple of symbols and is kept *reduced*: a letter never sits
next to its own inverse.  Differential tokens are inert; they cancel
with nothing and have no inverse.

This module is the one place that knows the alphabet.  One table, built
once at import, maps every symbol code to its printed text and its
collation rank; checking, printing, reading and sorting symbols and
words are all lookups in it.

Boundary rule: each input is checked once, where it enters, and then
goes to ``reduce_checked``, the one unchecked stack pass: ``reduce_word``
checks symbol codes (``Element(...)``), ``word_from_text`` letters text
(``parse``) and ``textio.from_json`` JSON entries, each by lookups in the
table.  Internal joins such as ``join_reduced`` assume reduced input and
cancel only at the seam; their words go to ``Element._from_reduced``.
"""

from __future__ import annotations

from collections.abc import Iterable

DIFF_BASE = 100

Word = tuple

# The symbol table, inserted in collation order: ASCII of the printed
# letter, so uppercase inverses come first, with each differential token
# immediately after its own letter.
_TEXT: dict[int, str] = {-i: ch for i, ch in enumerate("ABCDEFGHIJKLMNOPQRSTUVWXYZ", 1)}
for _i, _ch in enumerate("abcdefghijklmnopqrstuvwxyz", 1):
    _TEXT[_i] = _ch
    _TEXT[DIFF_BASE + _i] = f"(d{_ch})"
_RANK: dict[int, int] = {sym: rank for rank, sym in enumerate(_TEXT)}
_CODE: dict[str, int] = {text: sym for sym, text in _TEXT.items() if sym < DIFF_BASE}


def letter_index(letter: str | int) -> int:
    """Normalize ``'a'``..``'z'`` or ``1``..``26`` to a letter index."""
    if isinstance(letter, str):
        code = _CODE.get(letter, 0)
        if code > 0:
            return code
        raise ValueError(f"not a generator letter: {letter!r}")
    if isinstance(letter, bool) or not isinstance(letter, int):
        raise TypeError(f"letter must be 'a'..'z' or 1..26, got {letter!r}")
    if not 1 <= letter <= 26:
        raise ValueError(f"letter index out of range 1..26: {letter}")
    return letter


letter = letter_index


def inverse(x: str | int) -> int:
    """Symbol code of the group inverse of a letter."""
    return -letter_index(x)


def differential(x: str | int) -> int:
    """Symbol code of the differential token of a letter."""
    return DIFF_BASE + letter_index(x)


def check_symbol(sym: int) -> int:
    if isinstance(sym, bool) or not isinstance(sym, int):
        raise TypeError(f"symbol must be an int code, got {sym!r}")
    if sym not in _TEXT:
        raise ValueError(f"invalid symbol code: {sym}")
    return sym


def symbol_text(sym: int) -> str:
    """Printed form: ``a``, uppercase ``A`` for the inverse, ``(da)`` for the differential."""
    return _TEXT[check_symbol(sym)]


def word_sort_key(word: Word) -> bytes:
    """Lexicographic word key; a proper prefix sorts before its extensions."""
    return bytes(map(_RANK.__getitem__, word))


def word_text(word: Word) -> str:
    return "".join(map(_TEXT.__getitem__, word))


def reduce_word(symbols: Iterable[int]) -> Word:
    """Validate and fully reduce a raw symbol sequence."""
    symbols = tuple(symbols)
    for sym in symbols:
        check_symbol(sym)
    return reduce_checked(symbols)


def reduce_checked(symbols: Iterable[int]) -> Word:
    """Fully reduce a sequence of symbol codes that are already checked.

    Adjacent letter/inverse pairs cancel, and cancellation cascades:
    removing one pair may expose another.  Free-group reduction is
    confluent, so a single left-to-right stack pass produces the unique
    reduced word regardless of the order pairs are removed in.
    """
    out: list[int] = []
    for sym in symbols:
        # only a letter/inverse pair can be mutual negatives
        if out and out[-1] == -sym:
            out.pop()
        else:
            out.append(sym)
    return tuple(out)


def join_reduced(left: Word, right: Word) -> Word:
    """Product of two reduced words: only pairs across the seam can cancel."""
    if not left or not right or left[-1] != -right[0]:
        return left + right
    k = 1
    n = min(len(left), len(right))
    while k < n and left[-1 - k] == -right[k]:
        k += 1
    return left[:-k] + right[k:]


def invert_word(word: Iterable[int]) -> Word:
    """Group inverse of a word: reverse it and invert every symbol."""
    out = []
    for sym in reversed(tuple(word)):
        if check_symbol(sym) > DIFF_BASE:
            raise ValueError("differential tokens have no inverse")
        out.append(-sym)
    return tuple(out)


def word_from_text(text: str) -> Word:
    """Read letters like ``"xxY"`` into a reduced word (no differentials)."""
    try:
        return reduce_checked([_CODE[ch] for ch in text])
    except KeyError as exc:
        raise ValueError(f"not a generator letter: {exc.args[0]!r}") from None
