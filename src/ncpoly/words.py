"""Symbols and words: the monomial layer of the algebra.

A symbol is a plain ``int``:

* ``1 .. 26``     the generator letters a..z
* ``-1 .. -26``   their group inverses, printed as uppercase A..Z
* ``101 .. 126``  differential tokens, printed ``(da)`` .. ``(dz)``

A word is a tuple of symbols in the public API and is kept *reduced*: a
letter never sits next to its own inverse.  Differential tokens are
inert; they cancel with nothing and have no inverse.

This module is the one place that knows the alphabet and how words are
stored.  One table, built once at import, gives every symbol its printed
text and its collation rank (0..77).  An ``Element`` stores each word as
``bytes`` of ranks, one byte per symbol, so native ``bytes`` order is
the print order and a stored word is its own sort key.  Other modules
map ranks through ``encode_word`` and the tables ``SYMBOLS`` and
``_RANK_TEXT`` (``textio`` builds its JSON tables from the two), and
decode a whole stored word only through ``decode_word``.

Boundary rule: each input is checked once, where it enters, and then
goes to ``reduce_checked``, the one unchecked stack pass: ``encode_word``
checks symbol codes (``Element(...)``), ``text_word`` letters text
(``parse``) and ``textio.from_json`` JSON entries; most words enter
reduced, and one without an adjacent inverse pair, found in C, comes
back as it is.  Its internal callers are the one-term map of
``calculus.substitute``, which reduces a word's joined pieces in one
pass, and ``randomgen.random_element``, which reduces each word it
draws; ``join_reduced`` cancels at one seam.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import eq

DIFF_BASE = 100

# The symbol table, inserted in collation order: ASCII of the printed
# letter, so uppercase inverses come first, with each differential token
# immediately after its own letter.
_TEXT: dict[int, str] = {-i: ch for i, ch in enumerate("ABCDEFGHIJKLMNOPQRSTUVWXYZ", 1)}
for _i, _ch in enumerate("abcdefghijklmnopqrstuvwxyz", 1):
    _TEXT[_i] = _ch
    _TEXT[DIFF_BASE + _i] = f"(d{_ch})"
_CODE: dict[str, int] = {text: sym for sym, text in _TEXT.items() if sym < DIFF_BASE}

# the symbol code of each rank, and the rank of each symbol code
SYMBOLS: tuple[int, ...] = tuple(_TEXT)
_RANK: dict[int, int] = {sym: rank for rank, sym in enumerate(SYMBOLS)}
# by rank: the printed text (a str.translate table), and the rank of the
# inverse letter, 255 (no rank) for a differential token (a bytes.translate table)
_RANK_TEXT = tuple(_TEXT.values())
_INVERSE = bytes(_RANK.get(-sym, 255) for sym in SYMBOLS).ljust(256, b"\xff")
# by rank: the symbol code as a signed byte (-26..126 fit), a bytes.translate table
_SIGNED = bytes(sym & 0xFF for sym in SYMBOLS).ljust(256, b"\0")
# by ASCII code: the rank of a letter, 255 for any other character
_LETTER_RANK = bytes(_RANK[_CODE[ch]] if ch in _CODE else 255 for ch in map(chr, range(256)))


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
    """Check one raw symbol code and give its collation rank."""
    if type(sym) is not int and (isinstance(sym, bool) or not isinstance(sym, int)):
        raise TypeError(f"symbol must be an int code, got {sym!r}")
    try:
        return _RANK[sym]
    except KeyError:
        raise ValueError(f"invalid symbol code: {sym}") from None


def symbol_text(sym: int) -> str:
    """Printed form: ``a``, uppercase ``A`` for the inverse, ``(da)`` for the differential."""
    return _RANK_TEXT[check_symbol(sym)]


def encode_word(symbols: Iterable[int]) -> bytes:
    """Check raw symbol codes and give them as a stored word, not yet reduced."""
    return bytes(map(check_symbol, symbols))


word_sort_key = encode_word  # a stored word is its own sort key; a prefix sorts first


def decode_word(word: bytes) -> tuple[int, ...]:
    """The public form of a stored word: its tuple of symbol codes."""
    return tuple(memoryview(word.translate(_SIGNED)).cast("b"))


def word_text(word: bytes, table: tuple[str, ...] = _RANK_TEXT) -> str:
    """A stored word as text: each rank written by ``table``, by default its printed text."""
    return word.decode("latin-1").translate(table)


def reduce_word(symbols: Iterable[int]) -> tuple[int, ...]:
    """Validate and fully reduce a raw symbol sequence."""
    return decode_word(reduce_checked(encode_word(symbols)))


def reduce_checked(word: bytes) -> bytes:
    """Fully reduce a stored word whose ranks are already checked.

    Adjacent letter/inverse pairs cancel, and cancellation cascades:
    removing one pair may expose another; a word with no adjacent pair
    is handed back as it is.  Free-group reduction is confluent, so one
    left-to-right stack pass gives the unique reduced word.
    """
    if not any(map(eq, word[1:], word.translate(_INVERSE))):
        return word
    out: list[int] = []
    for rank in word:
        if out and out[-1] == _INVERSE[rank]:
            out.pop()
        else:
            out.append(rank)
    return bytes(out)


def join_reduced(left: bytes, right: bytes) -> bytes:
    """Product of two reduced stored words: only pairs across the seam can cancel."""
    if not left or not right or left[-1] != _INVERSE[right[0]]:
        return left + right
    k = 1
    n = min(len(left), len(right))
    while k < n and left[-1 - k] == _INVERSE[right[k]]:
        k += 1
    return left[:-k] + right[k:]


def invert_stored(word: bytes) -> bytes:
    """Group inverse of a stored word: reverse it and invert every symbol."""
    inverted = word[::-1].translate(_INVERSE)
    if 255 in inverted:
        raise ValueError("differential tokens have no inverse")
    return inverted


def invert_word(word: Iterable[int]) -> tuple[int, ...]:
    """Group inverse of a word: reverse it and invert every symbol."""
    return decode_word(invert_stored(encode_word(word)))


def text_word(text: str) -> bytes:
    """Read letters like ``"xxY"`` into a reduced stored word (no differentials)."""
    # every character that is not an ASCII letter, "?" included, becomes 255
    ranks = text.encode("ascii", "replace").translate(_LETTER_RANK)
    if 255 in ranks:
        raise ValueError(f"not a generator letter: {text[ranks.index(255)]!r}")
    return reduce_checked(ranks)


def word_from_text(text: str) -> tuple[int, ...]:
    """Read letters like ``"xxY"`` into a reduced word (no differentials)."""
    return decode_word(text_word(text))
