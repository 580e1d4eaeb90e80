"""Independent references the benchmark checks the program against.

Nothing here imports ncpoly.  Words are tuples of the symbol codes the
package documents: 1..26 for the letters a..z, -1..-26 for their
inverses (printed uppercase), 101..126 for the differential tokens
(printed ``(da)``..``(dz)``).  Everything else is recomputed from that
definition by the slowest obvious method.
"""

from __future__ import annotations

DIFF_BASE = 100


def symbol_text(sym: int) -> str:
    if 1 <= sym <= 26:
        return chr(96 + sym)
    if -26 <= sym <= -1:
        return chr(64 - sym)
    if DIFF_BASE < sym <= DIFF_BASE + 26:
        return "(d" + chr(96 + sym - DIFF_BASE) + ")"
    raise ValueError(f"not a symbol code: {sym}")


def word_text(word) -> str:
    return "".join(symbol_text(s) for s in word)


def naive_reduce(word) -> tuple:
    """Delete the first adjacent letter/inverse pair until none is left."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            # only a letter and its inverse sum to zero; tokens are all > 100
            if word[i] + word[i + 1] == 0:
                del word[i : i + 2]
                changed = True
                break
    return tuple(word)


def naive_product(left: dict, right: dict) -> dict:
    """Expand ``left * right`` term by term; zero coefficients dropped."""
    out: dict = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            word = naive_reduce(w1 + w2)
            out[word] = out.get(word, 0) + c1 * c2
    return {w: c for w, c in out.items() if c != 0}


def naive_sum(*parts: tuple[dict, float]) -> dict:
    """``sum(scale * terms)`` over the given parts; zero coefficients dropped."""
    out: dict = {}
    for terms, scale in parts:
        for word, coeff in terms.items():
            out[word] = out.get(word, 0) + scale * coeff
    return {w: c for w, c in out.items() if c != 0}


def naive_power(base: dict, n: int) -> dict:
    out = {(): 1}
    for _ in range(n):
        out = naive_product(out, base)
    return out


def closed_power(word, n: int) -> tuple:
    """``word ** n`` in closed form: a reduced word is ``u v u^-1`` with
    ``v`` cyclically reduced, and its n-th power is ``u v^n u^-1``."""
    word = tuple(word)
    k = 0
    while 2 * (k + 1) < len(word) and word[k] + word[len(word) - 1 - k] == 0:
        k += 1
    u, v = word[:k], word[k : len(word) - k]
    return u + v * n + tuple(-s for s in reversed(u))


def collation_key(word) -> tuple:
    """Order of the printed form: compare symbols by the ASCII of the
    printed letter (uppercase before lowercase), a ``(dx)`` token right
    after the plain letter x, and a prefix before its extensions."""
    key = []
    for sym in word:
        text = symbol_text(sym)
        key.append((ord(text[2]), 1) if text.startswith("(") else (ord(text), 0))
    return tuple(key)


def format_coefficient(value: float) -> str:
    """The documented rule: integral values bare, others as the shortest
    decimal that reads back to the same double."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def canonical_text(terms: dict) -> str:
    """The canonical printed form of a term dict."""
    if not terms:
        return "0"
    parts = []
    for word in sorted(terms, key=collation_key):
        coeff = terms[word]
        magnitude = format_coefficient(abs(coeff))
        body = f"{magnitude}*{word_text(word)}" if word else magnitude
        parts.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(parts)


def json_symbol(sym: int):
    return "d" + chr(96 + sym - DIFF_BASE) if sym > DIFF_BASE else sym


def json_document(terms: dict) -> dict:
    """The documented JSON form, terms in collation order."""
    return {
        "terms": [
            {
                "word": [json_symbol(s) for s in word],
                "coeff": int(terms[word]) if float(terms[word]).is_integer() else terms[word],
            }
            for word in sorted(terms, key=collation_key)
        ]
    }


def numpy_evaluate(terms: dict, bindings: dict, diff_bindings: dict, dim: int):
    """``sum(coeff * product of symbol matrices)`` with ``numpy.linalg.inv``
    for inverse letters and ``@`` for products.  ``bindings`` and
    ``diff_bindings`` map letter indices to square arrays."""
    import numpy as np

    inverses = {i: np.linalg.inv(m) for i, m in bindings.items()}
    total = np.zeros((dim, dim))
    for word, coeff in terms.items():
        product = np.eye(dim)
        for sym in word:
            if sym > DIFF_BASE:
                product = product @ diff_bindings[sym - DIFF_BASE]
            elif sym < 0:
                product = product @ inverses[-sym]
            else:
                product = product @ bindings[sym]
        total = total + coeff * product
    return total
