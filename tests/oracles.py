"""Independent oracles for the tests.

Everything here is intentionally naive and separate from the library:
fixpoint pair removal instead of the stack reducer, plain list-of-list
matrix arithmetic instead of the Matrix class, and dict-based term
expansion instead of Element multiplication.
"""

import json


def brute_reduce(symbols):
    """Remove the first adjacent inverse pair, rescan, repeat to fixpoint."""
    seq = list(symbols)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] == -seq[i + 1]:
                del seq[i : i + 2]
                changed = True
                break
    return tuple(seq)


def json_symbol(entry):
    """Symbol code of a JSON word entry, or None when the entry is invalid:
    an int (not a bool) in 1..26 or -26..-1, or "da".."dz"."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    if type(entry) is int and 1 <= abs(entry) <= 26:
        return entry
    if type(entry) is str and len(entry) == 2 and entry[0] == "d" and entry[1] in letters:
        return 101 + letters.index(entry[1])
    return None


def json_text(element):
    """The JSON document of an element, built as a dict and written by
    ``json.dumps`` in compact form: terms in ``terms()`` order, each word
    entry by ``json_symbol``'s rule, an integral coefficient as an int."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    terms = [
        {
            "word": [sym if sym < 100 else "d" + letters[sym - 101] for sym in word],
            "coeff": int(coeff) if coeff.is_integer() else coeff,
        }
        for word, coeff in element.terms()
    ]
    return json.dumps({"terms": terms}, separators=(",", ":"), allow_nan=False)


def naive_collation_key(word):
    """Word sort key from the printed ASCII of each symbol: uppercase
    inverses before lowercase letters, a differential token right after
    its own letter, a prefix before its extensions."""
    key = []
    for sym in word:
        if sym > 100:
            key.append((ord("abcdefghijklmnopqrstuvwxyz"[sym - 101]), 1))
        elif sym > 0:
            key.append((ord("abcdefghijklmnopqrstuvwxyz"[sym - 1]), 0))
        else:
            key.append((ord("ABCDEFGHIJKLMNOPQRSTUVWXYZ"[-sym - 1]), 0))
    return key


def mat_identity(n):
    return [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]


def dot(row, col):
    """The left-to-right double sum of the products, starting from 0.0."""
    total = 0.0
    for x, y in zip(row, col):
        total += x * y
    return total


def mat_mul(a, b):
    """Rows of ``a`` (any number) times the square ``b``, each entry by ``dot``."""
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_max_abs_diff(a, b):
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def fold_evaluate(terms, images, dim):
    """Matrix value of (word, coeff) pairs, in the given order: each word
    folded from scratch with mat_mul from its first symbol's image (the
    empty word is the identity), then added entrywise as t + p*coeff."""
    total = [[0.0] * dim for _ in range(dim)]
    for word, coeff in terms:
        product = images[word[0]] if word else mat_identity(dim)
        for sym in word[1:]:
            product = mat_mul(product, images[sym])
        total = [[t + p * coeff for t, p in zip(tr, pr)] for tr, pr in zip(total, product)]
    return total


def expand_product(factors):
    """Product of term dicts (word tuple -> coeff) by concatenation."""
    acc = {(): 1.0}
    for factor in factors:
        step = {}
        for w1, c1 in acc.items():
            for w2, c2 in factor.items():
                word = brute_reduce(w1 + w2)
                step[word] = step.get(word, 0.0) + c1 * c2
        acc = {w: c for w, c in step.items() if c != 0.0}
    return acc


def assert_normalized(element):
    """Every stored coefficient nonzero, every stored word reduced."""
    for word, coeff in element.terms():
        assert coeff != 0.0
        for left, right in zip(word, word[1:]):
            assert left != -right, f"unreduced word stored: {word}"


def substitute_symbols(word, coeff, target, replacement):
    """Terms of ``coeff * word`` with each symbol replaced on its own, by
    expand_product from ``coeff``, so factors multiply in occurrence order.

    The letter ``target`` becomes ``replacement`` (a term dict), its inverse the
    inverse of the one term ``c*w``: ``(1/c) * w^-1``, ``w`` reversed with every
    symbol inverted; every other symbol stays.  None when an inverse occurrence
    meets a replacement that is not one term, or whose word holds a token.
    """
    factors = [{(): coeff}]
    for sym in word:
        if sym == target:
            factors.append(replacement)
        elif sym == -target:
            if len(replacement) != 1:
                return None
            ((w, c),) = replacement.items()
            if any(s > 100 for s in w):
                return None
            factors.append({tuple(-s for s in reversed(w)): 1.0 / c})
        else:
            factors.append({(sym,): 1.0})
    return expand_product(factors)
