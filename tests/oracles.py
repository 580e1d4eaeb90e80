"""Independent oracles for the tests.

Everything here is intentionally naive and separate from the library:
fixpoint pair removal instead of the stack reducer, plain list-of-list
matrix arithmetic instead of the Matrix class, and dict-based term
expansion instead of Element multiplication.
"""


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


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_max_abs_diff(a, b):
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


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
