"""A seeded stream of matrix results, one record a line, and its SHA-256.

Every float is written as ``float.hex`` and every report as its
``repr``, so two interpreters, or two trees, give equal digests only
when they give equal bits.  The stream holds, for each seed and for
dims 2, 3, 5 and 8: ``evaluate(a*b)`` on a fresh assignment and again
on the same one once its inverses are memoized, ``homomorphism_check``
on both, ``@`` of two bindings and ``inverse() @ m``; then the stdout
of two ``matcheck`` calls.  It needs no test framework::

    PYTHONPATH=src python tests/float_digest.py [SEEDS] [--lines]
"""

import contextlib
import hashlib
import io
import os
import sys

from ncpoly import Matrix, RandSpec, evaluate, homomorphism_check, random_assignment, random_element
from ncpoly.cli import main

DIMS = (2, 3, 5, 8)

# x, y and z at dim 3, the --matrices fixture of the CI's console-script step too
FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "xyz_matrices.json")


def record(call, *args) -> str:
    """``float.hex`` of every entry of a matrix, the ``repr`` of a report, or the error raised."""
    try:
        result = call(*args)
    except ArithmeticError as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, Matrix):
        return " ".join(x.hex() for row in result.rows for x in row)
    return repr(result)


def matcheck_stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["matcheck", *argv])
    return f"exit {code}: {out.getvalue().rstrip()}"


def records(seeds: int, dims=DIMS):
    for seed in range(seeds):
        spec = RandSpec(seed=2 * seed, n_terms=8, alphabet="xyz", word_len=(0, 4), allow_inverse=True)
        a, b = random_element(spec), random_element(spec._replace(seed=2 * seed + 1))
        for dim in dims:
            cold = random_assignment("xyz", dim, seed)
            yield record(evaluate, a * b, cold)
            yield record(homomorphism_check, a, b, cold)
            yield record(evaluate, a * b, cold)  # warm: the bindings keep their inverses
            yield record(homomorphism_check, a, b, random_assignment("xyz", dim, seed))
            m, p = cold.bindings[24], cold.bindings[25]
            yield record(m.__matmul__, p)
            yield record(lambda: m.inverse() @ m)
    yield matcheck_stdout("xY + 2z", "Xy", "--matrices", FIXTURE)
    yield matcheck_stdout("xY + 2z", "Xy", "--seed", "3", "--dim", "4")


def digest(seeds: int, dims=DIMS) -> str:
    return hashlib.sha256("".join(line + "\n" for line in records(seeds, dims)).encode()).hexdigest()


if __name__ == "__main__":
    seeds = int(next((arg for arg in sys.argv[1:] if arg.isdigit()), 60))
    if "--lines" in sys.argv:
        print(*records(seeds), sep="\n")
    else:
        print(digest(seeds))
