"""Small dense matrices and numerical evaluation of elements.

Evaluating an element on a square-matrix assignment turns every word
into an ordered matrix product, so sums and products of elements must
map to sums and products of matrices; ``homomorphism_check`` measures
exactly that.  Dimensions stay small (``matcheck --dim`` allows at most
100), so the linear algebra is done directly: schoolbook
multiplication and LU factorization with partial pivoting for inverses.

Each entry of a matrix product is the left-to-right double sum of its
products, starting from ``0.0``, the same on every supported Python
(``sum`` compensates float sums from 3.12 on, so it is not used).  The
product runs through generated straight-line code, which is about twice
as fast as a loop over the dot product; it takes both factors as rows,
the one layout the module keeps.

``evaluate`` and ``homomorphism_check`` run one fold over an element's
words, which adds each scaled word into the total as ``t + p*k`` per
entry.  The product and that step are one kernel pair per dim, compiled
once: up to dim 10, where a product takes at most 1,024 multiply-adds,
each is one generated expression; above, the product runs a kernel per
row, in 64-product chunks, and the step runs through ``map``.  The three
folds of a check share one table of symbol images, which holds each
image's rows.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Iterable, Mapping
from itertools import chain, compress, count, repeat
from operator import add, attrgetter, mul, ne, sub, truediv

from .element import Element, NonFiniteCoefficient, _real
from .randomgen import SplitMix64
from .words import DIFF_BASE, SYMBOLS, letter_index, symbol_text

SINGULAR_PIVOT_RTOL = 1e-12


class UnboundLetter(LookupError):
    """An evaluated element uses a generator the assignment does not bind."""

    def __init__(self, letter_name: str):
        super().__init__(f"no matrix bound for generator '{letter_name}'")
        self.letter = letter_name


class SingularMatrix(ArithmeticError):
    """An inverse was requested but a pivot fell below the singularity threshold."""


_CHUNK = 64  # products per generated sum, which the compiler nests one level each
_UNROLL_BUDGET = 1024  # multiply-adds a product may take and still be written out whole


@functools.cache
def _kernels(n: int) -> tuple:
    """The ``(product, accumulate)`` pair for ``n x n`` rows; ``functools.cache`` keeps one per dim.

    ``product(a, b)`` is the schoolbook product of rows ``a`` and rows
    ``b``: each entry is the left-to-right double sum of its products,
    starting from ``0.0``, which is ``sum``'s value up to Python 3.11,
    where its integer start turns a ``-0.0`` first product into ``0.0``,
    and is kept from 3.12 on, where ``sum`` compensates float sums.
    ``accumulate(t, p, k)`` adds ``p*k`` into ``t`` as ``t + p*k`` per
    entry.  While the product takes at most ``_UNROLL_BUDGET``
    multiply-adds (dims 1 to 10), both are written out whole.  Their
    sources grow as ``n**3`` and ``n**2``: at dim 100 the product would
    take 424 ms to compile, and the accumulate step 169 ms and 44 MB.
    Above the cap the product runs a kernel per row and ``map`` does the
    accumulate step.
    """
    if n**3 <= _UNROLL_BUDGET:
        return _whole_kernel(n), _whole_accumulator(n)
    return _row_kernel(n), _accumulate_rows


def _row_kernel(n: int):
    """Compile the product kernel for any rows of length ``n``, for dims above the cap.

    It transposes ``b`` once per call, the only transpose the package
    makes.  The dot product is written out, so it runs as straight-line
    bytecode, once per row and column.  It is cut into sums of at most
    ``_CHUNK`` products, which carry one accumulator ``s`` (``for s in
    [...]`` is a plain assignment in a comprehension), so the source
    grows as O(n) and its nesting stays bounded at every dimension.
    """
    xs, ys = (", ".join(f"{v}{i}" for i in range(n)) for v in "xy")
    terms = [f"x{i}*y{i}" for i in range(n)]
    sums = " ".join(f"for s in [{'s' if i else '0.0'} + {' + '.join(terms[i:i + _CHUNK])}]" for i in range(0, n, _CHUNK))
    namespace: dict = {}
    exec(f"def row(a, b):\n    cols = [*zip(*b)]\n    return tuple([tuple([s for ({ys},) in cols {sums}]) for ({xs},) in a])", namespace)
    return namespace["row"]


def _whole_kernel(n: int):
    """Compile the product kernel for ``n x n`` rows, for dims up to the cap.

    ``a`` and ``b`` are unpacked into locals once, and the product is
    one expression whose entries are each one sum of ``n`` products,
    ``0.0 + x{r}_0*y0_{c} + x{r}_1*y1_{c} + ...``.
    """
    xs, ys = ([[f"{v}{r}_{c}" for c in range(n)] for r in range(n)] for v in "xy")
    body = [f"[[{'], ['.join(map(', '.join, xs))}]] = a", f"[[{'], ['.join(map(', '.join, ys))}]] = b"]
    entries = "".join("(" + "".join(f"0.0 + {' + '.join(map('{}*{}'.format, row, col))}, " for col in zip(*ys)) + "), " for row in xs)
    namespace: dict = {}
    exec("def whole(a, b):\n    " + "\n    ".join(body) + f"\n    return ({entries})", namespace)
    return namespace["whole"]


def _whole_accumulator(n: int):
    """Compile ``accumulate``: ``t`` and ``p`` unpacked into locals, then one expression of ``t{r}_{c} + p{r}_{c}*k``."""
    t, p = ([[f"{v}{r}_{c}" for c in range(n)] for r in range(n)] for v in "tp")
    body = [f"[[{'], ['.join(map(', '.join, t))}]] = t", f"[[{'], ['.join(map(', '.join, p))}]] = p"]
    rows = "".join("(" + "".join(map("{} + {}*k, ".format, tr, pr)) + "), " for tr, pr in zip(t, p))
    namespace: dict = {}
    exec("def accumulate(t, p, k):\n    " + "\n    ".join(body) + f"\n    return ({rows})", namespace)
    return namespace["accumulate"]


def _accumulate_rows(t: tuple, p: tuple, k: float) -> tuple:
    """``t + p*k`` per entry through ``map``, regrouped into rows."""
    return tuple(zip(*[map(add, chain.from_iterable(t), map(mul, chain.from_iterable(p), repeat(k)))] * len(t)))


def _check_dim(dim, what: str) -> None:
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise TypeError(f"{what} must be an int, got {dim!r}")
    if dim < 1:
        raise ValueError(f"{what} must be at least 1")


def _finite(rows: tuple) -> tuple:
    """``rows`` unchanged, or NonFiniteCoefficient if an entry is infinite or NaN."""
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise NonFiniteCoefficient("matrix entries must be finite")
    return rows


class Matrix:
    """Immutable, validated square real matrix; arithmetic beyond ``@`` works on ``rows``.

    ``rows`` and ``dim`` are read-only.  It memoizes its inverse, filled
    at most once: the LU runs once per lifetime, and a singular matrix
    stores nothing and raises on every call.
    """

    __slots__ = ("_rows", "_inv")

    def __init__(self, rows: Iterable[Iterable[float]]):
        rows = tuple(tuple(map(_real, row)) for row in rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square and nonempty")
        self._rows = _finite(rows)
        self._inv = None

    @classmethod
    def _from_rows(cls, rows: tuple) -> "Matrix":
        """Square float rows computed here; only their finiteness is checked."""
        matrix = object.__new__(cls)
        matrix._rows = _finite(rows)
        matrix._inv = None
        return matrix

    rows = property(attrgetter("_rows"), doc="The entries, a tuple of row tuples of floats.")
    dim = property(lambda self: len(self._rows), doc="The number of rows, and of columns.")

    @classmethod
    def identity(cls, dim: int) -> "Matrix":
        _check_dim(dim, "the matrix dimension")
        return cls._from_rows(tuple(tuple(float(r == c) for c in range(dim)) for r in range(dim)))

    @classmethod
    def zeros(cls, dim: int) -> "Matrix":
        _check_dim(dim, "the matrix dimension")
        return cls._from_rows(((0.0,) * dim,) * dim)

    def __reduce__(self):
        # a pickle holds the public form only, and loads through the checked constructor
        return Matrix, (self.rows,)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Matrix({[list(row) for row in self.rows]!r})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Matrix._from_rows(_kernels(self.dim)[0](self.rows, other.rows))

    def max_abs(self) -> float:
        return max(map(abs, chain.from_iterable(self.rows)))

    def inverse(self) -> "Matrix":
        """Inverse by elimination with partial pivoting over ``[A | I]``, computed once.

        The identity takes every row swap and row update of the LU, so
        its rows end as ``L^-1 P``; one back substitution through ``U``
        then solves all columns at once.  A pivot whose magnitude is at
        most ``SINGULAR_PIVOT_RTOL`` times the largest input entry
        raises SingularMatrix.
        """
        if self._inv is not None:
            return self._inv
        n = self.dim
        threshold = SINGULAR_PIVOT_RTOL * self.max_abs()
        rows = [[*row, *(float(r == c) for c in range(n))] for r, row in enumerate(self.rows)]
        for col in range(n):
            pivot_row = max(range(col, n), key=lambda r: abs(rows[r][col]))
            if abs(rows[pivot_row][col]) <= threshold:
                raise SingularMatrix(
                    f"matrix is singular to working precision (column {col})"
                )
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            pivot = rows[col][col + 1:]
            inv_pivot = 1.0 / rows[col][col]
            for row in rows[col + 1:]:
                row[col + 1:] = map(sub, row[col + 1:], map(mul, repeat(row[col] * inv_pivot), pivot))
        inverse = [()] * n
        for r in range(n - 1, -1, -1):
            row = rows[r]
            solved = row[n:]
            for c in range(r + 1, n):
                solved = map(sub, solved, map(mul, repeat(row[c]), inverse[c]))
            inverse[r] = tuple(map(truediv, solved, repeat(row[r])))
        self._inv = Matrix._from_rows(tuple(inverse))
        return self._inv

    def to_jsonable(self) -> dict:
        return {"dim": self.dim, "rows": [list(row) for row in self.rows]}

    @classmethod
    def from_jsonable(cls, obj) -> "Matrix":
        if (
            not isinstance(obj, dict)
            or set(obj) != {"dim", "rows"}
            or type(obj["dim"]) is not int  # not a bool
            or not isinstance(obj["rows"], list)
            or not all(isinstance(row, list) for row in obj["rows"])
        ):
            raise ValueError('matrix must be {"dim": n, "rows": [[...], ...]}')
        for x in chain.from_iterable(obj["rows"]):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ValueError(f"matrix entries must be numbers, got {x!r}")
        try:
            matrix = cls(obj["rows"])
        except OverflowError:  # an integer past the float range
            raise NonFiniteCoefficient("matrix entries must be finite") from None
        if matrix.dim != obj["dim"]:
            raise ValueError(f"rows do not form a {obj['dim']}x{obj['dim']} matrix")
        return matrix


def standard_normal_matrix(dim: int, rng: SplitMix64) -> Matrix:
    """``dim x dim`` matrix of standard normal draws, filled row-major."""
    return Matrix(tuple(tuple(rng.normal() for _ in range(dim)) for _ in range(dim)))


class MatrixAssignment(namedtuple("MatrixAssignment", "dim bindings diff_bindings")):
    """Bindings from generator letters (and differential tokens) to matrices.

    ``dim`` is an int; keys may be letters or indices; every bound value
    is a ``Matrix`` of the shared dimension.  Inverse letters evaluate
    through the matrix inverse of their letter's binding, computed on
    first use and then kept by the matrix.
    """

    __slots__ = ()

    def __new__(cls, dim: int, bindings: Mapping, diff_bindings: Mapping = ()):
        _check_dim(dim, "the assignment dimension")
        bindings = {letter_index(k): v for k, v in dict(bindings).items()}
        diffs = {letter_index(k): v for k, v in dict(diff_bindings).items()}
        for key, matrix in [*bindings.items(), *((DIFF_BASE + k, m) for k, m in diffs.items())]:
            if not isinstance(matrix, Matrix):
                raise TypeError(f"{symbol_text(key)} is bound to a {type(matrix).__name__}, not a Matrix")
            if matrix.dim != dim:
                raise ValueError("all bound matrices must share the assignment dimension")
        return super().__new__(cls, dim, bindings, diffs)

    # _replace goes through _make, which would otherwise skip __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_jsonable(cls, obj) -> "MatrixAssignment":
        """A ``matcheck --matrices`` fixture: ``{"bindings": {letter: matrix}}``, ``"diff_bindings"`` optional."""
        if not isinstance(obj, dict) or not {"bindings"} <= obj.keys() <= {"bindings", "diff_bindings"} or {*map(type, obj.values())} != {dict}:
            raise ValueError('fixture must be {"bindings": {...}}, with an optional "diff_bindings": {...}')
        bindings, diffs = ({k: Matrix.from_jsonable(m) for k, m in obj.get(key, {}).items()} for key in ("bindings", "diff_bindings"))
        if not (bindings or diffs):
            raise ValueError("fixture binds no matrices")
        return cls([*bindings.values(), *diffs.values()][0].dim, bindings, diffs)


def evaluate(element: Element, assignment: MatrixAssignment) -> Matrix:
    """Matrix value of an element under an assignment.

    Each word maps to the ordered product of its symbols' matrices, the
    empty word to the identity; terms are scaled by their coefficients
    and summed.  The zero element gives the zero matrix.  Raises
    UnboundLetter for missing bindings, SingularMatrix when an inverse
    letter's binding cannot be inverted and NonFiniteCoefficient when
    the value overflows.

    Each symbol's image is found once per call (``homomorphism_check``
    shares one table between its three folds); an inverse letter's is
    its binding's ``inverse()``, factored once per matrix lifetime.
    Words come in ``terms()`` order, so neighbours share long prefixes:
    each word reuses the stacked products of the prefix it shares with
    the word before it.  Every word is still the left fold
    ``M1 @ M2 @ ...``, scaled and added into the total entry by entry as
    ``t + p*k`` in the same order, so the result is bitwise equal to
    folding each word from scratch.
    """
    return Matrix._from_rows(_fold(element, assignment, {}))


def _fold(element: Element, assignment: MatrixAssignment, images: dict) -> tuple:
    """The rows of ``evaluate(element, assignment)``, unchecked.

    ``images`` maps a symbol rank to the rows of its image and gains
    every image the fold finds, so folds given one table find each
    image once.  It fetches the dim's kernel pair once and calls its
    product, which takes both factors as rows, on every new prefix.
    """
    dim = assignment.dim
    product, accumulate = _kernels(dim)
    total = ((0.0,) * dim,) * dim
    prefix: list[tuple] = []  # prefix[k]: product of the first k+1 symbols of prev
    prev = b""
    for word, coeff in element._sorted():
        # the first difference, else len(prev): words are distinct and a proper prefix sorts first
        shared = next(compress(count(), map(ne, word, prev)), len(prev))
        del prefix[shared:]
        for rank in word[shared:]:
            image = images.get(rank)
            if image is None:
                image = images[rank] = _image(SYMBOLS[rank], assignment)
            prefix.append(product(prefix[-1], image) if prefix else image)
        prev = word
        total = accumulate(total, prefix[-1] if word else Matrix.identity(dim).rows, coeff)
    return total


def _image(sym: int, assignment: MatrixAssignment) -> tuple:
    key = abs(sym)
    bindings = assignment.diff_bindings if key > DIFF_BASE else assignment.bindings
    matrix = bindings.get(key % DIFF_BASE)
    if matrix is None:
        raise UnboundLetter(symbol_text(key))
    return (matrix.inverse() if sym < 0 else matrix).rows


HomomorphismReport = namedtuple("HomomorphismReport", "max_abs_residual max_rel_residual passed")


def homomorphism_check(
    a: Element, b: Element, assignment: MatrixAssignment, tol: float = 1e-9
) -> HomomorphismReport:
    """Compare ``evaluate(a) @ evaluate(b)`` against ``evaluate(a * b)``.

    With residual ``R`` being their difference, the check passes when
    ``max|R| <= tol * (1 + max|evaluate(a*b)|)``; the reported relative
    residual is ``max|R|`` divided by that scale.  The three folds, of
    ``a``, of ``b`` and of ``a * b`` in that order, share one image
    table, so each symbol's image is found once per check; each bound
    matrix keeps its inverse, so a binding is factored once in all.
    The check stays in rows and builds no ``Matrix``; the folds of ``a``
    and ``b``, then their product, are checked finite before ``a * b``
    is computed.  A ``tol`` outside ``[0, inf)`` is refused first.
    """
    if isinstance(tol, bool) or not isinstance(tol, (int, float)):
        raise TypeError(f"tol must be a real number, got {tol!r}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and not negative, got {tol}")
    images: dict = {}
    left, right = _finite(_fold(a, assignment, images)), _finite(_fold(b, assignment, images))
    product = _finite(_kernels(assignment.dim)[0](left, right))
    direct = _finite(_fold(a * b, assignment, images))
    max_abs = max(map(abs, map(sub, chain.from_iterable(product), chain.from_iterable(direct))))
    scale = 1.0 + max(map(abs, chain.from_iterable(direct)))
    return HomomorphismReport(max_abs, max_abs / scale, max_abs <= tol * scale)


def random_assignment(
    letters: Iterable, dim: int, seed: int, diff_letters: Iterable = ()
) -> MatrixAssignment:
    """Standard-normal assignment, letters bound in index order from one stream."""
    rng = SplitMix64(seed)
    indices = sorted({letter_index(x) for x in letters})
    bindings = {i: standard_normal_matrix(dim, rng) for i in indices}
    diff_indices = sorted({letter_index(x) for x in diff_letters})
    diffs = {i: standard_normal_matrix(dim, rng) for i in diff_indices}
    return MatrixAssignment(dim, bindings, diffs)
