import copy
import inspect
import itertools
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ncpoly.matrixeval as matrixeval
from ncpoly import (
    Element,
    HomomorphismReport,
    Matrix,
    MatrixAssignment,
    NonFiniteCoefficient,
    RandSpec,
    SingularMatrix,
    SplitMix64,
    UnboundLetter,
    evaluate,
    homomorphism_check,
    parse,
    random_assignment,
    random_element,
    standard_normal_matrix,
)
from ncpoly.words import differential

import float_digest
from oracles import brute_reduce, dot, fold_evaluate, mat_add, mat_identity, mat_max_abs_diff, mat_mul, mat_scale


def _rel_diff(m, reference):
    return mat_max_abs_diff(m.rows, reference.rows) / (1.0 + reference.max_abs())


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        Matrix([])
    with pytest.raises(ValueError):
        Matrix([[float("nan")]])
    with pytest.raises(ValueError):
        Matrix([[float("inf")]])
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        Matrix.identity(2) @ Matrix.identity(3)
    with pytest.raises(TypeError):
        Matrix.identity(2) @ 2


@pytest.mark.parametrize("dim, error", [(0, ValueError), (-2, ValueError), (True, TypeError), (2.0, TypeError), ("3", TypeError)])
def test_identity_and_zeros_check_the_dimension(dim, error):
    # a dim-0 matrix would be one that no product, inverse or pickle takes
    for make in (Matrix.identity, Matrix.zeros):
        with pytest.raises(error, match="the matrix dimension must be"):
            make(dim)


def test_matrix_arithmetic_against_plain_lists():
    rng = SplitMix64(2024)
    for dim in (1, 2, 3, 5, 100):  # 100: the largest matcheck dim
        a = standard_normal_matrix(dim, rng)
        b = standard_normal_matrix(dim, rng)
        rows_a = [list(r) for r in a.rows]
        rows_b = [list(r) for r in b.rows]
        assert mat_max_abs_diff((a @ b).rows, mat_mul(rows_a, rows_b)) == 0.0
        assert mat_max_abs_diff(Matrix.identity(dim).rows, mat_identity(dim)) == 0.0


def test_inverse_and_singularity():
    rng = SplitMix64(31337)
    for dim in range(1, 7):
        m = standard_normal_matrix(dim, rng)
        assert _rel_diff(m @ m.inverse(), Matrix.identity(dim)) <= 1e-9
        assert _rel_diff(m.inverse() @ m, Matrix.identity(dim)) <= 1e-9
    with pytest.raises(SingularMatrix):
        Matrix.zeros(3).inverse()
    with pytest.raises(SingularMatrix):
        Matrix([[1.0, 2.0], [2.0, 4.0]]).inverse()


def _unit_upper_inverse(u):
    """The exact inverse of a unit upper-triangular integer matrix, in integers."""
    x = [[int(r == c) for c in range(len(u))] for r in range(len(u))]
    for r in reversed(range(len(u))):
        for c in range(r + 1, len(u)):
            x[r] = [a - u[r][c] * b for a, b in zip(x[r], x[c])]
    return tuple(map(tuple, x))


@pytest.mark.parametrize("seed", range(12))
def test_inverse_is_exact_where_floats_can_be(seed):
    """Inverses whose entries floats hold exactly compare == to their exact rows."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    perm = rng.sample(range(n), n)
    p = [[float(perm[r] == c) for c in range(n)] for r in range(n)]
    assert Matrix(p).inverse().rows == tuple(zip(*p))
    powers = [2.0 ** rng.randint(-15, 15) for _ in range(n)]  # within the pivot threshold
    d = Matrix([[powers[r] if r == c else 0.0 for c in range(n)] for r in range(n)])
    assert d.inverse().rows == tuple(tuple(1 / powers[r] if r == c else 0.0 for c in range(n)) for r in range(n))
    u = [[rng.randint(-3, 3) if c > r else int(r == c) for c in range(n)] for r in range(n)]
    assert Matrix(u).inverse().rows == _unit_upper_inverse(u)


def test_matrix_json_forms():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert m.to_jsonable() == {"dim": 2, "rows": [[1.0, 2.0], [3.0, 4.0]]}
    loaded = Matrix.from_jsonable(m.to_jsonable())
    assert loaded == m and hash(loaded) == hash(m)
    for bad in (
        {"dim": 2, "rows": [[1, 2]]},
        {"dim": 2},
        {"dim": "2", "rows": [[1, 2], [3, 4]]},
        {"dim": 2, "rows": [[1, 2], [3, "x"]]},
        {"dim": 2, "rows": [[1, 2], [3, True]]},
        [],
    ):
        with pytest.raises(ValueError):
            Matrix.from_jsonable(bad)


def test_matrix_json_entries_past_the_float_range_are_not_finite():
    # float() of the integer overflows; that is a non-finite entry, a ValueError
    for entry in (10**400, -(10**400)):
        with pytest.raises(NonFiniteCoefficient, match="finite"):
            Matrix.from_jsonable({"dim": 1, "rows": [[entry]]})


def test_matrix_pickle_loads_through_the_constructor():
    m = Matrix([[2.0, 1.0], [1.0, 3.0]])
    inverse = m.inverse()
    loaded = pickle.loads(pickle.dumps(m))
    assert loaded == m and loaded._inv is None
    assert loaded.inverse() == inverse
    assert m.__reduce__() == (Matrix, (m.rows,))
    # the same matrix, its inverse computed, as pickled when rows was a writable slot
    older = (
        b"\x80\x04\x95N\x00\x00\x00\x00\x00\x00\x00\x8c\x11ncpoly.matrixeval\x94\x8c\x06Matrix\x94\x93\x94"
        b"G@\x00\x00\x00\x00\x00\x00\x00G?\xf0\x00\x00\x00\x00\x00\x00\x86\x94"
        b"G?\xf0\x00\x00\x00\x00\x00\x00G@\x08\x00\x00\x00\x00\x00\x00\x86\x94\x86\x94\x85\x94R\x94."
    )
    loaded = pickle.loads(older)
    assert loaded == m and loaded._inv is None and loaded.inverse() == inverse


def test_assignment_json_form():
    x, d = Matrix([[1, 2], [3, 4]]), Matrix.identity(2)
    mx, md = x.to_jsonable(), d.to_jsonable()
    assert MatrixAssignment.from_jsonable({"bindings": {"x": mx}}) == MatrixAssignment(2, {"x": x})
    assert MatrixAssignment.from_jsonable({"bindings": {"x": mx}, "diff_bindings": {"y": md}}) == (
        MatrixAssignment(2, {"x": x}, {"y": d})
    )
    # the dimension comes from the matrices, so a fixture must bind one
    assert MatrixAssignment.from_jsonable({"bindings": {}, "diff_bindings": {"a": md}}).dim == 2
    for bad in (
        [],
        {},
        {"diff_bindings": {"x": mx}},
        {"bindings": {"x": mx}, "extra": {}},
        {"bindings": []},
        {"bindings": {"x": mx}, "diff_bindings": []},
        {"bindings": {}},
        {"bindings": {}, "diff_bindings": {}},
        {"bindings": {"X": mx}},
        {"bindings": {"x": mx, "y": Matrix.identity(3).to_jsonable()}},
        {"bindings": {"x": {"dim": 1, "rows": [[float("nan")]]}}},
    ):
        with pytest.raises(ValueError):
            MatrixAssignment.from_jsonable(bad)


def test_assignment_validation_and_key_forms():
    m = Matrix.identity(2)
    by_name = MatrixAssignment(2, {"x": m})
    by_index = MatrixAssignment(2, {24: m})
    assert by_name.bindings == by_index.bindings
    with pytest.raises(ValueError):
        MatrixAssignment(3, {"x": m})
    with pytest.raises(ValueError):  # no 0x0 matrix, whichever element is evaluated
        evaluate(Element(), MatrixAssignment(0, {}))


def test_assignment_is_a_validated_named_tuple():
    m = Matrix([[1, 2], [3, 4]])
    assignment = MatrixAssignment(2, {"a": m}, {"b": m})
    assert repr(assignment) == (
        "MatrixAssignment(dim=2, bindings={1: Matrix([[1.0, 2.0], [3.0, 4.0]])}, "
        "diff_bindings={2: Matrix([[1.0, 2.0], [3.0, 4.0]])})"
    )
    assert assignment == (2, {1: m}, {2: m})
    assert MatrixAssignment(2, {"a": m}).diff_bindings == {}
    assert pickle.loads(pickle.dumps(assignment)) == assignment == copy.deepcopy(assignment)
    with pytest.raises(TypeError):
        hash(assignment)  # its bindings are dicts
    with pytest.raises(ValueError, match="share the assignment dimension"):
        assignment._replace(dim=3)


def test_evaluate_constants():
    assignment = random_assignment("xyz", 4, seed=8)
    assert evaluate(Element.one(), assignment) == Matrix.identity(4)
    assert evaluate(Element.zero(), assignment) == Matrix.zeros(4)
    assert evaluate(Element.constant(2.5), assignment) == Matrix(mat_scale(2.5, mat_identity(4)))
    assert evaluate(parse("x"), assignment) == assignment.bindings[24]


def test_evaluate_matches_direct_expression():
    assignment = random_assignment("xyz", 5, seed=123)
    x = [list(r) for r in assignment.bindings[24].rows]
    y = [list(r) for r in assignment.bindings[25].rows]
    z = [list(r) for r in assignment.bindings[26].rows]
    direct = mat_add(mat_mul(mat_mul(mat_mul(x, x), y), x), mat_scale(2.0, mat_mul(z, y)))
    got = evaluate(parse("xxyx + 2zy"), assignment)
    assert mat_max_abs_diff(got.rows, direct) <= 1e-9 * (1.0 + got.max_abs())


def test_evaluate_inverse_paths():
    assignment = random_assignment("x", 4, seed=5)
    # already reduced at parse time, so this is exactly the identity
    assert evaluate(parse("xX"), assignment) == Matrix.identity(4)
    product = evaluate(parse("X"), assignment) @ evaluate(parse("x"), assignment)
    assert _rel_diff(product, Matrix.identity(4)) <= 1e-9


def test_unbound_letters_are_named():
    assignment = random_assignment("x", 3, seed=4)
    with pytest.raises(UnboundLetter) as excinfo:
        evaluate(parse("xy"), assignment)
    assert excinfo.value.letter == "y"
    with pytest.raises(UnboundLetter) as excinfo:
        evaluate(parse("Y"), assignment)
    assert excinfo.value.letter == "y"
    from ncpoly import derivative

    with pytest.raises(UnboundLetter) as excinfo:
        evaluate(derivative(parse("x"), "x"), assignment)
    assert excinfo.value.letter == "(dx)"


def test_singular_binding_raises_on_inverse_use():
    singular = Matrix([[1.0, 2.0], [2.0, 4.0]])
    assignment = MatrixAssignment(2, {"x": singular})
    assert evaluate(parse("x"), assignment) == singular  # plain use is fine
    with pytest.raises(SingularMatrix):
        evaluate(parse("X"), assignment)


def test_homomorphism_report_fields():
    assignment = random_assignment("x", 3, seed=9)
    report = homomorphism_check(Element.one(), Element.one(), assignment)
    assert report.max_abs_residual == 0.0
    assert report.max_rel_residual == 0.0
    assert report.passed
    assert repr(report) == "HomomorphismReport(max_abs_residual=0.0, max_rel_residual=0.0, passed=True)"
    assert report == (0.0, 0.0, True)
    # refused before any evaluation: y is unbound, so evaluating would raise UnboundLetter
    y = parse("y")
    refused = [(-1, ValueError), (float("nan"), ValueError), (float("inf"), ValueError)]
    for tol, error in [*refused, ("1e-9", TypeError), (None, TypeError), (True, TypeError)]:
        with pytest.raises(error, match="tol must be"):
            homomorphism_check(y, y, assignment, tol=tol)
    assert homomorphism_check(Element.one(), Element.one(), assignment, tol=0).passed


def test_homomorphism_on_seeded_triples():
    for case in range(50):
        dim = 3 + case % 4
        a = random_element(RandSpec(seed=40_000 + 2 * case, alphabet="xyz"))
        b = random_element(RandSpec(seed=40_001 + 2 * case, alphabet="xyz"))
        assignment = random_assignment("xyz", dim, seed=50_000 + case)
        report = homomorphism_check(a, b, assignment, tol=1e-9)
        assert report.passed, (case, report)


def test_evaluation_loads_no_numeric_libraries():
    # pyproject.toml declares no dependencies, and numpy alone would double
    # the peak memory of a small evaluation
    code = (
        "import sys\n"
        "from ncpoly import RandSpec, evaluate, homomorphism_check\n"
        "from ncpoly import random_assignment, random_element\n"
        "a = random_element(RandSpec(seed=1, alphabet='xy', allow_inverse=True))\n"
        "b = random_element(RandSpec(seed=2, alphabet='xy'))\n"
        "assignment = random_assignment('xy', 3, seed=3)\n"
        "evaluate(a * b, assignment)\n"
        "print(homomorphism_check(a, b, assignment).passed)\n"
        "print(*sorted(name for name in ('numpy', 'scipy') if name in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["True", ""]


def test_evaluation_is_linear():
    a = random_element(RandSpec(seed=61, alphabet="xy"))
    b = random_element(RandSpec(seed=62, alphabet="xy"))
    assignment = random_assignment("xy", 4, seed=63)
    left = evaluate(a + b, assignment)
    right = Matrix(mat_add(evaluate(a, assignment).rows, evaluate(b, assignment).rows))
    assert _rel_diff(left, right) <= 1e-12


# a and b, their inverses and the differential tokens (da) and (db)
eval_symbols = st.sampled_from([1, -1, 2, -2, differential("a"), differential("b")])
reduced_words = st.lists(eval_symbols, max_size=6).map(brute_reduce)
tenths = st.integers(-9, 9).filter(bool).map(lambda n: n / 10)


@st.composite
def prefix_sharing_elements(draw):
    """Elements on a few reduced words and on some of their prefixes (the
    empty word is one), so neighbours in ``terms()`` order share prefixes
    of every length."""
    words = draw(st.lists(reduced_words, min_size=1, max_size=5))
    prefixes = sorted({w[:k] for w in words for k in range(len(w))})
    chosen = set(words) | {p for p in prefixes if draw(st.booleans())}
    return Element([(w, draw(tenths)) for w in sorted(chosen)])


# dim 11 is above both caps: its products run per row and its words add through map
@given(prefix_sharing_elements(), st.sampled_from([1, 2, 3, 4, 11]), st.integers(0, 2**32))
def test_evaluate_equals_folding_each_word_from_scratch(element, dim, seed):
    assignment = random_assignment("ab", dim, seed, diff_letters="ab")
    images = {}
    for i, matrix in assignment.bindings.items():
        images[i], images[-i] = matrix.rows, matrix.inverse().rows
    for i, matrix in assignment.diff_bindings.items():
        images[differential(i)] = matrix.rows
    expected = fold_evaluate(element.terms(), images, dim)
    # bitwise: the shared prefixes change no association and no summation order
    assert evaluate(element, assignment).rows == tuple(map(tuple, expected))


def test_evaluate_multiplies_each_shared_prefix_once(monkeypatch):
    dx = differential("x")
    element = parse("1 + x + xy + xyz + xyzX + xyy + xzz + y + yx + yxz + Yx") + Element(
        [((26, dx), 0.5), ((26, dx, 24), 0.25)]
    )
    calls = []

    def counting_matmul(a, b):
        calls.append(1)
        return real_matmul(a, b)

    real_matmul = matrixeval._matmul
    monkeypatch.setattr(matrixeval, "_matmul", counting_matmul)
    assignment = random_assignment("xyz", 3, seed=7, diff_letters="x")
    evaluate(element, assignment)
    words = [word for word, _ in element.terms()]
    # one product per distinct prefix of two or more symbols, against one per symbol after the first
    assert len(calls) == len({w[:k] for w in words for k in range(2, len(w) + 1)}) == 11
    assert sum(len(w) - 1 for w in words if w) == 17


def test_homomorphism_check_inverts_each_binding_once(monkeypatch):
    factorizations = []

    def counting_inverse(self):
        if self._inv is None:  # no memo: this call runs the LU
            factorizations.append(1)
        return real_inverse(self)

    real_inverse = Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    assignment = random_assignment("xyz", 3, seed=11)
    a, b = parse("xY + 2Z + zX"), parse("XyZ - Yz")
    homomorphism_check(a, b, assignment)
    # X, Y and Z, once each for a, b and a*b together, against 9 when each evaluation factors its own
    assert len(factorizations) == 3
    homomorphism_check(a, b, assignment)
    assert len(factorizations) == 3  # the bound matrices keep their inverses


def _check_by_separate_evaluations(a, b, assignment):
    product = evaluate(a, assignment) @ evaluate(b, assignment)
    direct = evaluate(a * b, assignment)
    max_abs = mat_max_abs_diff(product.rows, direct.rows)
    scale = 1.0 + direct.max_abs()
    return HomomorphismReport(max_abs, max_abs / scale, max_abs <= 1e-9 * scale)


def _outcome(check, *args):
    """The report of a check, or the class of the arithmetic error it raised."""
    try:
        return check(*args)
    except ArithmeticError as exc:
        return type(exc)


@given(prefix_sharing_elements(), prefix_sharing_elements(), st.integers(1, 4), st.integers(0, 2**32), st.booleans())
def test_homomorphism_check_equals_separate_evaluations(a, b, dim, seed, singular):
    assignment = random_assignment("ab", dim, seed, diff_letters="ab")
    if singular:
        assignment = assignment._replace(bindings={**assignment.bindings, 1: Matrix.zeros(dim)})
    expected = _outcome(_check_by_separate_evaluations, a, b, assignment)
    # bitwise: repr gives every float exactly
    assert repr(_outcome(homomorphism_check, a, b, assignment)) == repr(expected)


@given(st.integers(0, 2**32), st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32))
def test_sharing_one_image_table_changes_no_bits(seed, n_terms, dim, assignment_seed):
    # inverse-rich pairs over xyz, with the empty word and words up to 5 symbols
    a, b = (
        random_element(RandSpec(seed=seed + i, n_terms=n_terms, alphabet="xyz", word_len=(0, 5), coeff_range=(-9, 9), allow_inverse=True))
        for i in range(2)
    )
    assignment = random_assignment("xyz", dim, assignment_seed)
    report = homomorphism_check(a, b, assignment)
    expected = _check_by_separate_evaluations(a, b, assignment)
    # float.hex tells every residual bit, and 0.0 from -0.0
    assert report.max_abs_residual.hex() == expected.max_abs_residual.hex()
    assert report.max_rel_residual.hex() == expected.max_rel_residual.hex()
    assert report.passed is expected.passed


def test_computed_matrices_are_checked_for_finiteness():
    huge = Matrix([[1e200]])
    with pytest.raises(NonFiniteCoefficient):
        huge @ huge
    big = Matrix([[1e154] * 3] * 3)  # every product is 1e308, finite; their sum is not
    with pytest.raises(NonFiniteCoefficient):
        big @ big
    with pytest.raises(NonFiniteCoefficient):
        Matrix([[1e-310]]).inverse()
    with pytest.raises(NonFiniteCoefficient):
        evaluate(10**300 * parse("x"), MatrixAssignment(1, {"x": Matrix([[1e10]])}))
    with pytest.raises(NonFiniteCoefficient):
        homomorphism_check(parse("x"), parse("x"), MatrixAssignment(1, {"x": huge}))


def test_assignment_checks_dim_and_binding_types():
    m = Matrix.identity(2)
    with pytest.raises(TypeError, match="dimension must be an int"):
        MatrixAssignment(2.0, {"x": m})
    with pytest.raises(TypeError, match="dimension must be an int"):
        MatrixAssignment(True, {"x": Matrix([[1.0]])})
    with pytest.raises(TypeError, match="x is bound to a list"):
        MatrixAssignment(2, {"x": [[1, 0], [0, 1]]})
    with pytest.raises(TypeError, match=r"\(dy\) is bound to a tuple"):
        MatrixAssignment(2, {"x": m}, {"y": ((1.0, 0.0), (0.0, 1.0))})


def test_inverse_is_computed_once_per_rows():
    m = standard_normal_matrix(3, SplitMix64(5))
    assert m.inverse() is m.inverse()
    singular = Matrix([[1.0, 2.0], [2.0, 4.0]])
    for _ in range(2):  # nothing is stored for a singular matrix
        with pytest.raises(SingularMatrix):
            singular.inverse()
    # a memo can never go stale: no matrix, given or computed, can be reassigned
    other = standard_normal_matrix(3, SplitMix64(6))
    for matrix in (m, Matrix([[1, 2], [3, 4]]), Matrix.identity(3), m.inverse(), m @ m):
        rows = matrix.rows
        for name, value in (("rows", other.rows), ("dim", 3)):
            with pytest.raises(AttributeError):
                setattr(matrix, name, value)
        assert matrix.rows is rows and matrix.dim == len(rows)


def _hexed(result):
    """float.hex of every entry of a matrix, or the repr of a report."""
    if isinstance(result, Matrix):
        return [x.hex() for row in result.rows for x in row]
    return repr(result)


@given(prefix_sharing_elements(), prefix_sharing_elements(), st.integers(1, 4), st.integers(0, 2**32))
def test_warm_assignment_gives_the_cold_results(a, b, dim, seed):
    def results(assignment):
        return [
            _hexed(_outcome(evaluate, a, assignment)),
            _hexed(_outcome(evaluate, a * b, assignment)),
            _hexed(_outcome(homomorphism_check, a, b, assignment)),
        ]

    warm = random_assignment("ab", dim, seed, diff_letters="ab")
    homomorphism_check(b, a, warm)  # fills the bound matrices' memos
    homomorphism_check(a, b, warm)
    assert results(warm) == results(random_assignment("ab", dim, seed, diff_letters="ab"))


# entries of either sign and both zeros, small enough that no product overflows
kernel_entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@st.composite
def row_blocks(draw):
    """A block of 1..dim rows and a square right factor, for dims 1 to 12."""
    dim = draw(st.integers(1, 12))
    rows = st.lists(kernel_entries, min_size=dim, max_size=dim)
    return draw(st.lists(rows, min_size=1, max_size=dim)), draw(st.lists(rows, min_size=dim, max_size=dim))


def _hex_rows(rows):
    return [[x.hex() for x in row] for row in rows]


@given(row_blocks())
# sum's integer start turns a -0.0 first product into 0.0, and so does the kernel
@example(([[-0.0, -0.0]], [[1.0, 0.0], [1.0, 0.0]]))
def test_matmul_kernel_equals_the_oracle_bitwise(block):
    a, b = block
    got = matrixeval._matmul(tuple(map(tuple, a)), tuple(map(tuple, b)))
    # float.hex tells 0.0 from -0.0, which == does not
    assert _hex_rows(got) == _hex_rows(mat_mul(a, b))


@pytest.mark.parametrize("rows, dim", [(10, 10), (11, 11), (1, 8), (3, 5)])
def test_matmul_kernels_on_both_sides_of_the_unroll_budget(rows, dim):
    # 10x10 times 10x10 is 1,000 multiply-adds, written out whole; 11x11 is 1,331, run per
    # row; 1 row against 8 columns and 3 against 5 are probe-block shapes of the whole kernel
    rng = random.Random(100 * rows + dim)
    a, b = ([[rng.choice([0.0, -0.0, rng.uniform(-1e3, 1e3)]) for _ in range(dim)] for _ in range(n)] for n in (rows, dim))
    got = matrixeval._matmul(tuple(map(tuple, a)), tuple(map(tuple, b)))
    assert _hex_rows(got) == _hex_rows(mat_mul(a, b))
    kernel = "whole" if rows * dim * dim <= matrixeval._UNROLL_BUDGET else "row"
    assert matrixeval._KERNELS[rows, dim, dim].__name__ == kernel


def test_matmul_row_kernel_carries_the_sum_across_16_chunks():
    # one 1,024-long row against one column: within the budget, but each dot product is
    # longer than one chunk, so it runs per row, in 16 chunks of 64 products
    rng = random.Random(1024)
    row = tuple(rng.gauss(0, 1) for _ in range(1024))
    col = tuple(rng.gauss(0, 1) for _ in range(1024))
    (got,) = matrixeval._matmul((row,), tuple(zip(col)))
    assert _hex_rows([got]) == _hex_rows([[dot(row, col)]])
    assert matrixeval._KERNELS[1, 1024, 1].__name__ == "row"


def test_matmul_kernel_has_no_nesting_limit():
    # a kernel that nests one level per product cannot be compiled at this length
    rng = random.Random(5000)
    row = tuple(rng.gauss(0, 1) for _ in range(5000))
    col = tuple(rng.gauss(0, 1) for _ in range(5000))
    (got,) = matrixeval._matmul((row,), tuple(zip(col)))
    assert _hex_rows([got]) == _hex_rows([[dot(row, col)]])


def test_matmul_kernels_compile_deep_in_the_stack(monkeypatch):
    # the compiler nests one level per product of a sum, and no generated sum is longer
    # than 64 products, so every kernel compiles 60 frames short of the recursion limit;
    # there a 1,024-product sum raises RecursionError on Python 3.10 and 3.11
    monkeypatch.setattr(matrixeval, "_KERNELS", {})
    rng = random.Random(60)
    blocks = [
        ([[rng.gauss(0, 1) for _ in range(n)] for _ in range(m)], [[rng.gauss(0, 1) for _ in range(p)] for _ in range(n)])
        for m, n, p in [(1, 1024, 1), (3, 100, 3), (10, 10, 10), (1, 5000, 1)]
    ]

    def deep(frames):
        if frames > 0:
            return deep(frames - 1)
        return [matrixeval._matmul(tuple(map(tuple, a)), tuple(map(tuple, b))) for a, b in blocks]

    results = deep(sys.getrecursionlimit() - 60 - len(inspect.stack(0)))
    for (a, b), got in zip(blocks, results):
        assert _hex_rows(got) == _hex_rows(mat_mul(a, b))


def _accumulated_by_hand(t, p, k):
    return [[(x + y * k).hex() for x, y in zip(tr, pr)] for tr, pr in zip(t, p)]


@pytest.mark.parametrize("dim", [1, 3, 10, 11])
def test_accumulate_kernels_on_both_sides_of_the_cap(monkeypatch, dim):
    # dims 1 to 10 have a square product written whole, and so is their accumulate kernel;
    # from dim 11 on it runs through map
    monkeypatch.setattr(matrixeval, "_ACCUMULATORS", {})
    evaluate(parse("2x"), random_assignment("x", dim, seed=dim))
    kernel = matrixeval._ACCUMULATORS[dim]
    assert kernel is matrixeval._accumulator(dim)
    assert kernel.__name__ == ("accumulate" if dim <= 10 else "_accumulate_rows")
    rng = random.Random(dim)
    t, p = (tuple(tuple(rng.choice([0.0, -0.0, rng.uniform(-1e3, 1e3)]) for _ in range(dim)) for _ in range(dim)) for _ in "tp")
    for k in (1.5, -0.25, 3.0, 0.1):
        assert _hex_rows(kernel(t, p, k)) == _accumulated_by_hand(t, p, k)
    # a -0.0 total plus a -0.0 product stays -0.0, and plus a 0.0 product becomes 0.0
    zeros = ((-0.0,) * dim,) * dim
    assert _hex_rows(kernel(zeros, zeros, 1.0)) == [[(-0.0).hex()] * dim] * dim
    assert _hex_rows(kernel(zeros, zeros, -1.0)) == [[(0.0).hex()] * dim] * dim


def test_accumulate_kernels_compile_deep_in_the_stack(monkeypatch):
    # the sibling of the product kernels' test: the whole accumulate kernel at dim 10 and
    # the kernels above the cap at dims 11 and 100 build 60 frames short of the recursion limit
    monkeypatch.setattr(matrixeval, "_ACCUMULATORS", {})
    rng = random.Random(61)
    dims = [10, 11, 100]
    blocks = [tuple(tuple(rng.gauss(0, 1) for _ in range(n)) for _ in range(2 * n)) for n in dims]

    def deep(frames):
        if frames > 0:
            return deep(frames - 1)
        return [matrixeval._accumulator(n)(block[:n], block[n:], 0.75) for n, block in zip(dims, blocks)]

    results = deep(sys.getrecursionlimit() - 60 - len(inspect.stack(0)))
    for n, block, got in zip(dims, blocks, results):
        assert _hex_rows(got) == _accumulated_by_hand(block[:n], block[n:], 0.75)


def test_matrix_results_are_pinned_bitwise():
    # the same bits on every supported Python: no entry goes through sum(),
    # which compensates float sums from 3.12 on
    assert float_digest.digest(4, dims=(3, 8)) == "b18eef2dc4dd81942e53c5a1abe47dc0e53326dc900ec92d9ad930164d4b7429"
    # dim 11 runs the per-row product kernel and the map accumulate
    assert float_digest.digest(4, dims=(11,)) == "21aed8e201ede7abe54d09a7f80723128a428f667aa3ec08eef36edd0419eb5e"
    a, b = parse("xY + 2z - 0.5zX"), parse("Xy + yyz")
    report = homomorphism_check(a, b, random_assignment("xyz", 8, seed=21))
    assert repr(report) == (
        "HomomorphismReport(max_abs_residual=6.750155989720952e-14, "
        "max_rel_residual=5.07156047633759e-16, passed=True)"
    )


def _standard_polynomial(n):
    """``S_n = sum of sign(p) * x_p(1)...x_p(n)`` over the permutations of the first ``n`` letters."""
    terms = []
    for p in itertools.permutations(range(1, n + 1)):
        inversions = sum(i > j for i, j in itertools.combinations(p, 2))
        terms.append((p, -1.0 if inversions % 2 else 1.0))
    return Element(terms)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_dim_d_check_is_blind_to_the_standard_polynomial_of_degree_2d(d):
    # Amitsur-Levitzki: S_2d is an identity of d x d matrices and of no larger ones, so an
    # error of S_2d in a*b passes every dim-d check and shows at dim d+1
    s = _standard_polynomial(2 * d)
    letters = "abcdef"[: 2 * d]
    for seed in (1, 2, 3):
        assert evaluate(s, random_assignment(letters, d, seed)).max_abs() <= 1e-10
        assert evaluate(s, random_assignment(letters, d + 1, seed)).max_abs() >= 0.1
