import copy
import inspect
import itertools
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
    for bad in ([[1.0, 2.0]], [], [[float("nan")]], [[float("inf")]]):
        with pytest.raises(ValueError):
            Matrix(bad)
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        Matrix.identity(2) @ Matrix.identity(3)
    with pytest.raises(TypeError):
        Matrix.identity(2) @ 2


@pytest.mark.parametrize("entry", ["1", "1_000", b"1", bytearray(b"1"), True, False])
def test_matrix_entries_are_numbers(entry):
    # float() would take text and bools; the constructor refuses them
    with pytest.raises(TypeError, match="expected a number"):
        Matrix([[1.0, 2.0], [3.0, entry]])
    assert Matrix([[1, Fraction(1, 2)], [Decimal("3"), 4.0]]).rows == ((1.0, 0.5), (3.0, 4.0))


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
    from ncpoly import derivative

    assignment = random_assignment("x", 3, seed=4)
    for element, letter in [(parse("xy"), "y"), (parse("Y"), "y"), (derivative(parse("x"), "x"), "(dx)")]:
        with pytest.raises(UnboundLetter) as excinfo:
            evaluate(element, assignment)
        assert excinfo.value.letter == letter


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


# dim 11 is above the cap: its products run per row and its words add through map
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
    product, accumulate = matrixeval._kernels(3)

    def counting_product(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(matrixeval, "_kernels", lambda n: (counting_product, accumulate))
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


def test_a_check_with_two_faults_raises_the_first_one_met():
    # the check meets its faults in one order: the fold of a, the fold of b, their product,
    # then a * b and its fold, so each input gives one exception with one message
    singular = MatrixAssignment(3, {"x": Matrix([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])})
    with pytest.raises(UnboundLetter, match="'z'"):
        homomorphism_check(parse("z"), parse("X"), singular)
    # 1e200 * 1e200 overflows in the product of the folds, before a * b overflows its coefficient
    big = "1" + "0" * 200
    with pytest.raises(NonFiniteCoefficient) as excinfo:
        homomorphism_check(parse(big + "x"), parse(big + "y"), random_assignment("xy", 3, seed=3))
    assert str(excinfo.value) == "matrix entries must be finite"
    # 1e300 * (1e10)**2 overflows in the fold of a, before b meets its unbound z
    with pytest.raises(NonFiniteCoefficient, match="matrix entries must be finite"):
        homomorphism_check(parse("1" + "0" * 300 + "xx"), parse("z"), MatrixAssignment(1, {"x": Matrix([[1e10]])}))


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


def _square(dim, rng):
    return tuple(tuple(rng.choice([0.0, -0.0, rng.uniform(-1e3, 1e3)]) for _ in range(dim)) for _ in range(dim))


def _hex_rows(rows):
    return [[x.hex() for x in row] for row in rows]


def _accumulated_by_hand(t, p, k):
    return [[(x + y * k).hex() for x, y in zip(tr, pr)] for tr, pr in zip(t, p)]


@given(st.integers(1, 12).flatmap(lambda dim: st.lists(st.lists(kernel_entries, min_size=dim, max_size=dim), min_size=2 * dim, max_size=2 * dim)))
# sum's integer start turns a -0.0 first product into 0.0, and so does the kernel
@example([[-0.0, -0.0], [-0.0, -0.0], [1.0, 0.0], [1.0, 0.0]])
def test_matmul_kernel_equals_the_oracle_bitwise(rows):
    # a and b are the square halves of 2*dim rows, at dims 1 to 12, on both sides of the cap
    a, b = rows[: len(rows) // 2], rows[len(rows) // 2:]
    got = matrixeval._kernels(len(a))[0](tuple(map(tuple, a)), tuple(map(tuple, b)))
    # float.hex tells 0.0 from -0.0, which == does not
    assert _hex_rows(got) == _hex_rows(mat_mul(a, b))


@pytest.mark.parametrize("dim", [1, 3, 10, 11])
def test_kernels_on_both_sides_of_the_cap(dim):
    # a dim-10 product is 1,000 multiply-adds, so its pair is written whole; a dim-11 one is
    # 1,331, so it runs per row and adds through map
    matrixeval._kernels.cache_clear()
    evaluate(parse("2x"), random_assignment("x", dim, seed=dim))
    assert matrixeval._kernels.cache_info().currsize == 1
    product, accumulate = matrixeval._kernels(dim)
    assert (product, accumulate) == matrixeval._kernels(dim)
    whole = dim**3 <= matrixeval._UNROLL_BUDGET
    assert (product.__name__, accumulate.__name__) == (("whole", "accumulate") if whole else ("row", "_accumulate_rows"))
    rng = random.Random(dim)
    a, b = _square(dim, rng), _square(dim, rng)
    assert _hex_rows(product(a, b)) == _hex_rows((Matrix(a) @ Matrix(b)).rows) == _hex_rows(mat_mul(a, b))
    for k in (1.5, -0.25, 3.0, 0.1):
        assert _hex_rows(accumulate(a, b, k)) == _accumulated_by_hand(a, b, k)
    # a -0.0 total plus a -0.0 product stays -0.0, and plus a 0.0 product becomes 0.0
    zeros = ((-0.0,) * dim,) * dim
    assert _hex_rows(accumulate(zeros, zeros, 1.0)) == [[(-0.0).hex()] * dim] * dim
    assert _hex_rows(accumulate(zeros, zeros, -1.0)) == [[(0.0).hex()] * dim] * dim
    # a sum of -0.0 products starts from 0.0, as sum does up to 3.11, so it is 0.0
    assert _hex_rows(product(zeros, ((1.0,) * dim,) * dim)) == [[(0.0).hex()] * dim] * dim


@pytest.mark.parametrize("n", [1, 64, 65, 1024, 5000])
def test_row_kernel_carries_long_sums_across_chunks(n):
    # one n-long row against one column: one chunk at 1 and at 64, a second chunk of one
    # product at 65, 16 chunks of 64 products at 1,024, and at 5,000 a length that a
    # kernel nesting one level per product cannot be compiled at
    rng = random.Random(n)
    row = tuple(rng.gauss(0, 1) for _ in range(n))
    col = tuple(rng.gauss(0, 1) for _ in range(n))
    (got,) = matrixeval._row_kernel(n)((row,), tuple(zip(col)))
    assert _hex_rows([got]) == _hex_rows([[dot(row, col)]])


def test_each_fold_fetches_its_kernel_pair_once(monkeypatch):
    # the three folds of a check and its one @ each look the pair up once, however many
    # products and accumulate steps they then run
    calls, real_kernels = [], matrixeval._kernels
    monkeypatch.setattr(matrixeval, "_kernels", lambda n: calls.append(n) or real_kernels(n))
    report = homomorphism_check(parse("xy + 2yxx"), parse("x - yy"), random_assignment("xy", 4, seed=5))
    assert report.passed
    assert calls == [4, 4, 4, 4]


def test_kernels_compile_deep_in_the_stack():
    # the compiler nests one level per product of a sum, and no generated sum is longer
    # than 64 products, so every kernel compiles 60 frames short of the recursion limit;
    # there a 1,024-product sum raises RecursionError on Python 3.10 and 3.11
    matrixeval._kernels.cache_clear()
    rng = random.Random(60)
    dims, lengths = [10, 11, 100], [1024, 5000]
    squares = [(_square(n, rng), _square(n, rng)) for n in dims]
    dots = [tuple(rng.gauss(0, 1) for _ in range(2 * n)) for n in lengths]

    def deep(frames):
        if frames > 0:
            return deep(frames - 1)
        return [matrixeval._kernels(n) for n in dims], [matrixeval._row_kernel(n) for n in lengths]

    pairs, row_kernels = deep(sys.getrecursionlimit() - 60 - len(inspect.stack(0)))
    for (product, accumulate), (a, b) in zip(pairs, squares):
        assert _hex_rows(product(a, b)) == _hex_rows(mat_mul(a, b))
        assert _hex_rows(accumulate(a, b, 0.75)) == _accumulated_by_hand(a, b, 0.75)
    for kernel, n, v in zip(row_kernels, lengths, dots):
        assert _hex_rows(kernel((v[:n],), tuple(zip(v[n:])))) == _hex_rows([[dot(v[:n], v[n:])]])


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


@st.composite
def faulty_products(draw):
    """``(d, a, b, faulty)``: inverse-free ``a``, ``b`` over xyz with ``deg(a*b) < 2d``, and
    ``a*b`` with one coefficient moved by 1e-3 or, from ``d = 2``, the first two letters of
    one word swapped where they differ."""
    d = draw(st.integers(1, 3))
    deg_a = draw(st.integers(0, 2 * d - 1))
    coeffs = st.integers(-9, 9).filter(bool).map(float)
    a, b = (
        Element(draw(st.dictionaries(st.lists(st.sampled_from([24, 25, 26]), max_size=deg).map(tuple), coeffs, min_size=1, max_size=4)))
        for deg in (deg_a, 2 * d - 1 - deg_a)
    )
    terms = (a * b).terms()
    swappable = [(w, c) for w, c in terms if len(w) >= 2 and w[0] != w[1]] if d >= 2 else []
    if swappable and draw(st.booleans()):
        w, c = draw(st.sampled_from(swappable))
        fault = Element([(w[1::-1] + w[2:], c), (w, -c)])
    else:
        fault = Element([(draw(st.sampled_from(terms))[0], 1e-3)])
    return d, a, b, a * b + fault


@settings(derandomize=True)  # the residual is nonzero with probability 1, not for every seed
@given(faulty_products(), st.integers(0, 2**32))
def test_a_dim_d_check_sees_a_fault_of_degree_below_2d(case, seed):
    # the converse: the fault is a nonzero inverse-free polynomial of degree below 2d, so it is
    # no identity of d x d matrices, and its value at Gaussian bindings is not zero
    d, a, b, faulty = case
    assignment = random_assignment("xyz", d, seed)
    direct = evaluate(faulty, assignment)
    residual = mat_max_abs_diff((evaluate(a, assignment) @ evaluate(b, assignment)).rows, direct.rows)
    assert residual > 1e-9 * (1.0 + direct.max_abs())
