"""End-to-end acceptance checks, one test per shipped guarantee.

Run ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion; the whole module finishes in a few seconds.
"""

import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from ncpoly import (
    Element,
    Matrix,
    MatrixAssignment,
    NonInvertibleReplacement,
    ParseError,
    RandSpec,
    SingularMatrix,
    SplitMix64,
    UnboundLetter,
    canonical_print,
    commutator,
    derivative,
    evaluate,
    from_json,
    homomorphism_check,
    parse,
    random_assignment,
    random_element,
    reduce_word,
    standard_normal_matrix,
    substitute,
    to_json,
)
from ncpoly.parsing import BAD_NUMBER, EMPTY_TERM, TRAILING_INPUT, UNEXPECTED_CHAR

from oracles import brute_reduce, mat_add, mat_scale, mat_sub

FIXTURES = Path(__file__).parent / "fixtures"


def _verdict(number: int, label: str, ok: bool, detail: str = ""):
    print(f"criterion {number} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {number} failed: {label} {detail}".rstrip()


def _cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "ncpoly", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_criterion_1_golden_outputs():
    a = parse("xxyx + 2zy")
    b = parse("-2z + 3yyyy")
    c = parse("3 + 5X - 2Xyx")
    inv_x = parse("X")
    cases = [
        (a + b, "+ 1*xxyx + 3*yyyy - 2*z + 2*zy"),
        (a * b, "+ 3*xxyxyyyy - 2*xxyxz + 6*zyyyyy - 4*zyz"),
        (b * a, "+ 3*yyyyxxyx + 6*yyyyzy - 2*zxxyx - 4*zzy"),
        (a * inv_x, "+ 1*xxy + 2*zyX"),
        (c, "+ 3 + 5*X - 2*Xyx"),
        (a * c, "+ 5*xxy + 3*xxyx - 2*xxyyx + 6*zy + 10*zyX - 4*zyXyx"),
        (c * a, "- 2*Xyxxxyx - 4*Xyxzy + 10*Xzy + 3*xxyx + 5*xyx + 6*zy"),
        (commutator(parse("a"), parse("b")), "+ 1*ab - 1*ba"),
        (substitute(parse("aabccc"), b="1+3x"), "+ 1*aaccc + 3*aaxccc"),
        (substitute(parse("abccc"), b="1+3x", x="1+d+2e"), "+ 4*accc + 3*adccc + 6*aeccc"),
        (
            derivative(parse("aaaxaa"), "a"),
            "+ 1*aaaxa(da) + 1*aaax(da)a + 1*aa(da)xaa + 1*a(da)axaa + 1*(da)aaxaa",
        ),
    ]
    failures = []
    for value, expected in cases:
        printed = canonical_print(value)
        if printed != expected:
            failures.append(f"{printed!r} != {expected!r}")
        # order-free algebraic check; differential words have no text syntax
        if "(d" not in expected and parse(expected) != value:
            failures.append(f"reparse of {expected!r} is not equal algebraically")
    _verdict(1, "golden printed outputs match term for term", not failures, "; ".join(failures))


def test_criterion_2_law_suite():
    a = parse("xxyx + 2zy")
    b = parse("-2z + 3yyyy")
    c = parse("3 + 5X - 2Xyx")
    triples = [(a, b, c)]
    for k in range(200):
        triples.append(
            (
                random_element(RandSpec(seed=100_000 + 3 * k)),
                random_element(RandSpec(seed=100_001 + 3 * k)),
                random_element(RandSpec(seed=100_002 + 3 * k)),
            )
        )
    ok = all(
        x * (y + z) == x * y + x * z
        and (x + y) * z == x * z + y * z
        and x * (y * z) == (x * y) * z
        and x + y == y + x
        for x, y, z in triples
    )
    _verdict(2, "distributivity and associativity on paper values plus 200 seeded triples", ok)


def test_criterion_3_jacobi_identity():
    ok = True
    for k in range(100):
        x = random_element(RandSpec(seed=200_000 + 3 * k))
        y = random_element(RandSpec(seed=200_001 + 3 * k))
        z = random_element(RandSpec(seed=200_002 + 3 * k))
        total = (
            commutator(x, commutator(y, z))
            + commutator(y, commutator(z, x))
            + commutator(z, commutator(x, y))
        )
        ok = ok and total == Element.zero()
    _verdict(3, "Jacobi identity exactly zero on 100 seeded triples", ok)


def test_criterion_4_matrix_homomorphism():
    a = parse("xxyx + 2zy")
    b = parse("-2z + 3yyyy")
    assignment = random_assignment("xyz", 5, seed=424242)
    report = homomorphism_check(a, b, assignment, tol=1e-9)
    _verdict(
        4,
        f"5x5 homomorphism check passes at 1e-9 (max_rel={report.max_rel_residual:.3e})",
        report.passed,
    )


def test_criterion_5_reduction_oracle():
    alphabet = (24, -24, 25, -25)  # x, X, y, Y
    checked = 0
    ok = True
    for length in range(7):
        for seq in itertools.product(alphabet, repeat=length):
            ok = ok and reduce_word(seq) == brute_reduce(seq)
            checked += 1
    _verdict(5, f"reducer agrees with brute-force fixpoint oracle on {checked} sequences", ok)


def test_criterion_6_derivative_finite_differences():
    step = 1e-6
    ok = True
    worst = 0.0
    for k in range(20):
        element = random_element(RandSpec(seed=300_000 + k, alphabet="ab"))
        rng = SplitMix64(310_000 + k)
        base = {"a": standard_normal_matrix(4, rng), "b": standard_normal_matrix(4, rng)}
        direction = standard_normal_matrix(4, rng)
        plain = MatrixAssignment(4, base)
        shifted_a = Matrix(mat_add(base["a"].rows, mat_scale(step, direction.rows)))
        shifted = MatrixAssignment(4, {"a": shifted_a, "b": base["b"]})
        fd = mat_scale(
            1.0 / step, mat_sub(evaluate(element, shifted).rows, evaluate(element, plain).rows)
        )
        exact = evaluate(derivative(element, "a"), MatrixAssignment(4, base, {"a": direction}))
        error = max(
            abs(f - e) / (1.0 + abs(e))
            for rf, re_ in zip(fd, exact.rows)
            for f, e in zip(rf, re_)
        )
        worst = max(worst, error)
        ok = ok and error <= 1e-3
    _verdict(6, f"finite differences match derivative at 1e-3 (worst {worst:.2e})", ok)


def test_criterion_7_round_trips():
    ok = True
    # parse . canonical_print on 500 differential-free elements
    for k in range(500):
        element = random_element(
            RandSpec(seed=400_000 + k, alphabet="abcx", allow_inverse=(k % 2 == 0))
        )
        ok = ok and parse(canonical_print(element)) == element
    # from_json . to_json on 500 elements including differential tokens
    for k in range(500):
        element = random_element(RandSpec(seed=500_000 + k, allow_inverse=(k % 3 == 0)))
        if k % 2 == 0:
            element = element * Element.from_word((101,)) + element
        ok = ok and from_json(to_json(element)) == element
    # CLI json output re-read through the process boundary
    for text in ("xxyx + 2zy", "3 + 5X - 2Xyx", ""):
        result = _cli("json", text)
        ok = ok and result.returncode == 0
        ok = ok and from_json(result.stdout.strip()) == parse(text)
    _verdict(7, "parse/print, JSON, and CLI process-boundary round trips", ok)


def test_criterion_8_error_paths():
    failures = []

    def expect(label, condition):
        if not condition:
            failures.append(label)

    # every documented ParseError kind, with its exit code via the CLI
    kind_cases = [
        ("x?y", UNEXPECTED_CHAR),
        ("1.2.3", BAD_NUMBER),
        ("2x +", EMPTY_TERM),
        ("2x 3", TRAILING_INPUT),
    ]
    for text, kind in kind_cases:
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        expect(f"kind {kind}", excinfo.value.kind == kind)
        expect(f"exit 2 for {text!r}", _cli("eval", text).returncode == 2)

    with pytest.raises(UnboundLetter):
        evaluate(parse("xy"), random_assignment("x", 3, seed=1))
    result = _cli("matcheck", "xy", "x", "--matrices", str(FIXTURES / "singular_matrices.json"))
    expect("UnboundLetter exit 3", result.returncode == 3)

    with pytest.raises(SingularMatrix):
        from ncpoly import Matrix

        Matrix([[1.0, 2.0], [2.0, 4.0]]).inverse()
    result = _cli("matcheck", "X", "x", "--matrices", str(FIXTURES / "singular_matrices.json"))
    expect("SingularMatrix exit 3", result.returncode == 3)

    with pytest.raises(NonInvertibleReplacement):
        substitute(parse("X"), x="1+y")
    expect("NonInvertibleReplacement exit 3", _cli("subs", "X", "x", "1+y").returncode == 3)

    expect("usage errors exit 4", _cli("deriv", "x").returncode == 4)
    _verdict(8, "documented error paths and exit codes", not failures, "; ".join(failures))
