import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ncpoly
from ncpoly import (
    Element,
    Matrix,
    MatrixAssignment,
    NonInvertibleReplacement,
    SplitMix64,
    derivative,
    evaluate,
    parse,
    random_assignment,
    standard_normal_matrix,
    substitute,
)
from ncpoly.words import differential, inverse, letter, word_from_text

from oracles import assert_normalized, expand_product, mat_add, mat_scale, mat_sub, substitute_symbols

coeffs = st.integers(-9, 9)
symbols = st.sampled_from([1, -1, 2, -2, differential("a")])
raw_words = st.lists(symbols, max_size=4).map(tuple)
elements = st.lists(st.tuples(raw_words, coeffs), max_size=4).map(Element)


# ----------------------------------------------------------------------
# substitution


def test_substitution_golden_single():
    result = substitute(parse("aabccc"), b="1+3x")
    assert str(result) == "+ 1*aaccc + 3*aaxccc"


def test_substitution_golden_sequential():
    result = substitute(parse("abccc"), b="1+3x", x="1+d+2e")
    assert str(result) == "+ 4*accc + 3*adccc + 6*aeccc"
    # pairs form gives the same thing
    paired = substitute(parse("abccc"), [("b", parse("1+3x")), ("x", parse("1+d+2e"))])
    assert paired == result


def test_identity_substitution():
    assert substitute(parse("x"), x="x") == parse("x")
    assert substitute(parse("xxyx + 2zy"), []) == parse("xxyx + 2zy")


def test_replacement_value_forms():
    assert substitute(parse("ab"), b=2) == parse("2a")
    assert substitute(parse("ab"), b=parse("c")) == parse("ac")
    assert substitute(parse("ab"), b=0) == Element.zero()
    with pytest.raises(TypeError):
        substitute(parse("x"), x=object())


def test_inverse_occurrence_uses_group_inverse():
    result = substitute(parse("X"), x="3y")
    assert result == Element.from_word("Y", 1.0 / 3.0)
    # x X still collapses to 1 after substituting both occurrences
    assert substitute(parse("xyX"), y="ab") == parse("xabX")
    assert substitute(parse("xX"), x="3y") == Element.one()


def test_noninvertible_replacement_raises():
    with pytest.raises(NonInvertibleReplacement):
        substitute(parse("X"), x="1+y")
    with pytest.raises(NonInvertibleReplacement):
        substitute(parse("aXb"), x=Element.zero())
    with pytest.raises(NonInvertibleReplacement):
        substitute(parse("X"), x=derivative(parse("x"), "x"))


def test_an_inverse_occurrence_is_refused_before_any_arithmetic():
    # "Ba" sorts before "bA", and its coefficient overflows under either replacement
    element = 1e300 * parse("Ba") + parse("bA")
    for replacement in (1e10 * derivative(parse("a"), "a"), 1e300 * parse("c + d")):
        with pytest.raises(NonInvertibleReplacement):
            substitute(element, a=replacement)


def test_multiterm_replacement_fine_without_inverse_occurrences():
    assert substitute(parse("xy"), x="a+b") == parse("ay + by")


def test_substitution_matches_expansion_oracle():
    replacement = parse("3x")
    replacement_terms = {word_from_text("x"): 3.0}
    inverse_terms = {word_from_text("X"): 1.0 / 3.0}
    alphabet = [letter("a"), letter("b"), inverse("a"), inverse("b")]
    images = {
        letter("a"): {(letter("a"),): 1.0},
        inverse("a"): {(inverse("a"),): 1.0},
        letter("b"): replacement_terms,
        inverse("b"): inverse_terms,
    }
    for length in range(5):
        for seq in itertools.product(alphabet, repeat=length):
            expected = expand_product([images[sym] for sym in seq])
            expected = {w: c for w, c in expected.items() if c != 0.0}
            got = substitute(Element.from_word(seq), b=replacement)
            assert got == Element(expected), seq


# multi-term replacements need words free of the target's inverse
no_b_inverse_words = st.lists(
    st.sampled_from([1, -1, 2, differential("a")]), max_size=4
).map(tuple)
no_b_inverse_elements = st.lists(
    st.tuples(no_b_inverse_words, coeffs), max_size=4
).map(Element)


@given(no_b_inverse_elements, no_b_inverse_elements)
def test_substitution_is_multiplicative_and_additive(a, b):
    pair = [("b", parse("1 + 2x"))]
    assert substitute(a * b, pair) == substitute(a, pair) * substitute(b, pair)
    assert substitute(a + b, pair) == substitute(a, pair) + substitute(b, pair)


@given(elements, elements)
def test_single_term_substitution_is_multiplicative(a, b):
    # coefficient 2 keeps the inverse image's 1/c scaling exact in binary
    pair = [("b", parse("2x"))]
    assert substitute(a * b, pair) == substitute(a, pair) * substitute(b, pair)


# dyadic coefficients keep every sum and product exact but 1/c, so the oracle
# multiplies in occurrence order and sums the words in print order, as the library does
dyadic = st.integers(-8, 8).filter(bool).map(lambda n: n / 4)
# a letter, the target b, their inverses and two differential tokens
oracle_symbols = [1, -1, 2, -2, differential("a"), differential("b")]
oracle_words = st.lists(st.sampled_from(oracle_symbols), max_size=6).map(tuple)
# short replacement words, so that they often cancel against their neighbours
image_words = st.lists(st.sampled_from(oracle_symbols), max_size=3).map(tuple)
one_term = st.tuples(image_words, dyadic).map(lambda term: [term])
several_terms = st.lists(st.tuples(image_words, dyadic), min_size=2, max_size=3)
# half the elements avoid B, so that several-term replacements apply to them
no_inverse_b = st.lists(st.sampled_from([s for s in oracle_symbols if s != -2]), max_size=6).map(tuple)
oracle_pairs = st.one_of(*(st.lists(st.tuples(words, dyadic), max_size=5) for words in (oracle_words, no_inverse_b)))


@given(oracle_pairs, st.one_of(one_term, several_terms, st.just([])))
# ab with b -> 2A, aBa with b -> 0.5a and ba with b -> 0.5A + 0.25a: the pieces cancel
@example([((1, 2), 1.0)], [((-1,), 2.0)])
@example([((1, -2, 1), 0.75)], [((1,), 0.5)])
@example([((2, 1), 1.0)], [((-1,), 0.5), ((1,), 0.25)])
def test_substitution_matches_symbol_oracle(pairs, replacement_pairs):
    # inverse occurrences and tokens in the words, and one-term, several-term
    # and zero replacements, some with tokens: NonInvertibleReplacement included
    element, replacement = Element(pairs), Element(replacement_pairs)
    images = dict(replacement.terms())
    expected = {}
    for word, coeff in element.terms():
        expansion = substitute_symbols(word, coeff, letter("b"), images)
        if expansion is None:
            with pytest.raises(NonInvertibleReplacement):
                substitute(element, b=replacement)
            return
        for w, c in expansion.items():
            expected[w] = expected.get(w, 0.0) + c
    assert substitute(element, b=replacement) == Element(expected)


def test_substitution_work_is_linear_in_its_output(monkeypatch):
    # the words that substitution joins and reduces, counted by their lengths;
    # copying the whole prefix at each of the 4,000 occurrences would sum to about 5e7
    power, replacement = parse("x") ** 4000, parse("yzX")
    produced = []

    def counted(function):
        def wrapper(*args):
            word = function(*args)
            produced.append(len(word))
            return word

        return wrapper

    for module in (ncpoly.calculus, ncpoly.element):
        for name in ("join_reduced", "reduce_checked"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    result = substitute(power, x=replacement)
    assert result == Element.from_word("yzX" * 4000)
    assert sum(produced) <= 3 * 12000


# ----------------------------------------------------------------------
# differentiation


def test_derivative_golden():
    result = derivative(parse("aaaxaa"), "a")
    assert str(result) == (
        "+ 1*aaaxa(da) + 1*aaax(da)a + 1*aa(da)xaa + 1*a(da)axaa + 1*(da)aaxaa"
    )
    a, x, da = letter("a"), letter("x"), differential("a")
    expected = Element(
        {
            (a, a, a, x, a, da): 1.0,
            (a, a, a, x, da, a): 1.0,
            (a, a, da, x, a, a): 1.0,
            (a, da, a, x, a, a): 1.0,
            (da, a, a, x, a, a): 1.0,
        }
    )
    assert result == expected


def test_derivative_of_constants_and_other_letters():
    assert derivative(Element.constant(5), "a") == Element.zero()
    assert derivative(parse("xyz"), "a") == Element.zero()


def test_derivative_of_inverse_letter():
    # forced by differentiating x * x^-1 = 1
    assert derivative(parse("X"), "x") == Element(
        {(inverse("x"), differential("x"), inverse("x")): -1.0}
    )
    assert derivative(parse("xX"), "x") == Element.zero()


def test_differential_tokens_are_inert_constants():
    once = derivative(parse("aa"), "a")
    assert str(once) == "+ 1*a(da) + 1*(da)a"
    twice = derivative(once, "a")
    da = differential("a")
    assert twice == Element({(da, da): 2.0})
    assert derivative(Element.from_word((da,)), "a") == Element.zero()


@given(elements, elements)
def test_derivative_is_linear(a, b):
    assert derivative(a + b, "a") == derivative(a, "a") + derivative(b, "a")


@given(elements, elements)
def test_derivative_product_rule(a, b):
    assert derivative(a * b, "a") == derivative(a, "a") * b + a * derivative(b, "a")


@given(elements)
def test_derivative_output_is_normalized(a):
    assert_normalized(derivative(a, "a"))
    assert_normalized(derivative(a, "b"))


long_words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=10).map(tuple)


@given(st.lists(st.tuples(long_words, coeffs), max_size=4).map(Element))
def test_derivative_words_stay_reduced_on_long_words(a):
    for target in "abc":
        assert_normalized(derivative(a, target))


tenths = st.integers(-9, 9).filter(bool).map(lambda n: n / 10)
# no inverse of c, so c can take a polynomial replacement
no_c_inverse_words = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, differential("a")]), max_size=5
).map(tuple)
# repeated derivatives of words in a and (da) sum many contributions into one word
a_da_words = st.lists(st.sampled_from([1, differential("a")]), max_size=6).map(tuple)


def _both_orders(pairs):
    terms = Element(pairs).terms()
    return Element(terms), Element(reversed(terms))


@given(
    st.lists(st.tuples(no_c_inverse_words, tenths), max_size=12),
    st.lists(st.tuples(a_da_words, tenths), max_size=16),
)
def test_results_do_not_depend_on_term_order(pairs, a_da_pairs):
    a, b = _both_orders(pairs)
    # the constants collapse many words into one
    rewrites = [("c", parse("0.3a - 1.7 + 0.9Ba")), ("b", 0.7)]
    assert substitute(a, rewrites).terms() == substitute(b, rewrites).terms()
    assignment = random_assignment("abc", 3, seed=17, diff_letters="a")
    assert evaluate(a, assignment).rows == evaluate(b, assignment).rows
    assert derivative(a, "b").terms() == derivative(b, "b").terms()
    a, b = _both_orders(a_da_pairs)
    for _ in range(3):
        a, b = derivative(a, "a"), derivative(b, "a")
        assert a.terms() == b.terms()


# ----------------------------------------------------------------------
# numerical cross-check of the derivative


def _gradient_relative_error(element, step, seed):
    dim = 4
    rng = SplitMix64(seed)
    base = {
        "a": standard_normal_matrix(dim, rng),
        "b": standard_normal_matrix(dim, rng),
    }
    direction = standard_normal_matrix(dim, rng)
    plain = MatrixAssignment(dim, base)
    shifted_a = Matrix(mat_add(base["a"].rows, mat_scale(step, direction.rows)))
    shifted = MatrixAssignment(dim, {"a": shifted_a, "b": base["b"]})
    fd = mat_scale(
        1.0 / step, mat_sub(evaluate(element, shifted).rows, evaluate(element, plain).rows)
    )
    exact = evaluate(
        derivative(element, "a"),
        MatrixAssignment(dim, base, {"a": direction}),
    )
    return max(
        abs(f - e) / (1.0 + abs(e))
        for rf, re_ in zip(fd, exact.rows)
        for f, e in zip(rf, re_)
    )


def test_derivative_matches_finite_differences():
    element = parse("aab + 3ba - 2a + 7")
    errors = [_gradient_relative_error(element, h, seed=99) for h in (1e-4, 1e-5, 1e-6)]
    assert errors[1] <= errors[0] * 2.0
    assert errors[2] <= errors[1] * 2.0
    assert errors[-1] <= 1e-3
