import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncpoly import Element, NonFiniteCoefficient, commutator, derivative, from_json, parse, substitute, to_json
from ncpoly.element import POWER_LIMIT
from ncpoly.words import word_from_text

from oracles import assert_normalized, brute_reduce, naive_collation_key

coeffs = st.integers(-9, 9)
symbols = st.sampled_from([1, -1, 2, -2, 3])
raw_words = st.lists(symbols, max_size=5).map(tuple)
elements = st.lists(st.tuples(raw_words, coeffs), max_size=5).map(Element)


@pytest.fixture
def paper():
    return parse("xxyx + 2zy"), parse("-2z + 3yyyy"), parse("3 + 5X - 2Xyx")


def test_construction_normalizes():
    assert Element({(24, -24): 2.0, (): 1.0}) == Element.constant(3)
    assert Element([((1,), 2.0), ((1,), -2.0)]) == Element.zero()
    assert len(Element.zero()) == 0
    assert not Element.zero()
    assert Element.one().constant_term == 1.0
    # a product that underflows to zero is dropped like any other zero,
    # and so is a sum that cancels, from every producer of terms
    tiny = Element({(1,): 1e-300})
    a = parse("xxyx + 2zy")
    cancelled = (
        tiny * 1e-300,
        1e-300 * tiny,
        0.5 * Element({(1,): 5e-324}),
        tiny * Element({(2,): 1e-300}),
        a + (-a),
        parse("x - x"),
        parse("0x - 0y"),
        Element({(1,): -0.0}),
        Element.constant(-0.0),
        Element.from_word("x", 0.0),
        derivative(Element({(1, 101): 1.0, (101, 1): -1.0}), "a"),
        substitute(1e-300 * parse("a"), a=1e-300 * parse("b")),
        substitute(parse("a - b"), a="b"),
    )
    for value in cancelled:
        assert_normalized(value)
        assert value == Element.zero()


def test_from_word():
    assert Element.from_word("xxY") == Element({(24, 24, -25): 1.0})
    assert Element.from_word((24, -24)) == Element.one()
    assert Element.from_word("zy", 2.0).coeff("zy") == 2.0


# text and bools are refused as coefficients, though float() would take them;
# ints, floats, Fraction and Decimal are numbers
NOT_NUMBERS = ["3", "1_000", b"3", bytearray(b"3"), True, False]


@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_constructor_takes_only_number_coefficients(value):
    with pytest.raises(TypeError, match="expected a number"):
        Element({(1,): value})
    assert Element({(1,): Fraction(3, 2), (2,): Decimal("0.5"), (): 2}) == parse("1.5a + 0.5b + 2")


@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_constant_takes_only_numbers(value):
    with pytest.raises(TypeError, match="expected a number"):
        Element.constant(value)
    assert Element.constant(Fraction(1, 4)) == Element.constant(Decimal("0.25")) == 0.25


@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_from_word_takes_only_a_number_coefficient(value):
    with pytest.raises(TypeError, match="expected a number"):
        Element.from_word("x", value)
    assert Element.from_word("x", 3) == Element.from_word((24,), Fraction(3)) == parse("3x")


def test_addition_golden(paper):
    a, b, _ = paper
    total = a + b
    assert total.coeff("xxyx") == 1
    assert total.coeff("yyyy") == 3
    assert total.coeff("z") == -2
    assert total.coeff("zy") == 2
    assert len(total) == 4


def test_additive_identity_and_inverse(paper):
    a, _, _ = paper
    assert a + Element.zero() == a
    assert parse("2xy") + parse("-2xy") == Element.zero()
    assert a - a == Element.zero()
    assert a + (-a) == Element.zero()


def test_product_cancels_inverses(paper):
    a, _, _ = paper
    product = a * parse("X")
    assert product.coeff("xxy") == 1
    assert product.coeff("zyX") == 2
    assert len(product) == 2


def test_single_letter_inverses_cancel_to_one():
    for text in "abcxyz":
        gen = parse(text)
        inv = parse(text.upper())
        assert gen * inv == Element.one()
        assert inv * gen == Element.one()


def test_noncommutativity_witness(paper):
    a, b, _ = paper
    assert a * b != b * a


def test_scalar_operations(paper):
    a, _, _ = paper
    assert 3 * parse("yyyy") == parse("3yyyy")
    assert parse("yyyy") * 3 == parse("3yyyy")
    assert 0 * a == Element.zero()
    assert -parse("xxyx + 2zy") == parse("-xxyx - 2zy")
    assert a + 1 == parse("1 + xxyx + 2zy")
    assert 1 - a == parse("1 - xxyx - 2zy")
    assert +a is a
    # anything but a real number or an Element is not an operand
    for operation in (
        lambda: a + "y",
        lambda: a - "y",
        lambda: "y" - a,
        lambda: a * None,
        lambda: a ** 2.0,
    ):
        with pytest.raises(TypeError):
            operation()


def test_pow():
    assert parse("x") ** 3 == parse("xxx")
    assert parse("xxyx + 2zy") ** 0 == Element.one()
    assert parse("x+y") ** 2 == parse("xx + xy + yx + yy")
    with pytest.raises(ValueError):
        parse("x") ** -1
    # the limit counts each step's operands, after earlier terms collided or cancelled
    binomial = parse("1+x") ** 30
    assert len(binomial) == 31 and binomial.coeff("x" * 15) == 155117520
    assert len(parse("x+X") ** 30) == 31
    # the symbols in all count: (x+y)**15 ends with (x+y)**7 times (x+y)**8, bounded
    # by 491,520 symbols; (x+y)**16 squares (x+y)**8, bounded by 1,048,576
    assert len(parse("x+y") ** 15) == 32768
    # a runaway power is refused before it expands
    for base, n in ((parse("x+y"), 16), (parse("x+y"), 40), (parse("x"), 10**9), (parse("x+y"), 10**100)):
        with pytest.raises(OverflowError, match=str(POWER_LIMIT)):
            base ** n


def test_commutator(paper):
    a = parse("a")
    b = parse("b")
    bracket = commutator(a, b)
    assert bracket == parse("ab - ba")
    assert commutator(a, a) == Element.zero()
    assert commutator(parse("x"), Element.one()) == Element.zero()


def test_queries(paper):
    a, _, c = paper
    assert c.constant_term == 3
    assert a.coeff("zy") == 2
    assert a.coeff("zzz") == 0.0
    assert a.coeff((26, 25)) == 2
    assert a.support() == [word_from_text("xxyx"), word_from_text("zy")]
    assert a.letters() == {24, 25, 26}
    assert c.letters() == {24, 25}
    assert (parse("X") * Element.from_word((101,))).letters() == {1, 24}
    assert repr(parse("x")) == "<Element + 1*x>"


def test_equality_is_order_free(paper):
    a, _, _ = paper
    assert a == parse("2zy + xxyx")
    assert a == Element([((26, 25), 2.0), ((24, 24, 25, 24), 1.0)])
    assert a != parse("2zy")
    assert Element.constant(3) == 3
    assert Element.zero() == 0
    assert Element.constant(3) != float("inf")
    assert Element.zero() != float("nan")
    assert (parse("x") == "x") is False


def test_hash_consistent_with_equality(paper):
    a, _, _ = paper
    assert hash(a) == hash(parse("2zy + xxyx"))
    assert len({a, parse("xxyx + 2zy"), parse("xxyx")}) == 2
    assert hash(Element.constant(3)) == hash(3)
    assert hash(Element.constant(2.5)) == hash(2.5)
    assert hash(Element.zero()) == hash(0)


def test_non_finite_coefficients_are_rejected():
    with pytest.raises(NonFiniteCoefficient):
        Element({(1,): 1e308}) * Element({(2,): 1e308})
    with pytest.raises(NonFiniteCoefficient):
        Element({(): float("inf")})
    with pytest.raises(NonFiniteCoefficient):
        Element.constant(float("nan"))
    with pytest.raises(NonFiniteCoefficient):
        parse("x") * float("inf")
    # a non-finite scalar is rejected as an operand, even against zero
    for scalar in (float("inf"), float("-inf"), float("nan")):
        for element in (parse("x"), parse("-x"), Element.zero()):
            for value in (lambda: element * scalar, lambda: scalar * element, lambda: element + scalar):
                with pytest.raises(NonFiniteCoefficient, match=repr(scalar)):
                    value()
    with pytest.raises(NonFiniteCoefficient):
        parse("2x") ** 1100
    with pytest.raises(NonFiniteCoefficient):
        substitute(parse("b") + 1e300 * parse("ab"), a=1e10 * parse("c"))
    # finite values whose sum overflows are still finite coefficients
    assert len(Element({(1,): 1e308, (2,): 1e308})) == 2
    assert isinstance(NonFiniteCoefficient(), ArithmeticError)


def test_pickle_goes_through_the_public_form(paper):
    for element in (*paper, Element.zero(), Element({(1, 101, -2): 2.5, (): 0.1})):
        loaded = pickle.loads(pickle.dumps(element))
        assert loaded == element and loaded.terms() == element.terms()
    # the pickle names the public constructor and holds decoded words, not stored bytes
    assert paper[0].__reduce__() == (Element, (paper[0].terms(),))


def test_operations_do_not_mutate_inputs(paper):
    a, b, _ = paper
    before_a, before_b = a.terms(), b.terms()
    a + b
    a * b
    -a
    a ** 2
    a.commutator(b)
    assert a.terms() == before_a
    assert b.terms() == before_b


@given(elements, elements, elements)
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@given(elements)
def test_multiplicative_identity(a):
    assert a * Element.one() == a
    assert Element.one() * a == a
    assert a * Element.zero() == Element.zero()


@given(elements, elements)
def test_results_are_normalized(a, b):
    values = (a, b, a + b, a - b, a * b, -a, a ** 2, a + (-a), a * 1e-300 * 1e-300, (a * 1e-200) * (b * 1e-200))
    values += (derivative(a, "a"), derivative(a * b, "b"), substitute(a, c=b), substitute(a - b, c=a))
    values += (parse(str(a)), from_json(to_json(a)))
    for value in values:
        assert_normalized(value)


tenths = st.integers(-9, 9).filter(bool).map(lambda n: n / 10)
tenths_elements = st.lists(st.tuples(raw_words, tenths), max_size=6).map(Element)


@given(tenths_elements, tenths_elements, st.randoms(use_true_random=False))
def test_equal_inputs_give_equal_products(a, c, rng):
    # same terms, other storage order: every result must match bit for bit
    terms = a.terms()
    rng.shuffle(terms)
    b = Element(terms)
    assert a == b
    assert a * c == b * c
    assert c * a == c * b
    assert a**3 == b**3


any_symbols = st.one_of(st.integers(1, 26), st.integers(-26, -1), st.integers(101, 126))


@given(st.lists(st.tuples(st.lists(any_symbols, max_size=6).map(tuple), coeffs), max_size=12))
def test_terms_come_in_collation_order(pairs):
    summed = {}
    for word, coeff in pairs:
        word = brute_reduce(word)
        summed[word] = summed.get(word, 0) + coeff
    words = sorted((word for word, coeff in summed.items() if coeff), key=naive_collation_key)
    element = Element(pairs)
    assert [word for word, _ in element.terms()] == element.support() == words


def test_stored_words_have_distinct_hashes():
    # A and B are the codes -1 and -2, and hash(-1) == hash(-2) in CPython
    power = parse("A+B+c") ** 8
    assert len(power) == 3**8
    assert len({hash(word) for word in power._terms}) == len(power)
