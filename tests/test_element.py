import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncpoly import Element, commutator, parse
from ncpoly.words import word_from_text

from oracles import assert_normalized

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


def test_from_word():
    assert Element.from_word("xxY") == Element({(24, 24, -25): 1.0})
    assert Element.from_word((24, -24)) == Element.one()
    assert Element.from_word("zy", 2.0).coeff("zy") == 2.0


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


def test_pow():
    assert parse("x") ** 3 == parse("xxx")
    assert parse("xxyx + 2zy") ** 0 == Element.one()
    assert parse("x+y") ** 2 == parse("xx + xy + yx + yy")
    with pytest.raises(ValueError):
        parse("x") ** -1


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


def test_equality_is_order_free(paper):
    a, _, _ = paper
    assert a == parse("2zy + xxyx")
    assert a == Element([((26, 25), 2.0), ((24, 24, 25, 24), 1.0)])
    assert a != parse("2zy")
    assert Element.constant(3) == 3
    assert Element.zero() == 0


def test_hash_consistent_with_equality(paper):
    a, _, _ = paper
    assert hash(a) == hash(parse("2zy + xxyx"))
    assert len({a, parse("xxyx + 2zy"), parse("xxyx")}) == 2
    assert hash(Element.constant(3)) == hash(3)
    assert hash(Element.constant(2.5)) == hash(2.5)
    assert hash(Element.zero()) == hash(0)


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
    for value in (a, b, a + b, a - b, a * b, -a, a ** 2):
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
