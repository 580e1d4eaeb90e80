import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncpoly import Element, canonical_print, parse
from ncpoly.parsing import (
    BAD_NUMBER,
    EMPTY_TERM,
    TRAILING_INPUT,
    UNEXPECTED_CHAR,
    ParseError,
)

coeffs = st.integers(-9, 9)
symbols = st.sampled_from([1, -1, 2, -2, 3])
raw_words = st.lists(symbols, max_size=5).map(tuple)
elements = st.lists(st.tuples(raw_words, coeffs), max_size=5).map(Element)


def test_paper_inputs():
    a = parse("xxyx + 2zy")
    assert a.coeff("xxyx") == 1 and a.coeff("zy") == 2 and len(a) == 2
    b = parse("-2z + 3yyyy")
    assert b.coeff("z") == -2 and b.coeff("yyyy") == 3 and len(b) == 2
    c = parse("3 + 5X - 2Xyx")
    assert c.constant_term == 3
    assert c.coeff("X") == 5
    assert c.coeff("Xyx") == -2
    assert len(c) == 3


def test_empty_input_is_zero():
    assert parse("") == Element.zero()
    assert parse("   ") == Element.zero()


def test_inverse_pair_collapses():
    assert parse("xX") == Element.one()


def test_star_is_optional_sugar():
    assert parse("1*xxyx + 2*zy") == parse("xxyx + 2zy")
    assert parse("2zy") == parse("2*zy")


def test_whitespace_between_tokens():
    assert parse("  3+ 5X -2Xyx ") == parse("3 + 5X - 2Xyx")
    assert parse("2 zy") == parse("2zy")


def test_signs():
    assert parse("+x") == parse("x")
    assert parse("-x") == Element.from_word("x", -1.0)
    assert parse("- 3") == Element.constant(-3)


def test_decimal_coefficients():
    assert parse("2.5x").coeff("x") == 2.5
    assert parse(".5x").coeff("x") == 0.5
    assert parse("2.x").coeff("x") == 2.0
    assert parse("0") == Element.zero()
    assert parse("0x + y") == parse("y")


def test_multidigit_coefficient_next_to_uppercase():
    assert parse("25X").coeff("X") == 25
    assert parse("10Xzy").coeff("Xzy") == 10


ERROR_CASES = [
    ("x?y", 1, UNEXPECTED_CHAR),
    ("?", 0, UNEXPECTED_CHAR),
    ("(x)", 0, UNEXPECTED_CHAR),
    ("*x", 0, UNEXPECTED_CHAR),
    ("1.2.3", 3, BAD_NUMBER),
    (".", 0, BAD_NUMBER),
    ("x + .", 4, BAD_NUMBER),
    ("2x +", 4, EMPTY_TERM),
    ("+", 1, EMPTY_TERM),
    ("2 + + 3", 4, EMPTY_TERM),
    ("2*", 2, EMPTY_TERM),
    ("2* + x", 3, EMPTY_TERM),
    ("2x 3", 3, TRAILING_INPUT),
    ("x*y", 1, TRAILING_INPUT),
    ("1e5", 2, TRAILING_INPUT),
    pytest.param("1" * 400 + "x", 0, BAD_NUMBER, id="overflowing-coefficient"),
    pytest.param("x - " + "9" * 400, 4, BAD_NUMBER, id="overflowing-last-term"),
]


@pytest.mark.parametrize("text,position,kind", ERROR_CASES)
def test_error_positions_and_kinds(text, position, kind):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    err = excinfo.value
    assert err.kind == kind
    assert err.position == position
    assert 0 <= err.position <= len(text)
    assert f"position {position}" in str(err)


@given(elements)
def test_round_trip_canonical_print(element):
    assert parse(canonical_print(element)) == element


@given(elements, elements)
def test_concatenated_prints_parse_to_the_sum(left, right):
    # canonical prints always begin with a sign, so they chain as terms
    if not left or not right:
        return
    combined = f"{canonical_print(left)} {canonical_print(right)}"
    assert parse(combined) == left + right
