import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncpoly import Element, canonical_print, derivative, from_json, parse, to_json
from ncpoly.parsing import BAD_NUMBER, UNEXPECTED_CHAR, ParseError
from ncpoly.textio import format_coefficient
from ncpoly.words import differential

coeffs = st.integers(-9, 9)
symbols = st.sampled_from([1, -1, 2, -2, differential("a"), differential("b")])
raw_words = st.lists(symbols, max_size=5).map(tuple)
elements = st.lists(st.tuples(raw_words, coeffs), max_size=5).map(Element)


def test_format_coefficient():
    assert format_coefficient(2.0) == "2"
    assert format_coefficient(10.0) == "10"
    assert format_coefficient(0.5) == "0.5"
    assert format_coefficient(2.5) == "2.5"
    value = 1.0 / 3.0
    assert float(format_coefficient(value)) == value


def test_print_goldens():
    assert canonical_print(parse("xxyx + 2zy")) == "+ 1*xxyx + 2*zy"
    assert canonical_print(parse("3 + 5X - 2Xyx")) == "+ 3 + 5*X - 2*Xyx"
    assert canonical_print(Element.zero()) == "0"
    assert canonical_print(parse("-2z")) == "- 2*z"
    assert canonical_print(Element.constant(2.5)) == "+ 2.5"


def test_print_collation_uppercase_prefix_differential():
    mixture = parse("b + a + B + A + ab + aB")
    assert canonical_print(mixture) == "+ 1*A + 1*B + 1*a + 1*aB + 1*ab + 1*b"
    # the differential token sorts immediately after its own letter
    assert canonical_print(derivative(parse("aa"), "a")) == "+ 1*a(da) + 1*(da)a"


def test_str_matches_canonical_print():
    element = parse("xxyx + 2zy")
    assert str(element) == canonical_print(element)


@given(elements, elements)
def test_print_is_injective(a, b):
    if canonical_print(a) == canonical_print(b):
        assert a == b


def test_json_golden():
    b = parse("-2z + 3yyyy")
    assert to_json(b) == '{"terms":[{"word":[25,25,25,25],"coeff":3},{"word":[26],"coeff":-2}]}'
    assert to_json(Element.zero()) == '{"terms":[]}'


def test_json_differential_symbols_are_strings():
    element = derivative(parse("aXa"), "a")
    payload = json.loads(to_json(element))
    entries = [sym for term in payload["terms"] for sym in term["word"]]
    assert "da" in entries
    assert from_json(to_json(element)) == element


def test_json_fractional_coefficients():
    element = Element.from_word("x", 0.5)
    assert to_json(element) == '{"terms":[{"word":[24],"coeff":0.5}]}'
    assert from_json(to_json(element)) == element


def test_from_json_normalizes():
    text = '{"terms":[{"word":[24,-24],"coeff":2},{"word":[],"coeff":-1}]}'
    assert from_json(text) == Element.constant(1)
    text = '{"terms":[{"word":[1],"coeff":2},{"word":[1],"coeff":-2}]}'
    assert from_json(text) == Element.zero()


@given(elements)
def test_json_round_trip(element):
    assert from_json(to_json(element)) == element


BAD_JSON = [
    ("{not json", UNEXPECTED_CHAR),
    ('{"terms": 3}', UNEXPECTED_CHAR),
    ('{"something": []}', UNEXPECTED_CHAR),
    ('{"terms": [], "extra": 1}', UNEXPECTED_CHAR),
    ('{"terms": [{"word": [1]}]}', UNEXPECTED_CHAR),
    ('{"terms": [{"word": 1, "coeff": 1}]}', UNEXPECTED_CHAR),
    ('{"terms": [{"word": [0], "coeff": 1}]}', BAD_NUMBER),
    ('{"terms": [{"word": [27], "coeff": 1}]}', BAD_NUMBER),
    ('{"terms": [{"word": [-27], "coeff": 1}]}', BAD_NUMBER),
    ('{"terms": [{"word": [true], "coeff": 1}]}', BAD_NUMBER),
    ('{"terms": [{"word": ["dA"], "coeff": 1}]}', BAD_NUMBER),
    ('{"terms": [{"word": ["xx"], "coeff": 1}]}', BAD_NUMBER),
    ('{"terms": [{"word": [1], "coeff": "3"}]}', BAD_NUMBER),
    ('{"terms": [{"word": [1], "coeff": true}]}', BAD_NUMBER),
    ('{"terms": [{"word": [1], "coeff": 1e999}]}', BAD_NUMBER),
    ('{"terms": [{"word": [1], "coeff": NaN}]}', BAD_NUMBER),
    ('{"terms": [{"word": [1], "coeff": Infinity}]}', BAD_NUMBER),
    ('{"terms": [{"word": [1], "coeff": -Infinity}]}', BAD_NUMBER),
    pytest.param('{"terms": [{"word": [1], "coeff": 1' + "0" * 400 + "}]}", BAD_NUMBER, id="int-overflowing-float"),
]


@pytest.mark.parametrize("text,kind", BAD_JSON)
def test_from_json_rejects(text, kind):
    with pytest.raises(ParseError) as excinfo:
        from_json(text)
    assert excinfo.value.kind == kind


def test_to_json_rejects_non_finite_coefficients():
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            to_json(Element({(1,): value}))


@given(st.lists(st.tuples(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=4).map(tuple), coeffs), max_size=4).map(Element))
def test_print_then_parse_identity_without_differentials(element):
    assert parse(canonical_print(element)) == element
