import json

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import ncpoly.words
from ncpoly import Element, NonFiniteCoefficient, canonical_print, derivative, from_json, parse, to_json
from ncpoly.parsing import BAD_NUMBER, UNEXPECTED_CHAR, ParseError
from ncpoly.textio import format_coefficient
from ncpoly.words import differential

from oracles import json_symbol, json_text

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
    # positional, never exponent form, which would read back as the letter e
    assert format_coefficient(1e-05) == "0.00001"
    assert format_coefficient(1.25e-07) == "0.000000125"
    for value in (1e-05, 5e-324, 1.2345678901234567e-100):
        assert float(format_coefficient(value)) == value
        element = Element.from_word("x", value)
        assert parse(canonical_print(element)) == element


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


json_coeffs = st.one_of(
    st.integers(-(10**6), 10**6),
    st.sampled_from([1e300, -1e300, 2.0**53 + 2, 1e-300, 5e-324, -5e-324, 0.1, -1 / 3, 1e22, 1e16, 123456.789]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.lists(st.tuples(raw_words, json_coeffs), max_size=6))
def test_to_json_writes_what_json_dumps_writes(terms):
    try:
        element = Element(terms)
    except NonFiniteCoefficient:  # equal words whose coefficients overflow when summed
        assume(False)
    assert to_json(element) == json_text(element)


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
    pytest.param('{"terms": [{"word": [1], "coeff": 1' + "0" * 5000 + "}]}", BAD_NUMBER, id="int-beyond-digit-limit"),
]


@pytest.mark.parametrize("text,kind", BAD_JSON)
def test_from_json_rejects(text, kind):
    with pytest.raises(ParseError) as excinfo:
        from_json(text)
    assert excinfo.value.kind == kind


def _digit_limit_message():
    """The error of a 5001-digit integer coefficient: the interpreter's own
    digit-limit message, or, where there is no limit, the overflow to inf."""
    try:
        int("1" + "0" * 5000)
    except ValueError as exc:
        return f"invalid JSON number: {exc}"
    return '"coeff" must be a finite float'


# by BAD_JSON row: the position and message of its error
BAD_JSON_ERRORS = [
    (1, "invalid JSON: Expecting property name enclosed in double quotes"),
    *[(0, 'expected an object of the form {"terms": [...]}')] * 3,
    (0, 'each term needs exactly "word" and "coeff"'),
    (0, '"word" must be a list of symbols'),
    (0, "invalid symbol entry: 0"),
    (0, "invalid symbol entry: 27"),
    (0, "invalid symbol entry: -27"),
    (0, "invalid symbol entry: True"),
    (0, "invalid symbol entry: 'dA'"),
    (0, "invalid symbol entry: 'xx'"),
    (0, "\"coeff\" must be a number, got '3'"),
    (0, '"coeff" must be a number, got True'),
    *[(0, '"coeff" must be a finite float')] * 5,
    (0, _digit_limit_message()),
]


@pytest.mark.parametrize(
    "text,kind,position,message",
    [
        pytest.param(*getattr(row, "values", row), *error, id=getattr(row, "id", None))
        for row, error in zip(BAD_JSON, BAD_JSON_ERRORS, strict=True)
    ],
)
def test_from_json_errors_keep_their_kind_position_and_message(text, kind, position, message):
    with pytest.raises(ParseError) as excinfo:
        from_json(text)
    assert (excinfo.value.kind, excinfo.value.position, excinfo.value.message) == (kind, position, message)


def test_from_json_refuses_deep_nesting_and_repeated_keys():
    # json.loads would raise RecursionError, or let the last "coeff" win
    for text, message in (
        ("[" * 5000 + "]" * 5000, "invalid JSON: nested too deeply"),
        ('{"terms":[{"word":[1],"coeff":1,"coeff":2}]}', "repeated key 'coeff'"),
        ('{"terms":[],"terms":[]}', "repeated key 'terms'"),
    ):
        with pytest.raises(ParseError) as excinfo:
            from_json(text)
        assert (excinfo.value.kind, excinfo.value.position, excinfo.value.message) == (UNEXPECTED_CHAR, 0, message)
    # a repeated word is two terms, not a repeated key: they still sum
    assert from_json('{"terms":[{"word":[1],"coeff":1},{"word":[1],"coeff":2}]}') == parse("3a")


json_entries = st.one_of(
    st.integers(-28, 28),
    st.sampled_from(["da", "dq", "dz"]),
    st.sampled_from([10**20, True, False, None, 1.0, "d", "dA", "d1", "xx", "(da)", [1], {}]),
)


@given(st.lists(st.tuples(st.lists(json_entries, max_size=4), st.integers(-9, 9) | st.floats(-1e6, 1e6)), max_size=4))
def test_from_json_reads_entries_through_the_symbol_table(terms):
    text = json.dumps({"terms": [{"word": word, "coeff": coeff} for word, coeff in terms]})
    bad = [entry for word, _ in terms for entry in word if json_symbol(entry) is None]
    if not bad:
        expected = Element(([json_symbol(entry) for entry in word], coeff) for word, coeff in terms)
        assert from_json(text) == expected
        return
    with pytest.raises(ParseError) as excinfo:
        from_json(text)
    # the first invalid entry in document order is the one reported
    assert (excinfo.value.kind, excinfo.value.position) == (BAD_NUMBER, 0)
    assert excinfo.value.message == f"invalid symbol entry: {bad[0]!r}"


def test_text_and_json_words_are_checked_by_their_own_lookup(monkeypatch):
    """Only raw symbol codes go through ``check_symbol``; a second check
    of text and JSON words would call it again."""

    def refuse(sym):
        raise AssertionError(f"check_symbol({sym!r}) called")

    monkeypatch.setattr(ncpoly.words, "check_symbol", refuse)
    element = parse("2xxY - 3yX + 1")
    assert str(element) == "+ 1 + 2*xxY - 3*yX"
    assert element.coeff("xxY") == 2.0 and element.coeff("xY") == 0.0
    assert Element.from_word("xxY").support() == [(24, 24, -25)]
    text = '{"terms":[{"word":[-25,"da",24],"coeff":1.5},{"word":[24,-24],"coeff":2}]}'
    assert to_json(from_json(text)) == '{"terms":[{"word":[],"coeff":2},{"word":[-25,"da",24],"coeff":1.5}]}'
    assert from_json(to_json(element)) == element
    with pytest.raises(AssertionError, match="check_symbol"):
        Element([((1, 2), 1.0)])


def test_to_json_rejects_non_finite_coefficients():
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            to_json(Element({(1,): value}))


@given(st.lists(st.tuples(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=4).map(tuple), coeffs), max_size=4).map(Element))
def test_print_then_parse_identity_without_differentials(element):
    assert parse(canonical_print(element)) == element
