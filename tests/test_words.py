import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ncpoly.words import (
    base_letter,
    check_symbol,
    differential,
    inverse,
    invert_word,
    join_reduced,
    letter,
    reduce_word,
    symbol_sort_key,
    symbol_text,
    word_from_text,
    word_sort_key,
    word_text,
)

from oracles import brute_reduce, naive_collation_key

x, X = letter("x"), inverse("x")
y, Y = letter("y"), inverse("y")
z = letter("z")

raw_symbols = st.sampled_from([1, -1, 2, -2, 3, differential("a"), differential("b")])
raw_sequences = st.lists(raw_symbols, max_size=8).map(tuple)


def test_letter_cancels_its_inverse():
    assert reduce_word([x, X]) == ()
    assert reduce_word([X, x]) == ()


def test_right_multiplication_cancellation():
    # x x y x X leaves x x y
    assert reduce_word([x, x, y, x, X]) == (x, x, y)


def test_cascading_cancellation():
    # x y Y X z collapses pair by pair down to z
    assert brute_reduce([x, y, Y, X, z]) == (z,)
    assert reduce_word([x, y, Y, X, z]) == (z,)


def test_differentials_are_inert():
    da = differential("a")
    assert reduce_word([letter("a"), da, inverse("a")]) == (letter("a"), da, inverse("a"))
    assert reduce_word([da, da]) == (da, da)


@given(raw_sequences)
def test_reduce_matches_bruteforce_oracle(seq):
    assert reduce_word(seq) == brute_reduce(seq)


@given(raw_sequences)
def test_reduce_is_idempotent(seq):
    once = reduce_word(seq)
    assert reduce_word(once) == once


@given(raw_sequences)
def test_reduced_words_have_no_adjacent_inverse_pair(seq):
    word = reduce_word(seq)
    assert all(a != -b for a, b in zip(word, word[1:]))


@pytest.mark.parametrize("bad", [0, 27, -27, 100, 127, 1000, -101])
def test_invalid_symbol_codes_rejected(bad):
    with pytest.raises(ValueError):
        check_symbol(bad)


def test_non_int_symbols_rejected():
    with pytest.raises(TypeError):
        reduce_word(["a"])
    with pytest.raises(TypeError):
        check_symbol(True)


def test_letter_index_forms():
    assert letter("a") == letter(1) == 1
    assert inverse("z") == -26
    assert differential("c") == 103
    assert base_letter(-24) == 24
    assert base_letter(differential("x")) == 24
    with pytest.raises(ValueError):
        letter("A")
    with pytest.raises(ValueError):
        letter(0)


def test_symbol_text():
    assert symbol_text(x) == "x"
    assert symbol_text(X) == "X"
    assert symbol_text(differential("a")) == "(da)"


def test_word_text_round_trip():
    word = word_from_text("xxY")
    assert word == (x, x, Y)
    assert word_text(word) == "xxY"
    assert word_from_text("xX") == ()
    with pytest.raises(ValueError):
        word_from_text("x1")


def test_invert_word():
    assert invert_word(word_from_text("xxY")) == word_from_text("yXX")
    assert invert_word(()) == ()
    assert reduce_word(word_from_text("xyz") + invert_word(word_from_text("xyz"))) == ()
    with pytest.raises(ValueError):
        invert_word((differential("a"),))


def test_collation_orders_symbols_by_printed_ascii():
    # A < Z < a < (da) < b < z
    keys = [
        symbol_sort_key(inverse("a")),
        symbol_sort_key(inverse("z")),
        symbol_sort_key(letter("a")),
        symbol_sort_key(differential("a")),
        symbol_sort_key(letter("b")),
        symbol_sort_key(letter("z")),
    ]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_collation_prefix_sorts_before_extension():
    words = [(x, x), (), (x,), (x, y), (X,)]
    ordered = sorted(words, key=word_sort_key)
    assert ordered == [(), (X,), (x,), (x, x), (x, y)]


any_symbols = st.one_of(st.integers(1, 26), st.integers(-26, -1), st.integers(101, 126))


@given(st.lists(st.lists(any_symbols, max_size=4).map(tuple), max_size=12))
def test_word_sort_key_matches_printed_ascii_oracle(words):
    assert sorted(words, key=word_sort_key) == sorted(words, key=naive_collation_key)


@given(raw_sequences, raw_sequences)
@example((x, y, z), (-z, Y, x))
@example((x, y), (Y, X))
def test_seam_join_matches_bruteforce_oracle(left, right):
    w1, w2 = reduce_word(left), reduce_word(right)
    assert join_reduced(w1, w2) == brute_reduce(w1 + w2)
