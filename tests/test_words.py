import pytest
from hypothesis import given, strategies as st

from sixthgroups.words import (
    EMPTY,
    WordFormatError,
    concat,
    cyclic_permutations,
    cyclic_reduce,
    format_word,
    gen,
    invert_word,
    is_cyclically_reduced,
    letter_key,
    parse_word,
    power,
    reduce_word,
    word_key,
)

letters = st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0)
raw_words = st.lists(letters, max_size=12).map(tuple)
words = raw_words.map(reduce_word)


def test_gen_letters():
    assert gen(0) == 1
    assert gen(0, -1) == -1
    assert gen(2) == 3
    with pytest.raises(ValueError):
        gen(-1)
    with pytest.raises(ValueError):
        gen(0, 2)


def test_letter_order():
    # v_0 < v_0^-1 < v_1 < v_1^-1
    assert letter_key(1) < letter_key(-1) < letter_key(2) < letter_key(-2)


def test_reduce_examples():
    assert reduce_word((1, -1)) == EMPTY
    assert reduce_word((1, 2, -2, -1)) == EMPTY
    assert reduce_word((1, 2, -2, 1)) == (1, 1)
    with pytest.raises(ValueError):
        reduce_word((1, 0))


def test_cyclic_reduce_examples():
    core, conj = cyclic_reduce((1, 2, -1))
    assert core == (2,) and conj == (1,)
    assert cyclic_reduce((1, 2)) == ((1, 2), EMPTY)
    assert is_cyclically_reduced((1, 2))
    assert not is_cyclically_reduced((1, 2, -1))


def test_cyclic_permutations():
    assert cyclic_permutations((1, 2)) == {(1, 2), (2, 1)}
    assert cyclic_permutations((1, 2, 1, 2)) == {(1, 2, 1, 2), (2, 1, 2, 1)}
    assert cyclic_permutations(EMPTY) == {EMPTY}
    with pytest.raises(ValueError):
        cyclic_permutations((1, 2, -1))


def test_parse_format_examples():
    assert parse_word("g0 g1 G0") == (1, 2, -1)
    assert parse_word("e") == EMPTY
    assert format_word((1, 2, -1)) == "g0 g1 G0"
    assert format_word(EMPTY) == "e"
    # parse performs free reduction
    assert parse_word("g0 G0") == EMPTY
    with pytest.raises(WordFormatError):
        parse_word("")
    with pytest.raises(WordFormatError):
        parse_word("g0 x1")
    with pytest.raises(WordFormatError):
        parse_word("g")


@given(raw_words)
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert reduce_word(r) == r


@given(words)
def test_invert_involution(w):
    assert invert_word(invert_word(w)) == w


@given(words)
def test_word_times_inverse_cancels(w):
    assert concat(w, invert_word(w)) == EMPTY
    assert concat(invert_word(w), w) == EMPTY


@given(words, words, words)
def test_concat_associative(a, b, c):
    assert concat(concat(a, b), c) == concat(a, concat(b, c))


@given(words, st.integers(min_value=-4, max_value=4))
def test_power_consistency(w, k):
    p = power(w, k)
    assert p == invert_word(power(w, -k))
    if k > 0:
        assert p == concat(power(w, k - 1), w)


@given(words)
def test_parse_format_roundtrip(w):
    assert parse_word(format_word(w)) == w


@given(words)
def test_cyclic_reduce_reassembles(w):
    core, conj = cyclic_reduce(w)
    assert is_cyclically_reduced(core)
    assert reduce_word(conj + core + invert_word(conj)) == w


@given(words, words)
def test_shortlex_key_total(a, b):
    assert (word_key(a) == word_key(b)) == (a == b)
