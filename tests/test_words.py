import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzv.words import (EMPTY_WORD, Word, all_words, basis, parse_word,
                       word_from_letters, word_of_composition)

from oracles import composition_of_str, tau_str

words_st = st.builds(
    lambda length, m: Word(length, m & ((1 << length) - 1)),
    st.integers(0, 14), st.integers(0, 1 << 14))


def test_composition_examples():
    assert str(word_of_composition((3,))) == "xxy"
    assert str(word_of_composition((2, 1))) == "xyy"
    assert str(word_of_composition((2, 3))) == "xyxxy"


@pytest.mark.parametrize("ks", [(), (1,), (1, 2), (2, 0), (2, -1)])
def test_composition_rejects(ks):
    with pytest.raises(ValueError):
        word_of_composition(ks)


def test_composition_roundtrip_exhaustive():
    # every admissible word of weight 2..10 survives the roundtrip
    for k in range(2, 11):
        for w in basis(k):
            ks = w.composition()
            assert ks == composition_of_str(str(w))
            assert word_of_composition(ks) == w


def test_basis_small():
    assert [str(w) for w in basis(2)] == ["xy"]
    assert [str(w) for w in basis(3)] == ["xxy", "xyy"]
    assert [str(w) for w in basis(4)] == ["xxxy", "xxyy", "xyxy", "xyyy"]


def test_basis_counts_and_order():
    for k in range(2, 15):
        words = basis(k)
        assert len(words) == 1 << (k - 2)
        assert len(set(words)) == len(words)
        assert all(w.is_admissible() and w.length == k for w in words)
        assert words == sorted(words)  # canonical term order


def test_basis_rejects_low_weight():
    with pytest.raises(ValueError):
        basis(1)


def test_admissibility():
    assert EMPTY_WORD.is_admissible()
    assert not word_from_letters("x").is_admissible()
    assert not word_from_letters("y").is_admissible()
    assert not word_from_letters("yx").is_admissible()
    assert not word_from_letters("xyx").is_admissible()
    assert word_from_letters("xy").is_admissible()
    assert word_from_letters("xxyxy").is_admissible()


def test_weight_depth_against_strings():
    for w in all_words(7):
        s = str(w)
        assert w.weight == len(s)
        assert w.depth == s.count("y")


def test_tau_matches_string_oracle_exhaustive():
    for k in range(1, 9):
        for w in all_words(k):
            assert str(w.tau()) == tau_str(str(w))
    assert EMPTY_WORD.tau() == EMPTY_WORD


@given(words_st)
def test_tau_involution(w):
    assert w.tau().tau() == w


def test_k1_and_height():
    w = word_of_composition((2, 1, 2))
    assert w.k1() == 2
    assert w.height() == 2
    assert word_of_composition((5,)).height() == 1
    assert word_of_composition((2, 1, 1)).height() == 1
    for k in range(2, 10):
        for w in basis(k):
            ks = composition_of_str(str(w))
            assert w.k1() == ks[0]
            assert w.height() == sum(1 for p in ks if p > 1)


def test_k1_rejects():
    with pytest.raises(ValueError):
        word_from_letters("yx").k1()
    with pytest.raises(ValueError):
        EMPTY_WORD.k1()


def test_concat():
    a = word_from_letters("xy")
    b = word_from_letters("xxy")
    assert str(a.concat(b)) == "xyxxy"
    assert a.concat(EMPTY_WORD) == a
    assert EMPTY_WORD.concat(b) == b


def test_parse_word_forms():
    assert parse_word("xxyy") == word_from_letters("xxyy")
    assert parse_word("(2,1,2)") == word_of_composition((2, 1, 2))
    assert parse_word("2,1,2") == word_of_composition((2, 1, 2))
    assert parse_word("( 3 , 1 )") == word_of_composition((3, 1))
    with pytest.raises(ValueError):
        parse_word("(1,2)")  # inadmissible leading part
    with pytest.raises(ValueError):
        parse_word("xz")
    for unbalanced in ("(2,1", "2,1)"):
        with pytest.raises(ValueError):
            parse_word(unbalanced)


def test_str_empty_word():
    assert str(EMPTY_WORD) == "1"
    assert parse_word("1") == EMPTY_WORD


def test_word_repr():
    assert repr(word_from_letters("xxy")) == "Word(xxy)"


@pytest.mark.parametrize("letters", ["", "yx", "xx"])
def test_composition_refuses_a_non_admissible_word(letters):
    with pytest.raises(ValueError, match="has no composition"):
        word_from_letters(letters).composition()
