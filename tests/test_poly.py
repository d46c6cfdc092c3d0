import random
from fractions import Fraction

import pytest

from mzv.poly import Poly
from mzv.words import Word, word_from_letters


def P(s: str) -> Poly:
    return Poly.from_word(word_from_letters(s))


def assert_canonical(p: Poly):
    """Audit: canonical form never stores a zero coefficient."""
    assert all(c != 0 for c in p.terms.values())


def random_word(rng, max_weight=8) -> Word:
    k = rng.randint(0, max_weight)
    return Word(k, rng.getrandbits(k) if k else 0)


def test_mul_examples():
    assert P("xy") * P("xy") == P("xyxy")
    two_letters = P("x") + P("y")
    assert two_letters * two_letters == P("xx") + P("xy") + P("yx") + P("yy")
    assert Poly.one() * P("xxy") == P("xxy")
    assert P("xxy") * Poly.one() == P("xxy")


def test_mul_associative_unital_on_random_triples():
    rng = random.Random(20240817)
    for _ in range(500):
        a, b, c = (Poly.from_word(random_word(rng)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert Poly.one() * a == a * Poly.one() == a


def test_weights_add_under_mul():
    rng = random.Random(99)
    for _ in range(100):
        v, w = random_word(rng), random_word(rng)
        prod = Poly.from_word(v) * Poly.from_word(w)
        (word,) = prod.terms
        assert word.length == v.length + w.length


def test_no_zero_coefficients_stored():
    a = P("xy") - P("xy")
    assert_canonical(a)
    assert a.is_zero()
    b = P("xxy") + P("xyy") - P("xxy")
    assert_canonical(b)
    assert b == P("xyy")
    c = (P("xy") - P("yx")) * (P("x") + P("y"))
    assert_canonical(c)
    d = b.scale(0)
    assert_canonical(d)
    assert d.is_zero()
    e = Poly({word_from_letters("xy"): Fraction(0)})
    assert_canonical(e)
    assert e.is_zero()


def test_random_arithmetic_stays_canonical():
    rng = random.Random(5)
    acc = Poly.zero()
    pool = [Poly.from_word(random_word(rng, 5)) for _ in range(30)]
    for _ in range(300):
        op = rng.choice("+-*s")
        q = rng.choice(pool)
        if op == "+":
            acc = acc + q
        elif op == "-":
            acc = acc - q
        elif op == "*":
            acc = acc * q if acc.max_weight() < 10 else acc
        else:
            acc = acc.scale(rng.choice([0, 1, -2, Fraction(1, 3)]))
        assert_canonical(acc)


def test_scalar_multiplication():
    p = P("xy") + P("xxy").scale(2)
    assert p.scale(Fraction(1, 2)) == P("xy").scale(Fraction(1, 2)) + P("xxy")
    assert 2 * p == p + p
    assert p * 2 == p + p
    assert (p - p).is_zero()


def test_homogeneity_and_h0():
    p = P("xy") + P("xxy")
    assert not p.is_homogeneous()
    assert p.homogeneous_part(2) == P("xy")
    assert p.homogeneous_parts() == {2: P("xy"), 3: P("xxy")}
    assert P("xxy").is_homogeneous(3)
    assert p.in_h0()
    assert not (p + P("yx")).in_h0()
    assert Poly.one().in_h0()


def test_min_max_weight():
    p = P("xy") + P("xxxxy")
    assert p.min_weight() == 2
    assert p.max_weight() == 5
    assert Poly.zero().min_weight() == 0


def test_sorted_terms_order():
    p = P("xyy") + P("xy") + P("xxy")
    assert [str(w) for w, _ in p.sorted_terms()] == ["xy", "xxy", "xyy"]


def test_str():
    assert str(Poly.zero()) == "0"
    assert str(P("xy") - P("xxy")) == "xy - xxy"
    assert str(P("xy").scale(-2)) == "-2*xy"
    assert str(Poly.one()) == "1"


def test_coeff_lookup():
    p = P("xy").scale(Fraction(3, 2))
    assert p.coeff(word_from_letters("xy")) == Fraction(3, 2)
    assert p.coeff(word_from_letters("yx")) == 0


def test_negative_power_refused():
    with pytest.raises(ValueError, match="negative powers"):
        P("x") ** -1


def test_equal_polys_hash_equal():
    a = P("xy") + P("x").scale(2)
    b = P("x").scale(2) + P("xy")
    assert a == b and hash(a) == hash(b)
    assert len({a, b, P("xy") + P("x") + P("x")}) == 1
