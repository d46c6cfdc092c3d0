import random
from fractions import Fraction

import pytest

import mzv.operators as operators
from mzv.operators import delta_u, theta, theta_all
from mzv.poly import Poly, accumulate
from mzv.series import (GradedSeries, apply_theta_series, geom, series_mul,
                        theta_minus_one, theta_shift)
from mzv.words import Word, word_from_letters


def P(s: str) -> Poly:
    return Poly.from_word(word_from_letters(s))


X = P("x")
Y = P("y")


def series_of_poly_sum(s: GradedSeries) -> Poly:
    total = Poly.zero()
    for _, p in sorted(s.parts.items()):
        total = total + p
    return total


def test_geom_of_x():
    s = geom(X, 4)
    assert series_of_poly_sum(s) == \
        Poly.one() + X + P("xx") + P("xxx") + P("xxxx")


@pytest.mark.parametrize("word", ["x", "y", "xy", "xxy", "yx"])
def test_geom_of_one_term_is_the_sum_of_its_powers(word):
    for c in (1, -1, 2, Fraction(1, 3)):
        p = P(word).scale(c)
        for K in (0, 1, 5, 7):
            want, power = Poly.one(), Poly.one()
            for _ in range(K):
                power = power * p
                want = want + power
            assert geom(p, K) == GradedSeries.from_poly(want, K), (c, K)


def test_product_pairs_that_meet_in_one_weight_cancel():
    # (1 + x)(1 - x): the pairs (0, 1) and (1, 0) cancel at weight 1;
    # (1 + x + xx)(1 - x + xx): at weight 2 the first two of three pairs
    # cancel, and the third writes into the emptied part
    cases = [(Poly.one() + X, Poly.one() - X),
             (Poly.one() + X + P("xx"), Poly.one() - X + P("xx")),
             (X - Y, X + Y), (P("xy") + Y, X - P("yx"))]
    for a, b in cases:
        for K in range(5):
            got = GradedSeries.from_poly(a, K) * GradedSeries.from_poly(b, K)
            assert got == GradedSeries.from_poly(a * b, K), (a, b, K)
            assert all(0 not in part.values() for part in got._parts)


def test_geom_defining_identity():
    K = 6
    one = GradedSeries.one(K)
    s = geom(X, K)
    lhs = s * (one - GradedSeries.from_poly(X, K))
    assert lhs == one
    # and the two-letter version
    t = geom(X + Y, K)
    assert (one - GradedSeries.from_poly(X + Y, K)) * t == one


def test_geom_recursion_on_random_inputs():
    rng = random.Random(41)
    K = 8
    for _ in range(20):
        terms = Poly.zero()
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 3)
            terms = terms + Poly.from_word(
                Word(k, rng.getrandbits(k)), rng.choice([1, -1, 2]))
        if terms.is_zero():
            terms = X
        s = geom(terms, K)
        rhs = GradedSeries.one(K) + GradedSeries.from_poly(terms, K) * s
        assert s == rhs


def test_geom_rejects_constant_term():
    with pytest.raises(ValueError):
        geom(Poly.one() + X, 5)


def test_series_mul_examples():
    K = 6
    g = geom(X, K)
    assert (g * g).part(2) == P("xx").scale(3)
    assert series_mul(g, GradedSeries.one(K)) == g


def test_series_mul_cutoff_mismatch():
    with pytest.raises(ValueError):
        series_mul(GradedSeries.one(4), GradedSeries.one(5))


def test_series_mul_associative_random():
    rng = random.Random(42)
    K = 8
    pool = [geom(X, K), geom(Y, K), geom(X + Y, K),
            GradedSeries.from_poly(P("xy") + X, K)]
    for _ in range(10):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_weight5_part_of_depth2_class_series():
    # xy (1/(1-x) y)^(n-1) at n=2: its weight-5 part is the single word
    # of weight 5, depth 2, leading exponent 2
    K = 6
    s = GradedSeries.from_poly(P("xy"), K) * (geom(X, K)
                                              * GradedSeries.from_poly(Y, K))
    assert s.part(5) == P("xyxxy")


def test_apply_theta_on_constants():
    K = 5
    assert apply_theta_series(GradedSeries.one(K)) == GradedSeries.one(K)


def test_theta_minus_one_of_xy():
    K = 6
    s = GradedSeries.from_poly(P("xy"), K)
    img = theta_minus_one(s)
    assert img.part(2).is_zero()
    assert img.part(3) == P("xyy") - P("xxy")            # theta_1(xy)
    assert img.part(4) == P("xyyy") - P("xxyy") - P("xyxy")  # theta_2(xy)
    assert img.part(5) == theta(3, P("xy"))


def theta_minus_one_by_shifts(s: GradedSeries) -> GradedSeries:
    """The definition: the sum of theta_shift(l, s) over l >= 1."""
    acc = {}
    for l in range(1, s.cutoff + 1):
        accumulate(acc, theta_shift(l, s).poly.terms.items())
    return GradedSeries.from_poly(Poly._of(acc), s.cutoff)


def random_series(rng: random.Random, cutoff: int) -> GradedSeries:
    """Up to a dozen random words of weight 0..cutoff (the empty word
    among them), with int and Fraction coefficients."""
    p = Poly.zero()
    for _ in range(rng.randint(0, 12)):
        k = rng.randint(0, cutoff)
        p = p + Poly.from_word(Word(k, rng.getrandbits(k) if k else 0),
                               rng.choice([1, -1, 3, Fraction(2, 3)]))
    return GradedSeries.from_poly(p, cutoff)


@pytest.mark.parametrize("cutoff", range(10))
def test_theta_minus_one_is_the_sum_of_theta_shifts(cutoff):
    rng = random.Random(46 + cutoff)
    for _ in range(40):
        s = random_series(rng, cutoff)
        assert theta_minus_one(s) == theta_minus_one_by_shifts(s)
    one = GradedSeries.one(cutoff)
    assert theta_minus_one(one.scale(Fraction(1, 3))).is_zero()
    if cutoff >= 2:
        s = one - GradedSeries.from_poly(P("xy"), cutoff).scale(5)
        assert theta_minus_one(s) == theta_minus_one_by_shifts(s)
    # polys whose first-letter quotients are single words
    if cutoff >= 4:
        for p in (P("xxy"), P("xxy") + P("yxy"), P("xyyx") - P("yx"),
                  P("yxy").scale(3), P("xyy").scale(Fraction(2, 3))):
            s = GradedSeries.from_poly(p, cutoff)
            assert theta_minus_one(s) == theta_minus_one_by_shifts(s)


def test_theta_minus_one_reads_no_theta_memo():
    # Theta - 1 shares no state with theta_l: from cleared memos (the
    # word images and their tail sums) it fills nothing, and on warm
    # memos it neither hits nor misses
    memos = (operators._image_word, operators._tail_sum)
    rng = random.Random(47)
    series = [random_series(rng, 9) for _ in range(20)]
    series += [GradedSeries.from_poly(P("xxy").scale(3), 9),
               GradedSeries.from_poly(P("xy") - P("yxy"), 9)]
    for memo in memos:
        memo.cache_clear()
    for s in series:
        theta_minus_one(s)
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]
    for s in series:
        theta_minus_one_by_shifts(s)
    warm = [memo.cache_info() for memo in memos]
    assert all(info.currsize > 0 for info in warm)
    for s in series:
        theta_minus_one(s)
    assert [memo.cache_info() for memo in memos] == warm


def test_theta_series_multiplicative():
    # Theta is an automorphism, so it distributes over truncated products
    rng = random.Random(43)
    K = 7
    pool = [GradedSeries.from_poly(P("xy"), K),
            GradedSeries.from_poly(X + Y, K),
            geom(X, K),
            GradedSeries.from_poly(P("yx") - X.scale(2), K)]
    for _ in range(8):
        a = rng.choice(pool)
        b = rng.choice(pool)
        assert apply_theta_series(a * b) == \
            apply_theta_series(a) * apply_theta_series(b)


def test_from_poly_truncates_and_checks():
    p = P("xy") + P("xxxxxy")
    s = GradedSeries.from_poly(p, 3)
    assert s.part(2) == P("xy")
    assert s.part(6).is_zero()
    with pytest.raises(ValueError):
        GradedSeries(3, {2: P("xy") + P("xxy")})  # inhomogeneous part
    with pytest.raises(ValueError):
        GradedSeries(3, {5: P("xxxxy")})  # beyond cutoff


def test_map_parts_duality():
    from mzv.operators import duality
    K = 5
    s = geom(X, K) * GradedSeries.from_poly(Y, K)
    img = s.map_parts(duality)
    for k, p in img.parts.items():
        assert p.is_homogeneous(k)


def test_scale_and_subtraction():
    K = 4
    s = geom(X, K)
    assert (s - s).is_zero()
    assert s.scale(0).is_zero()
    assert s.scale(2) == s + s


def random_poly(rng: random.Random, max_weight: int) -> Poly:
    """A few random words of weight 0..max_weight, small coefficients."""
    terms = Poly.zero()
    for _ in range(rng.randint(1, 6)):
        k = rng.randint(0, max_weight)
        terms = terms + Poly.from_word(Word(k, rng.getrandbits(k)),
                                       rng.choice([1, -1, 2, -3]))
    return terms


def test_apply_theta_series_matches_truncated_delta_u():
    # the u^l coefficient of Delta_u is theta_l, kept only where the
    # image stays within the cutoff: summed over l, that is Theta on
    # the truncated series, computed by an independent truncation
    rng = random.Random(44)
    K = 8
    for _ in range(12):
        p = random_poly(rng, 7)
        img = delta_u(p, K)
        total = Poly.zero()
        for l in range(K + 1):
            total = total + img.coeff(l)
        assert apply_theta_series(GradedSeries.from_poly(p, K)).poly == total


def test_theta_shift_is_theta_per_part():
    rng = random.Random(45)
    K = 8
    for _ in range(12):
        s = GradedSeries.from_poly(random_poly(rng, 7), K)
        for l in range(K + 2):
            shifted = theta_shift(l, s)
            assert shifted.cutoff == K
            for k in range(l, K + 1):
                assert shifted.part(k) == theta(l, s.part(k - l))
            assert shifted.poly.max_weight() <= K
            assert all(shifted.part(k).is_zero() for k in range(l))


def test_series_is_one_poly_with_a_parts_view():
    s = geom(X, 2)
    assert repr(s) == "[0] 1 ; [1] x ; [2] xx ; O(w>2)"
    assert repr(GradedSeries.zero(3)) == "O(w>3)"
    assert s.poly == Poly.one() + X + P("xx")
    assert list(s.parts) == [0, 1, 2]
    s.parts[3] = P("xxx")  # a fresh dict: the series is unchanged
    assert s.part(3).is_zero() and s == geom(X, 2)
    assert GradedSeries(2, {0: Poly.one(), 1: X, 2: P("xx"),
                            5: Poly.zero()}) == s


def test_graded_series_refuses_a_negative_cutoff():
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        GradedSeries(-1)
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        GradedSeries.from_poly(X, -1)


def test_graded_series_refuses_a_negative_power():
    s = geom(X, 4)
    with pytest.raises(ValueError, match="negative powers are not defined"):
        s ** -1
    assert s ** 0 == GradedSeries.one(4)
    assert s ** 2 == s * s


def test_series_negation():
    p = X + P("xy").scale(3)
    s = GradedSeries.from_poly(p, 2)
    assert -s == GradedSeries.from_poly(-p, 2)
    assert (s + -s).is_zero()
    assert -(-s) == s


def truncated(p: Poly, cutoff: int) -> Poly:
    """The words of p of length at most the cutoff, kept explicitly."""
    return Poly({w: c for w, c in p.terms.items() if w.length <= cutoff})


def stores_no_zero(s: GradedSeries) -> bool:
    return all(c for p in s.parts.values() for c in p.terms.values())


@pytest.mark.parametrize("cutoff", range(10))
def test_graded_operations_agree_with_the_truncated_poly(cutoff):
    # each series operation, on the per-weight parts, against the same
    # operation on .poly with the words beyond the cutoff dropped
    from mzv.operators import duality, tau
    rng = random.Random(300 + cutoff)
    K = cutoff
    for _ in range(15):
        a, b = random_series(rng, K), random_series(rng, K)
        p, q = a.poly, b.poly
        results = [
            (a + b, p + q), (a - b, p - q), (-a, -p),
            (a * b, truncated(p * q, K)),
            (a.map_parts(duality), duality(p)),
            (a.map_parts(tau), tau(p)),
        ]
        results += [(a ** j, truncated(p ** j, K)) for j in range(4)]
        results += [(a.scale(c), p.scale(c))
                    for c in (0, 1, -2, Fraction(2, 3))]
        results += [(theta_shift(l, a), theta(l, truncated(p, K - l)))
                    for l in range(K + 3)]
        one_minus = Poly.zero()
        for l in range(1, K + 1):
            one_minus = one_minus + theta(l, truncated(p, K - l))
        results.append((theta_minus_one(a), one_minus))
        results.append((apply_theta_series(a), one_minus + p))
        assert theta_all(p, K) == one_minus + p
        for s, expected in results:
            assert s.cutoff == K
            assert s.poly == expected
            assert s == GradedSeries.from_poly(expected, K)
            assert stores_no_zero(s)
        # parts are compared directly, so a cancelled word must be gone
        assert a - a == GradedSeries.zero(K)
        assert a + -a == GradedSeries.zero(K)
        assert (a - b) + b == a
        assert (a == b) == (p == q)


def test_from_poly_and_products_drop_words_beyond_the_cutoff():
    p = P("xy") + P("yyxx").scale(Fraction(1, 2)) + Poly.one().scale(3)
    for K in range(6):
        s = GradedSeries.from_poly(p, K)
        assert s.poly == truncated(p, K)
        assert (s * s).poly == truncated(p * p, K)
        assert stores_no_zero(s * s)


def test_theta_shift_edge_cases():
    K = 5
    low = Poly.one() + X
    s = GradedSeries.from_poly(low + P("xy") - P("yxxy"), K)
    with pytest.raises(ValueError,
                       match="theta degree must be >= 0, got -1"):
        theta_shift(-1, s)
    assert theta_shift(0, s) == s
    # at degree K - 1 only the parts of weight <= 1 are mapped
    top = theta_shift(K - 1, s)
    assert top == GradedSeries.from_poly(theta(K - 1, low), K)
    assert not top.is_zero()
    # beyond the cutoff nothing is mapped, however far beyond
    for l in (K + 1, K + 2, K + 7):
        assert theta_shift(l, s) == GradedSeries.zero(K)
