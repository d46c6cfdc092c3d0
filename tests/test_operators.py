import random
from fractions import Fraction

import pytest

from mzv.operators import (UPoly, delta_u, delta_u_inv, duality, partial,
                           tau, theta)
from mzv.poly import Poly
from mzv.words import Word, all_words, basis, word_from_letters

from oracles import (partitions, symmetry_factor, tau_str,
                     theta_by_partitions)


def P(s: str) -> Poly:
    return Poly.from_word(word_from_letters(s))


def random_poly(rng, max_weight=14, nterms=4) -> Poly:
    out = Poly.zero()
    for _ in range(nterms):
        k = rng.randint(0, max_weight)
        w = Word(k, rng.getrandbits(k) if k else 0)
        out = out + Poly.from_word(w, rng.choice([1, -1, 2, Fraction(1, 2)]))
    return out


# -- tau ----------------------------------------------------------------


def test_tau_examples():
    assert tau(P("xxy")) == P("xyy")          # zeta(3) = zeta(2,1)
    assert tau(P("xxyy")) == P("xxyy")        # self-dual
    assert tau(P("xyxxy")) == P("xyyxy")
    assert duality(P("xxyy")).is_zero()


def test_tau_involution_1000_random():
    rng = random.Random(11)
    for _ in range(1000):
        p = random_poly(rng)
        assert tau(tau(p)) == p


def test_tau_antiautomorphism_500_pairs():
    rng = random.Random(13)
    for _ in range(500):
        a = random_poly(rng, max_weight=7, nterms=2)
        b = random_poly(rng, max_weight=7, nterms=2)
        assert tau(a * b) == tau(b) * tau(a)


def test_tau_preserves_weight_and_admissibility():
    for k in range(2, 9):
        for w in basis(k):
            img = w.tau()
            assert img.length == k
            assert img.is_admissible()
            assert img.depth == k - w.depth


# -- derivations ---------------------------------------------------------


def test_partial_examples():
    assert partial(1, P("xy")) == P("xyy") - P("xxy")
    assert partial(2, P("xy")) == P("xyyy") - P("xxxy")
    assert partial(1, Poly.one()).is_zero()
    assert partial(3, Poly.zero()).is_zero()


def test_partial_rejects_nonpositive():
    with pytest.raises(ValueError):
        partial(0, P("xy"))
    with pytest.raises(ValueError):
        partial(-2, P("xy"))


def test_partial_on_letters():
    # partial_n(x) = x (x+y)^(n-1) y = -partial_n(y)
    xy_sum = P("x") + P("y")
    for n in range(1, 5):
        expected = P("x") * xy_sum ** (n - 1) * P("y")
        assert partial(n, P("x")) == expected
        assert partial(n, P("y")) == -expected


def test_leibniz_exhaustive_weight_5():
    words = [w for k in range(0, 6) for w in all_words(k)]
    for n in range(1, 5):
        for v in words:
            for w in words:
                if v.length + w.length > 5:
                    continue
                pv, pw = Poly.from_word(v), Poly.from_word(w)
                assert partial(n, pv * pw) == \
                    partial(n, pv) * pw + pv * partial(n, pw)


def test_leibniz_random_pairs():
    rng = random.Random(17)
    for _ in range(100):
        a = random_poly(rng, max_weight=5, nterms=2)
        b = random_poly(rng, max_weight=5, nterms=2)
        for n in range(1, 5):
            assert partial(n, a * b) == \
                partial(n, a) * b + a * partial(n, b)


def test_derivations_commute_exhaustive():
    for n in range(1, 5):
        for m in range(n, 5):
            for k in range(0, 6):
                for w in all_words(k):
                    p = Poly.from_word(w)
                    assert partial(n, partial(m, p)) == \
                        partial(m, partial(n, p))


def test_partial_image_admissible_and_degree_shift():
    # the degree shift holds on every word; membership in the admissible
    # span holds on the admissible subalgebra, where the relation lives
    for n in range(1, 7):
        for k in range(0, 7):
            for w in all_words(k):
                img = partial(n, Poly.from_word(w))
                assert img.is_zero() or img.is_homogeneous(k + n)
                if w.is_admissible():
                    assert img.in_h0()


def test_partial_preserves_admissible_products():
    # x h y is closed under every derivation, including products
    for n in range(1, 4):
        for k in range(2, 6):
            for w in basis(k):
                for v in basis(6 - k) if k <= 4 else [Word(0, 0)]:
                    p = Poly.from_word(w) * Poly.from_word(v)
                    assert partial(n, p).in_h0()


def test_tau_conjugates_partial_to_its_negative():
    # tau partial_n tau = -partial_n, exhaustive on words of length <= 7
    for n in range(1, 5):
        for k in range(0, 8):
            for w in all_words(k):
                p = Poly.from_word(w)
                assert tau(partial(n, tau(p))) == -partial(n, p), (n, w)


def test_derivation_relation_sum():
    # hand identity at weight 4: partial_1(xxy) + partial_1(xyy) = partial_2(xy)
    assert partial(1, P("xxy")) + partial(1, P("xyy")) == partial(2, P("xy"))


# -- theta ----------------------------------------------------------------


def test_theta_zero_is_identity():
    p = P("xy") - P("yx").scale(3)
    assert theta(0, p) == p


def test_theta_rejects_negative():
    with pytest.raises(ValueError):
        theta(-1, P("xy"))


def test_theta_1_equals_partial_1():
    for k in range(0, 5):
        for w in all_words(k):
            p = Poly.from_word(w)
            assert theta(1, p) == partial(1, p)


def test_theta_2_3_formulas_weight_up_to_4():
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)
    for k in range(0, 5):
        for w in all_words(k):
            p = Poly.from_word(w)
            d1 = partial(1, p)
            expected2 = (partial(2, p) + partial(1, d1)).scale(half)
            assert theta(2, p) == expected2
            expected3 = (partial(3, p).scale(2)
                         + partial(2, d1).scale(3)
                         + partial(1, partial(1, d1))).scale(sixth)
            assert theta(3, p) == expected3


def test_partition_oracle_factors():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # sum over partitions of l of 1/z_lambda is 1
    for l in range(1, 8):
        assert sum(Fraction(1, symmetry_factor(p))
                   for p in partitions(l)) == 1


def test_theta_matches_partition_formula_weight_up_to_5():
    for k in range(0, 6):
        for w in all_words(k):
            p = Poly.from_word(w)
            for l in range(0, 6):
                assert theta(l, p) == theta_by_partitions(l, p), (w, l)


def test_theta_2_of_xy_frozen():
    # (partial_2 + partial_1^2)(xy) / 2, expanded by hand
    assert theta(2, P("xy")) == P("xyyy") - P("xxyy") - P("xyxy")


def test_theta_kills_unit():
    for l in range(1, 6):
        assert theta(l, Poly.one()).is_zero()


def test_theta_degree_shift():
    for l in range(0, 5):
        img = theta(l, P("xxy"))
        assert img.is_zero() or img.is_homogeneous(3 + l)


# -- substitution automorphism -------------------------------------------


def test_delta_u_generator_images():
    # truncation keeps total weight and u-power within the cutoff
    assert delta_u(P("x"), 3) == UPoly({0: P("x"), 1: P("xy"), 2: P("xyy")})
    assert delta_u(P("x"), 4).coeff(3) == P("xyyy")
    assert delta_u(P("y"), 3) == UPoly(
        {0: P("y"), 1: -P("xy"), 2: -P("xyy")})
    assert delta_u_inv(P("y"), 3) == UPoly(
        {0: P("y"), 1: P("xy"), 2: P("xxy")})
    assert delta_u_inv(P("y"), 4).coeff(3) == P("xxxy")
    assert delta_u_inv(P("x"), 3) == UPoly(
        {0: P("x"), 1: -P("xy"), 2: -P("xxy")})


def test_delta_u_u0_is_identity():
    for k in range(0, 6):
        for w in all_words(k):
            p = Poly.from_word(w)
            assert delta_u(p, 8).coeff(0) == p
            assert delta_u_inv(p, 8).coeff(0) == p


def test_delta_u_coefficients_match_theta():
    for w in [Word(2, 1), word_from_letters("xxy"), word_from_letters("yx")]:
        p = Poly.from_word(w)
        img = delta_u(p, w.length + 5)
        for l in range(0, 5):
            assert img.coeff(l) == theta(l, p)


def test_delta_u_rejects_cutoff_below_weight():
    with pytest.raises(ValueError):
        delta_u(P("xxyy"), 3)


def test_delta_u_inverse_composition_weight_up_to_4():
    # quick version; the exhaustive weight-5 run lives in acceptance
    cutoff = 8
    for k in range(0, 5):
        for w in all_words(k):
            p = Poly.from_word(w)
            expected = UPoly({0: p})

            def compose(first, second):
                total: dict[int, Poly] = {}
                for u1, q in first(p, cutoff).coeffs.items():
                    for u2, r in second(q, cutoff).coeffs.items():
                        u = u1 + u2
                        if u > cutoff:
                            continue
                        total[u] = total.get(u, Poly.zero()) + r
                return UPoly(total)

            assert compose(delta_u_inv, delta_u) == expected
            assert compose(delta_u, delta_u_inv) == expected


def test_upoly_stores_no_zero_parts():
    u = UPoly({0: Poly.zero(), 1: P("xy")})
    assert 0 not in u.coeffs
    img = delta_u(duality(P("xxyy")), 6)  # zero input
    assert img == UPoly({})


def test_linearity():
    p = P("xy") - P("xxy").scale(2)
    for l in range(0, 4):
        assert theta(l, p) == theta(l, P("xy")) - theta(l, P("xxy")).scale(2)
    rng = random.Random(3)
    a = random_poly(rng, max_weight=4, nterms=2)
    b = random_poly(rng, max_weight=4, nterms=2)
    for n in range(1, 4):
        assert partial(n, a + b) == partial(n, a) + partial(n, b)


def test_tau_string_oracle_on_polys():
    rng = random.Random(23)
    for _ in range(200):
        p = random_poly(rng, max_weight=10, nterms=3)
        image = tau(p)
        rebuilt = Poly.zero()
        for w, c in p.terms.items():
            s = str(w)
            flipped = "1" if s == "1" else tau_str(s)
            rebuilt = rebuilt + Poly.from_word(word_from_letters(flipped), c)
        assert image == rebuilt


def test_upoly_repr():
    assert repr(UPoly()) == "0"
    assert repr(UPoly({2: P("xy"), 0: P("x"), 1: Poly.zero()})) \
        == "(x)*u^0 + (xy)*u^2"
