import math
import subprocess
import sys
from pathlib import Path

import pytest

import mzv
from mzv.numeric import (ZetaApprox, residual, residual_with_bound,
                         tail_bound, zeta_numeric, zeta_of_word)
from mzv.operators import duality, partial
from mzv.poly import Poly
from mzv.relations import derivation_all, duality_all
from mzv.words import EMPTY_WORD, all_words, word_from_letters, \
    word_of_composition

from oracles import (zeta_brute, zeta_closed_forms, zeta_depth1_direct,
                     zeta_even_closed_forms)


def P(s: str) -> Poly:
    return Poly.from_word(word_from_letters(s))


def test_matches_brute_force_at_small_truncation():
    # identical truncation semantics: leading index up to the limit
    for ks in [(2,), (3,), (2, 1), (3, 2), (2, 1, 1), (2, 2, 1), (4, 1, 2)]:
        for limit in (10, 37, 60):
            expected = zeta_brute(ks, limit)
            got = zeta_numeric(ks, limit).value
            assert got == pytest.approx(expected, rel=1e-13), (ks, limit)


def test_zeta2_within_tail_bound_of_pi2_over_6():
    z = zeta_numeric((2,), 10**6)
    assert abs(z.value - math.pi**2 / 6) <= z.tail_bound
    assert z.tail_bound <= 2e-6
    assert z.terms_used == 10**6


def test_depth1_against_direct_summation():
    for k in (3, 4, 7):
        z = zeta_numeric((k,), 10**6)
        direct = zeta_depth1_direct(k, 10**6)
        assert abs(z.value - direct) <= 1e-12 * abs(direct)


def test_depth1_equals_plain_sum_shape():
    z = zeta_numeric((5,), 2000)
    assert z.value == pytest.approx(sum(1.0 / m**5 for m in range(1, 2001)),
                                    rel=1e-14)


def test_euler_identity_residual():
    M = 10**6
    z3 = zeta_numeric((3,), M)
    z21 = zeta_numeric((2, 1), M)
    assert abs(z3.value - z21.value) < 1e-4
    r = residual(partial(1, P("xy")), M)
    assert abs(r) < 1e-4


def test_residual_of_zero_poly():
    assert residual(Poly.zero(), 1000) == 0.0


def test_unit_word_evaluates_to_one():
    z = zeta_of_word(EMPTY_WORD, 100)
    assert z.value == 1.0 and z.tail_bound == 0.0


def test_monotone_in_truncation():
    values = [zeta_numeric((2, 1), M).value for M in (10**3, 10**4, 10**5)]
    assert values[0] <= values[1] <= values[2]
    singles = [zeta_numeric((2,), M).value for M in (10, 100, 1000)]
    assert singles == sorted(singles)


def test_input_validation():
    with pytest.raises(ValueError):
        zeta_numeric((1, 2), 100)  # divergent leading index
    with pytest.raises(ValueError):
        zeta_numeric((), 100)
    with pytest.raises(ValueError):
        zeta_numeric((2, 0), 100)
    with pytest.raises(ValueError):
        zeta_numeric((2, 1, 1), 2)  # fewer terms than depth
    with pytest.raises(ValueError):
        residual(P("yx"), 100)  # inadmissible monomial


def test_zeta_numeric_bound_covers_rounding():
    # at large leading exponents the truncation bound is far below the
    # rounding of the double sums, so the reported bound must carry both
    for k, exact in zeta_even_closed_forms().items():
        z = zeta_numeric((k,), 10**4)
        assert abs(z.value - exact) <= z.tail_bound, k
        assert z.tail_bound > tail_bound((k,), 10**4)


def test_tail_bound_decreases_and_covers():
    ks = (2, 1, 1)
    bounds = [tail_bound(ks, M) for M in (10**3, 10**4, 10**5)]
    assert bounds == sorted(bounds, reverse=True)
    # the bound really covers the truncation gap (measured against a
    # much larger truncation)
    far = zeta_numeric(ks, 3 * 10**6).value
    for M in (10**3, 10**4, 10**5):
        z = zeta_numeric(ks, M)
        assert abs(far - z.value) <= z.tail_bound


def test_duality_residual_within_tail_bounds():
    M = 10**4
    value, bound = residual_with_bound(duality(P("xxxy")), M)
    assert abs(value) <= bound
    value, bound = residual_with_bound(duality(P("xyyyyy")), M)
    assert abs(value) <= bound


def test_relations_numerically_annihilate_at_modest_truncation():
    # module invariant at a cheap truncation; acceptance reruns at 1e6
    M = 10**4
    for k in range(3, 7):
        for rel in duality_all(k) + derivation_all(k):
            value, bound = residual_with_bound(rel, M)
            assert abs(value) <= bound, (k, rel)


def test_zeta_approx_is_frozen_dataclass():
    z = ZetaApprox(1.0, 10, 0.5)
    with pytest.raises(Exception):
        z.value = 2.0


def test_zeta_of_word_within_bound_of_closed_forms():
    for M in (10**3, 10**4, 10**6):
        for ks, exact in zeta_closed_forms().items():
            z = zeta_of_word(word_of_composition(ks), M)
            assert abs(z.value - exact) <= z.tail_bound, (ks, M)


def test_zeta_of_word_adds_tail_within_partial_sum_bound():
    # the split tail is nonnegative, the enclosures of zeta around the
    # bare and the corrected value overlap, and where the bare tail is
    # slowest (leading exponent 2) the corrected bound is much tighter
    for M in (10**3, 10**4):
        for k in range(2, 7):
            for w in all_words(k):
                if not w.is_admissible():
                    continue
                ks = w.composition()
                bare = zeta_numeric(ks, M)
                z = zeta_of_word(w, M)
                assert bare.value <= z.value, (ks, M)
                assert z.value - z.tail_bound <= \
                    bare.value + bare.tail_bound, (ks, M)
                if ks[0] == 2:
                    assert z.tail_bound < bare.tail_bound / 100, (ks, M)


def test_relations_within_bound_of_corrected_values():
    for M in (10**3, 10**4, 10**5):
        for k in range(3, 9):
            for rel in duality_all(k) + derivation_all(k):
                value, bound = residual_with_bound(rel, M)
                assert abs(value) <= bound, (M, k, rel)


def test_numpy_is_loaded_on_first_evaluation():
    src = Path(mzv.__file__).resolve().parent.parent
    script = f"""
import sys
sys.path.insert(0, {str(src)!r})
import mzv, mzv.cli
assert "numpy" not in sys.modules, "numpy loaded on import"
value = mzv.zeta_numeric((2,), 1000).value
assert "numpy" in sys.modules
print(repr(value))
"""
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) == zeta_numeric((2,), 1000).value


def test_tail_bound_sums_explicitly_below_the_decreasing_point():
    # ks = (2, 1^9): a = 9 and k = 2, so the integrand (1 + ln t)^9 / t^2
    # decreases from t = e^3.5 on, and every M below 34 takes the
    # explicit sum up to 34.  zeta(2, 1^9) = zeta(11) by duality.
    ks = (2,) + (1,) * 9
    exact = zeta_numeric((11,), 10**4).value
    far = zeta_numeric(ks, 10**5).value
    for M in (12, 16, 20):
        near = zeta_numeric(ks, M).value
        assert 0.67 < far - near < exact - near <= tail_bound(ks, M) < 2.8
