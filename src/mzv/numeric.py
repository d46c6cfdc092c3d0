"""Floating-point evaluation of multiple zeta values, with error bounds.

``zeta_numeric`` sums the defining nested series over all index tuples
with leading index at most M, using prefix sums so the cost is
O(depth * M) instead of O(M^depth).  Its bound is the floating-point
rounding of those sums plus a rigorous truncation bound: writing
a = depth - 1 and k = leading exponent, the inner (depth-1)-fold
ordered sum is at most (1 + ln m)^a / a!, and the outer tail is
bounded by the explicit integral

    sum_{m > M} (1 + ln m)^a / (a! m^k)
        <= M^(1-k)/a! * sum_{j<=a} a!/(a-j)! (1+ln M)^(a-j) / (k-1)^(j+1)

valid once the integrand is decreasing at M (always the case for the
truncations used here; a short explicit sum covers tiny M).

``zeta_of_word`` adds that tail back instead of only bounding it.
Splitting each index tuple at M gives the exact identity

    zeta(k_1..k_n) = sum_{j=0..n} Z_{>M}(k_1..k_j) * H_M(k_{j+1}..k_n),

where H_M is the nested sum with every index <= M (the prefix-sum pass
yields it for every suffix) and Z_{>M} the one with every index > M.
As the summands decrease, Z_{>M}(k_1..k_j) lies between the iterated
integrals I_{M+j} and I_M, with I_x = x^(j-K_j) / prod_{i<=j} (K_i - i)
and K_i = k_1 + ... + k_i.  The value takes I_{M+j/2}; its bound is the
bracket width plus the rounding of the sequential prefix sums.  No term
with an index above M is summed.

This module is a sanity check on exact relations, never an authority:
values are double-precision truncated sums plus a bracketed tail.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import ceil, exp, expm1, factorial, log, log1p
from typing import NamedTuple

from .poly import Poly
from .words import Word


class ZetaApprox(NamedTuple):
    value: float
    terms_used: int
    tail_bound: float


def _tail_integral(M: float, a: int, k: int) -> float:
    """Closed form of integral_M^inf (1 + ln t)^a t^(-k) dt."""
    u0 = 1.0 + log(M)
    c = k - 1
    total = 0.0
    coeff = 1.0
    for j in range(a + 1):
        total += coeff * u0 ** (a - j) / c ** (j + 1)
        coeff *= a - j
    return M ** (-c) * total


def _f(t: float, a: int, k: int) -> float:
    return (1.0 + log(t)) ** a / t ** k


def tail_bound(ks: tuple[int, ...], terms: int) -> float:
    """Rigorous bound on the truncation error of the nested partial sum."""
    a = len(ks) - 1
    k = ks[0]
    inv_afact = 1.0 / factorial(a)
    # integrand decreasing at t once k (1 + ln t) >= a
    start = terms
    extra = 0.0
    threshold = ceil(exp(max(a / k - 1.0, 0.0)))
    if start < threshold:
        for m in range(start + 1, threshold + 1):
            extra += _f(m, a, k)
        start = threshold
    return inv_afact * (extra + _tail_integral(start, a, k))


def _suffix_sums(ks: tuple[int, ...], terms: int) -> list[float]:
    """H_M of every suffix: entry j sums over terms >= m_{j+1} > ... > m_n
    the product of m_i^(-k_i); entry n (the empty suffix) is 1."""
    if not ks or ks[0] < 2 or any(k < 1 for k in ks):
        raise ValueError(f"inadmissible composition {ks}")
    if terms < len(ks):
        raise ValueError(f"need at least depth={len(ks)} terms")
    # imported here: the exact commands never sum a series, and numpy
    # would be most of the time it takes to import mzv
    import numpy as np
    m = np.arange(1, terms + 1, dtype=np.float64)
    s = m ** float(-ks[-1])
    sums = [float(s.sum()), 1.0]
    for k in reversed(ks[:-1]):
        prefix = np.empty_like(s)
        prefix[0] = 0.0
        np.cumsum(s[:-1], out=prefix[1:])
        s = m ** float(-k) * prefix
        sums.insert(0, float(s.sum()))
    return sums


def _rounding(depth: int, terms: int, value: float) -> float:
    """Rounding bound of the sequential prefix sums of positive terms:
    relative error at most about (depth + 1) * (M + 2) machine epsilons."""
    return (depth + 1) * (terms + 2) * sys.float_info.epsilon * abs(value)


def zeta_numeric(ks, terms: int) -> ZetaApprox:
    """Nested-series value over tuples m_1 > ... > m_n with m_1 <= terms;
    its bound covers the truncation and the rounding of the sums."""
    ks = tuple(int(k) for k in ks)
    value = _suffix_sums(ks, terms)[0]
    return ZetaApprox(value, terms, tail_bound(ks, terms)
                      + _rounding(len(ks), terms, value))


@lru_cache(maxsize=None)
def zeta_of_word(w: Word, terms: int) -> ZetaApprox:
    """Evaluation of an admissible word; the empty word maps to 1.

    The value is the truncated sum plus its split tail (see the module
    docstring); ``tail_bound`` bounds the error of that value.  Values
    are memoized, so a word shared by many relations is summed once."""
    if w.length == 0:
        return ZetaApprox(1.0, terms, 0.0)
    ks = w.composition()
    sums = _suffix_sums(ks, terms)
    value = sums[0]
    width = 0.0
    big_k = 0
    denom = 1.0
    for j in range(1, len(ks) + 1):
        big_k += ks[j - 1]
        e = big_k - j
        denom *= e                      # I_x = x^(-e) / denom
        upper = terms ** -e / denom     # I_M
        value += (terms + j / 2) ** -e / denom * sums[j]
        # I_M - I_{M+j}, without cancellation
        width += -expm1(-e * log1p(j / terms)) * upper * sums[j]
    return ZetaApprox(value, terms, width + _rounding(len(ks), terms, value))


def residual_with_bound(p: Poly, terms: int) -> tuple[float, float]:
    """Signed numeric image of p and the accumulated truncation bound."""
    total = 0.0
    bound = 0.0
    for w, c in p.sorted_terms():
        if not w.is_admissible():
            raise ValueError(f"monomial {w} is not admissible")
        z = zeta_of_word(w, terms)
        total += float(c) * z.value
        bound += abs(float(c)) * z.tail_bound
    return total, bound


def residual(p: Poly, terms: int) -> float:
    """Numeric image of an element expected to lie in the kernel."""
    return residual_with_bound(p, terms)[0]
