"""Weight-graded truncated series over the word algebra.

A word's weight is its length, so a series truncated at a cutoff is one
``Poly`` with no longer word, and its weight-k component is the part of
length k.  ``GradedSeries`` models elements of the completed algebra
such as ``1/(1-x)``; the identity checks assemble every series from
:func:`geom`, products and sums, never by parsing.
"""

from __future__ import annotations

from .operators import theta, theta_all
from .poly import Coeff, Poly, accumulate
from .words import Word


def _truncate(p: Poly, cutoff: int) -> Poly:
    """The words of p of length at most the cutoff."""
    return Poly._of({w: c for w, c in p.terms.items() if w.length <= cutoff})


class GradedSeries:
    """Truncated graded element: ``poly`` holds every word of length
    <= ``cutoff``, and ``parts[k]`` is its weight-k component."""

    __slots__ = ("cutoff", "poly")

    def __init__(self, cutoff: int, parts: dict[int, Poly] | None = None):
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        terms: dict[Word, Coeff] = {}
        for k, p in (parts or {}).items():
            if p and k > cutoff:
                raise ValueError(f"part of weight {k} above cutoff {cutoff}")
            if not p.is_homogeneous(k):
                raise ValueError(f"part at weight {k} is not homogeneous")
            terms.update(p.terms)  # distinct weights: no word collides
        self.cutoff, self.poly = cutoff, Poly._of(terms)

    # -- constructors --------------------------------------------------

    @staticmethod
    def _of(cutoff: int, poly: Poly) -> "GradedSeries":
        """Wrap a poly with no word longer than the cutoff, uncopied."""
        s = GradedSeries.__new__(GradedSeries)
        s.cutoff, s.poly = cutoff, poly
        return s

    @staticmethod
    def zero(cutoff: int) -> "GradedSeries":
        return GradedSeries(cutoff)

    @staticmethod
    def one(cutoff: int) -> "GradedSeries":
        return GradedSeries(cutoff, {0: Poly.one()})

    @staticmethod
    def from_poly(p: Poly, cutoff: int) -> "GradedSeries":
        """Grade a polynomial, discarding words beyond the cutoff."""
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        return GradedSeries._of(cutoff, _truncate(p, cutoff))

    @staticmethod
    def from_word(w: Word, cutoff: int) -> "GradedSeries":
        return GradedSeries.from_poly(Poly.from_word(w), cutoff)

    # -- views -----------------------------------------------------------

    @property
    def parts(self) -> dict[int, Poly]:
        """The nonzero components by weight, ascending (a fresh dict)."""
        return self.poly.homogeneous_parts()

    def part(self, k: int) -> Poly:
        return self.poly.homogeneous_part(k)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GradedSeries)
                and self.cutoff == other.cutoff and self.poly == other.poly)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __repr__(self) -> str:
        comps = [f"[{k}] {p}" for k, p in self.parts.items()]
        return " ; ".join(comps + [f"O(w>{self.cutoff})"])

    # -- arithmetic -------------------------------------------------------

    def _cutoff(self, other: "GradedSeries") -> int:
        if self.cutoff != other.cutoff:
            raise ValueError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")
        return self.cutoff

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        return GradedSeries._of(self._cutoff(other), self.poly + other.poly)

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return GradedSeries._of(self._cutoff(other), self.poly - other.poly)

    def __neg__(self) -> "GradedSeries":
        return GradedSeries._of(self.cutoff, -self.poly)

    def __mul__(self, other: "GradedSeries") -> "GradedSeries":
        """Concatenation product, dropping pairs longer than the cutoff."""
        cutoff = self._cutoff(other)
        out: dict[Word, Coeff] = {}
        right = other.poly.terms.items()
        for v, cv in self.poly.terms.items():
            room = cutoff - v.length
            accumulate(out, ((v.concat(w), cw) for w, cw in right
                             if w.length <= room), cv)
        return GradedSeries._of(cutoff, Poly._of(out))

    def __pow__(self, j: int) -> "GradedSeries":
        if j < 0:
            raise ValueError("negative powers are not defined")
        out = GradedSeries.one(self.cutoff)
        for _ in range(j):
            out = out * self
        return out

    def scale(self, c) -> "GradedSeries":
        return GradedSeries._of(self.cutoff, self.poly.scale(c))

    def map_parts(self, f) -> "GradedSeries":
        """Apply a weight-preserving linear map to every component."""
        return GradedSeries._of(self.cutoff, f(self.poly))


def geom(p: Poly, cutoff: int) -> GradedSeries:
    """Geometric series 1 + p + p^2 + ... truncated at the cutoff.

    Requires every word of p to have weight >= 1 so the sum is finite
    weight by weight.
    """
    if not p.is_zero() and p.min_weight() < 1:
        raise ValueError("geometric series requires minimum weight >= 1")
    base = GradedSeries.from_poly(p, cutoff)
    acc = GradedSeries.one(cutoff)
    power = GradedSeries.one(cutoff)
    for _ in range(cutoff):
        power = power * base
        if power.is_zero():
            break
        acc = acc + power
    return acc


def series_mul(a: GradedSeries, b: GradedSeries) -> GradedSeries:
    """Cauchy product of graded components (cutoffs must agree)."""
    return a * b


def theta_shift(l: int, s: GradedSeries) -> GradedSeries:
    """theta_l of s, truncated: theta_l raises weight by exactly l, so
    only the words of length <= cutoff - l are mapped, and whole."""
    kept = _truncate(s.poly, s.cutoff - l)
    return GradedSeries._of(s.cutoff, theta(l, kept))


def apply_theta_series(s: GradedSeries) -> GradedSeries:
    """Apply the exponential operator weight by weight: the weight-k
    output is ``sum_{l+i=k} theta(l, s_i)``, up to the cutoff.

    Computed as Theta(s.poly) by one recursion over its left quotients
    (``operators.theta_all``): Theta(a q) = Theta(a) Theta(q), so each
    quotient q is imaged once, for all degrees, and its degrees cancel
    (as in the quotient 1 - sum_a x^a y that x^m y leaves in identity
    (i)) before the letter a's terms are prefixed.  The recursion reads
    no memo, so it is independent of ``theta`` and ``theta_shift``.
    """
    return GradedSeries._of(s.cutoff, theta_all(s.poly, s.cutoff))


def theta_minus_one(s: GradedSeries) -> GradedSeries:
    """(Theta - 1) of s, the sum of theta_shift(l, s) over l >= 1:
    ``apply_theta_series(s)`` less s."""
    acc = theta_all(s.poly, s.cutoff).terms
    return GradedSeries._of(s.cutoff, Poly._of(
        accumulate(acc, s.poly.terms.items(), -1)))
