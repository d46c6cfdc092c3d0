"""Weight-graded truncated series over the word algebra.

A word's weight is its length, and within one weight its packed bits
alone name it, so a series truncated at a cutoff is one dict bits ->
coefficient per weight 0..cutoff: sums, products and theta images build
no ``Word`` per term, and ``poly`` is a view.  ``GradedSeries`` models
elements of the completed algebra such as ``1/(1-x)``; the identity
checks assemble every series from :func:`geom`, products and sums,
never by parsing.
"""

from __future__ import annotations

from .operators import _theta_graded, theta
from .poly import Coeff, Poly, accumulate
from .words import Word


class GradedSeries:
    """Truncated graded element: ``_parts[k]`` maps the packed bits of
    each word of length k <= ``cutoff`` to its nonzero coefficient.  A
    part is never modified once its series is built."""

    __slots__ = ("cutoff", "_parts")

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
        self.cutoff, self._parts = cutoff, Poly._of(terms).graded(cutoff)

    # -- constructors --------------------------------------------------

    @staticmethod
    def _of(cutoff: int, parts: list[dict[int, Coeff]]) -> "GradedSeries":
        """Wrap cutoff + 1 parts holding no zero coefficient, uncopied."""
        s = GradedSeries.__new__(GradedSeries)
        s.cutoff, s._parts = cutoff, parts
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
        return GradedSeries._of(cutoff, p.graded(cutoff))

    @staticmethod
    def from_word(w: Word, cutoff: int) -> "GradedSeries":
        return GradedSeries.from_poly(Poly.from_word(w), cutoff)

    # -- views -----------------------------------------------------------

    @property
    def poly(self) -> Poly:
        """Every word of the series in one Poly (a fresh view)."""
        return Poly._of_parts(enumerate(self._parts))

    @property
    def parts(self) -> dict[int, Poly]:
        """The nonzero components by weight, ascending (a fresh dict)."""
        return self.poly.homogeneous_parts()

    def part(self, k: int) -> Poly:
        return self.poly.homogeneous_part(k)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GradedSeries)
                and self.cutoff == other.cutoff
                and self._parts == other._parts)

    def is_zero(self) -> bool:
        return not any(self._parts)

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
        return GradedSeries._of(self._cutoff(other), [
            accumulate(dict(a), b.items()) if b else a
            for a, b in zip(self._parts, other._parts)])

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return GradedSeries._of(self._cutoff(other), [
            accumulate(dict(a), b.items(), -1) if b else a
            for a, b in zip(self._parts, other._parts)])

    def __neg__(self) -> "GradedSeries":
        return self.scale(-1)

    def __mul__(self, other: "GradedSeries") -> "GradedSeries":
        """Concatenation product, dropping pairs longer than the cutoff:
        a word of weight i times one of weight j is ``va << j | vb``."""
        cutoff = self._cutoff(other)
        out: list[dict[int, Coeff]] = [{} for _ in range(cutoff + 1)]
        right = [(j, part.items())
                 for j, part in enumerate(other._parts) if part]
        for i, left in enumerate(self._parts):
            for j, terms in right:
                if i + j > cutoff or not left:
                    break
                accumulate(out[i + j], ((va << j | vb, ca * cb)
                                        for va, ca in left.items()
                                        for vb, cb in terms))
        return GradedSeries._of(cutoff, out)

    def __pow__(self, j: int) -> "GradedSeries":
        if j < 0:
            raise ValueError("negative powers are not defined")
        out = GradedSeries.one(self.cutoff)
        for _ in range(j):
            out = out * self
        return out

    def scale(self, c) -> "GradedSeries":
        if not c:
            return GradedSeries.zero(self.cutoff)
        return GradedSeries._of(self.cutoff, [
            {v: c * a for v, a in part.items()} for part in self._parts])

    def map_parts(self, f) -> "GradedSeries":
        """Apply a weight-preserving linear map to every component."""
        return GradedSeries.from_poly(f(self.poly), self.cutoff)


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
    only the parts of weight <= cutoff - l are mapped, whole, through
    ``theta`` (the operator's entry point, which the tracer wraps)."""
    kept = Poly._of_parts((k, part) for k, part in enumerate(s._parts)
                          if k + l <= s.cutoff)
    return GradedSeries.from_poly(theta(l, kept), s.cutoff)


def apply_theta_series(s: GradedSeries) -> GradedSeries:
    """Apply the exponential operator weight by weight: the weight-k
    output is ``sum_{l+i=k} theta(l, s_i)``, up to the cutoff.

    Computed by one recursion over the left quotients of s's parts
    (``operators._theta_graded``): Theta(a q) = Theta(a) Theta(q), so
    each quotient q is imaged once, for all degrees, and its degrees
    cancel (as in the quotient 1 - sum_a x^a y that x^m y leaves in
    identity (i)) before the letter a's terms are prefixed.  It reads
    no memo, so it is independent of ``theta`` and ``theta_shift``.
    """
    return GradedSeries._of(s.cutoff, _theta_graded(s._parts))


def theta_minus_one(s: GradedSeries) -> GradedSeries:
    """(Theta - 1) of s, the sum of theta_shift(l, s) over l >= 1:
    ``apply_theta_series(s)`` less s."""
    return apply_theta_series(s) - s
