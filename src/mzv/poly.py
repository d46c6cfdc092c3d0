"""Finite rational linear combinations of words (the noncommutative side).

A ``Poly`` wraps a dict mapping :class:`~mzv.words.Word` to a nonzero
rational coefficient (``int`` or ``fractions.Fraction``; the two hash
and compare consistently, so mixing them is safe).  Instances are
treated as immutable: every operation returns a fresh ``Poly`` and the
zero-coefficient invariant is restored on construction.

No operation here makes a ``Fraction`` out of ints, so ``fractions`` is
imported for the ``Coeff`` annotation only, and importing mzv does not
load it: a caller with rational coefficients has loaded it already.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .words import EMPTY_WORD, Word

if TYPE_CHECKING:
    from fractions import Fraction

    Coeff = int | Fraction


def accumulate(acc: dict[Word, Coeff], terms: Iterable[tuple[Word, Coeff]],
               c: Coeff = 1) -> dict[Word, Coeff]:
    """Add c times each (word, coefficient) pair into acc, in place.

    Sums that cancel are deleted, so acc keeps the no-zero invariant of
    ``Poly.terms``; acc is returned for chaining into ``Poly._of``.
    """
    get = acc.get
    for w, v in terms:
        s = get(w, 0) + c * v
        if s:
            acc[w] = s
        else:
            acc.pop(w, None)
    return acc


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Coeff] | None = None):
        if terms is None:
            self.terms: dict[Word, Coeff] = {}
        else:
            self.terms = {w: c for w, c in terms.items() if c}

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({EMPTY_WORD: 1})

    @staticmethod
    def from_word(w: Word, c: Coeff = 1) -> "Poly":
        return Poly({w: c})

    @staticmethod
    def from_words(ws: Iterable[Word]) -> "Poly":
        return Poly._of(accumulate({}, ((w, 1) for w in ws)))

    @staticmethod
    def _of(terms: dict[Word, Coeff]) -> "Poly":
        """Wrap a dict that already holds no zero coefficient, uncopied."""
        p = Poly.__new__(Poly)
        p.terms = terms
        return p

    @staticmethod
    def _of_parts(parts: Iterable[tuple[int, dict[int, Coeff]]]) -> "Poly":
        """Wrap (length, {packed bits: nonzero coefficient}) parts."""
        new = tuple.__new__
        return Poly._of({new(Word, (k, v)): c
                         for k, part in parts for v, c in part.items()})

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly._of(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly._of(accumulate(dict(self.terms), other.terms.items(), -1))

    def __neg__(self) -> "Poly":
        return Poly._of({w: -c for w, c in self.terms.items()})

    def scale(self, c: Coeff) -> "Poly":
        if not c:
            return Poly()
        return Poly._of({w: c * v for w, v in self.terms.items()})

    def __mul__(self, other: "Poly | Coeff") -> "Poly":
        """Concatenation product, or scalar multiple."""
        if not isinstance(other, Poly):
            return self.scale(other)
        out: dict[Word, Coeff] = {}
        right = other.terms.items()
        for v, cv in self.terms.items():
            accumulate(out, ((v.concat(w), cw) for w, cw in right), cv)
        return Poly._of(out)

    def __rmul__(self, other: Coeff) -> "Poly":
        return self.scale(other)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = Poly.one()
        for _ in range(n):
            out = out * self
        return out

    # -- predicates and views ------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def coeff(self, w: Word) -> Coeff:
        return self.terms.get(w, 0)

    def sorted_terms(self) -> Iterator[tuple[Word, Coeff]]:
        """Terms in the canonical order (length, then packed value)."""
        return iter(sorted(self.terms.items()))

    def is_homogeneous(self, k: int | None = None) -> bool:
        weights = {w.length for w in self.terms}
        if k is None:
            return len(weights) <= 1
        return weights <= {k}

    def min_weight(self) -> int:
        """Smallest weight among stored words (0 for the zero poly)."""
        return min((w.length for w in self.terms), default=0)

    def max_weight(self) -> int:
        return max((w.length for w in self.terms), default=0)

    def in_h0(self) -> bool:
        """True iff every stored word is admissible."""
        return all(w.is_admissible() for w in self.terms)

    def homogeneous_part(self, k: int) -> "Poly":
        return Poly({w: c for w, c in self.terms.items() if w.length == k})

    def homogeneous_parts(self) -> dict[int, "Poly"]:
        return {k: Poly._of_parts([(k, part)]) for k, part in
                enumerate(self.graded(self.max_weight())) if part}

    def graded(self, cutoff: int) -> list[dict[int, Coeff]]:
        """Weight parts 0..cutoff keyed by packed bits; longer words go."""
        parts: list[dict[int, Coeff]] = [{} for _ in range(cutoff + 1)]
        for (k, v), c in self.terms.items():
            if k <= cutoff:
                parts[k][v] = c
        return parts

    def map_words(self, f) -> "Poly":
        """Linear extension of a word-to-word map f."""
        return Poly._of(accumulate({}, ((f(w), c)
                                        for w, c in self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.sorted_terms():
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = str(w) if mag == 1 else f"{mag}*{w}"
            bits.append(f"{sign} {body}")
        head = bits[0].lstrip("+ ").replace("- ", "-", 1) if bits else ""
        return " ".join([head] + bits[1:])

    __repr__ = __str__
