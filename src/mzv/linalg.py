"""Exact rational rank and span membership over the weight-k word basis.

Relation polynomials are coordinatized against the canonical admissible
basis of their weight (column i is the word with interior bits i, so
the index is computed directly from the packed bits).  Rows are cleared
to primitive integer vectors and eliminated fraction-free: each
elimination step (``_cancel``) clears one entry of a row with the pivot
row of that entry's column and divides the result by its content, which
keeps intermediate entries small in practice while staying exact.

Rows are added by descending leading column (a stable sort, so ties
keep their generation order).  A new pivot is still cleared from the
earlier pivot rows that hold its column: for the derivation rows those
merges are about half of the build (see the README).

The echelon is kept reduced as rows arrive: every pivot row P_c is
primitive, leads in its column c with a positive value, and is zero in
every other pivot column.  A reduced echelon of a span is unique, so
the pivots do not depend on the row order.  Reading is then one pass:
with L the lcm of the leads of the pivot columns in q's support, the
remainder L*q - sum of (L/lead_c) * q_c * P_c over those columns is one
``accumulate`` pass with no kernel call, in which q's pivot entries
cancel exactly, and q lies in the span exactly when it is zero.  A new
row's nonzero remainder becomes a pivot, and its lead column is then
cleared from each earlier pivot row that holds it.

Every elimination step is one call of ``combine_primitive``, the
pure-Python sparse row kernel, which ``tests/oracles.py`` checks
against a dense computation.  The deadline is checked once per row
added and once per read, before anything changes.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from time import monotonic

from .poly import Poly, accumulate
from .words import Word

Row = tuple[list[int], list[int]]


class BudgetExceeded(Exception):
    """Raised when an elimination runs past its deadline."""


class NotTriangular(RuntimeError):
    """A span assumed tau-stable is not: an internal error, never a
    verdict."""


def column_of_word(w: Word, k: int) -> int:
    """Column index of an admissible weight-k word (its interior bits)."""
    if w.length != k:
        raise ValueError(f"word {w} does not have weight {k}")
    if not w.is_admissible():
        raise ValueError(f"word {w} is not admissible")
    return w.bits >> 1


def word_of_column(k: int, i: int) -> Word:
    return Word(k, i << 1 | 1)


def _divide_content(vals: list[int]) -> list[int]:
    """The values divided by their gcd, which makes the row primitive."""
    g = 0
    for v in vals:
        g = gcd(g, v)
        if g == 1:
            return vals
    return [v // g for v in vals] if g > 1 else vals


def poly_to_row(p: Poly, k: int) -> Row:
    """Primitive integer coordinate row of a homogeneous weight-k poly.
    Columns are read off the packed bits; ``column_of_word`` runs only
    on a word it rejects, to raise its error.  Any non-int coefficient
    (a ``Fraction``, even with denominator 1) makes every value an int
    times the lcm of the denominators."""
    entries = []
    ints = True
    for w, c in p.terms.items():
        bits = w.bits
        if w.length != k or not bits & 1 or bits >> (k - 1):
            column_of_word(w, k)
        entries.append((bits >> 1, c))
        if type(c) is not int:
            ints = False
    entries.sort()
    cols = [i for i, _ in entries]
    if ints:
        vals = [c for _, c in entries]
    else:
        denom = lcm(*(c.denominator for _, c in entries))
        vals = [int(c * denom) for _, c in entries]
    return cols, _divide_content(vals)


def combine_primitive(ca, acols, avals, cb, bcols, bvals):
    """Return ``ca*A + cb*B`` as a content-reduced sparse row.

    Rows are ``(cols, vals)`` with strictly increasing columns and
    nonzero integer values.  Dividing the result by the gcd of its
    values keeps repeated elimination steps fraction-free without
    coefficient blowup.
    """
    cols = []
    vals = []
    i = j = 0
    na = len(acols)
    nb = len(bcols)
    while i < na and j < nb:
        c1 = acols[i]
        c2 = bcols[j]
        if c1 < c2:
            cols.append(c1)
            vals.append(ca * avals[i])
            i += 1
        elif c1 > c2:
            cols.append(c2)
            vals.append(cb * bvals[j])
            j += 1
        else:
            v = ca * avals[i] + cb * bvals[j]
            if v:
                cols.append(c1)
                vals.append(v)
            i += 1
            j += 1
    while i < na:
        cols.append(acols[i])
        vals.append(ca * avals[i])
        i += 1
    while j < nb:
        cols.append(bcols[j])
        vals.append(cb * bvals[j])
        j += 1
    return cols, _divide_content(vals)


def _check(deadline) -> None:
    if deadline is not None and monotonic() > deadline:
        raise BudgetExceeded


def _positive_row(acc: dict[int, int]) -> Row:
    """The nonzero sparse row of acc, primitive with a positive lead."""
    cols = sorted(acc)
    vals = _divide_content([acc[c] for c in cols])
    if vals[0] < 0:
        vals = [-v for v in vals]
    return cols, vals


def _cancel(a, cols, vals, pcols, pvals) -> Row:
    """The row with its entry ``a`` cleared by the pivot row of its column."""
    b = pvals[0]
    g = gcd(a, b)
    return combine_primitive(b // g, cols, vals, -(a // g), pcols, pvals)


class Echelon:
    """Reduced echelon form, kept reduced as rows are added: each pivot
    row is primitive, positive-led and zero in every other pivot column,
    and the pivot rows span the span."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def remainder(self, cols, vals) -> dict[int, int]:
        """L*q - sum of (L/lead_c) * q_c * P_c over q's pivot columns c,
        L the lcm of their leads: zero in every pivot column, and empty
        exactly when q lies in the span."""
        pivots = self.pivots
        hits = [(v, pivots[c]) for c, v in zip(cols, vals) if c in pivots]
        scale = lcm(*(pvals[0] for _, (_, pvals) in hits))
        acc = {c: scale * v for c, v in zip(cols, vals)}
        for v, (pcols, pvals) in hits:
            accumulate(acc, zip(pcols, pvals), -(scale // pvals[0]) * v)
        return acc

    def add(self, cols, vals, deadline=None) -> bool:
        """Insert a row; returns True if it increased the rank.  The
        remainder becomes the last pivot inserted, and its lead column is
        cleared from the earlier pivot rows that hold it."""
        _check(deadline)
        acc = self.remainder(cols, vals)
        if not acc:
            return False
        cols, vals = _positive_row(acc)
        lead = cols[0]
        pivots = self.pivots
        for p, (pcols, pvals) in list(pivots.items()):
            if p < lead <= pcols[-1]:
                i = bisect_left(pcols, lead)
                if pcols[i] == lead:
                    pivots[p] = _cancel(pvals[i], pcols, pvals, cols, vals)
        pivots[lead] = (cols, vals)
        return True

    def contains(self, cols, vals, deadline=None) -> bool:
        """Whether the row lies in the span."""
        _check(deadline)
        return not self.remainder(cols, vals)


def _sorted_rows(rows: list[Row]) -> list[Row]:
    # by descending leading column; the sort is stable, so ties keep
    # generation order, and an empty row goes last
    return sorted(rows, key=lambda r: r[0][:1], reverse=True)


class RelationMatrix:
    """Relation vectors of one fixed weight over exact rationals."""

    def __init__(self, weight: int, rows: list[Row]):
        self.weight = weight
        self.rows = rows
        self._echelon: Echelon | None = None

    @classmethod
    def from_polys(cls, weight: int, polys: list[Poly]) -> "RelationMatrix":
        rows = []
        for p in polys:
            if p.is_zero():
                continue
            rows.append(poly_to_row(p, weight))
        return cls(weight, rows)

    def echelon(self, deadline=None) -> Echelon:
        if self._echelon is None:
            ech = Echelon()
            for cols, vals in _sorted_rows(self.rows):
                ech.add(cols, vals, deadline)
            self._echelon = ech
        return self._echelon

    def rank(self, deadline=None) -> int:
        return self.echelon(deadline).rank

    def in_span(self, p: Poly, deadline=None) -> bool:
        """True iff p is a rational combination of the stored rows: one
        accumulation pass over the pivot rows of its pivot columns, after
        ``poly_to_row`` has rejected any word not in the basis."""
        if p.is_zero():
            return True
        cols, vals = poly_to_row(p, self.weight)
        return self.echelon(deadline).contains(cols, vals, deadline)


def tau_columns(k: int) -> list[int]:
    """tau as a permutation of the weight-k columns: column c goes to the
    column of the dual of c's word."""
    return [column_of_word(word_of_column(k, c).tau(), k)
            for c in range(1 << (k - 2))]


def plus_dimension(span: Echelon, tau: list[int]) -> int:
    """dim of the +1 eigenspace of tau on the span of a reduced echelon,
    tau an involutive column permutation that maps the span to itself.
    Each x in the span is the sum of (x[c_i] / l_i) P_i over the pivot
    rows P_i leading in c_i with value l_i, so the trace of tau is the
    sum of P_i[tau c_i] / l_i, one lookup per pivot row, and the
    dimension is (rank + trace) / 2; anything but an integer in
    [0, rank] means tau does not preserve the span (``NotTriangular``)."""
    trace = Fraction(0)
    for lead, (cols, vals) in span.pivots.items():
        t = tau[lead]
        i = bisect_left(cols, t)
        if i < len(cols) and cols[i] == t:
            trace += Fraction(vals[i], vals[0])
    twice = span.rank + trace
    if twice.denominator != 1 or twice % 2 \
            or not 0 <= twice <= 2 * span.rank:
        raise NotTriangular(f"the span is not tau-stable: trace "
                            f"{trace} at rank {span.rank}")
    return int(twice) // 2


def rank(m: RelationMatrix, deadline=None) -> int:
    return m.rank(deadline)


def in_span(p: Poly, m: RelationMatrix, deadline=None) -> bool:
    return m.in_span(p, deadline)


def dim_intersection(a: RelationMatrix, b: RelationMatrix,
                     deadline=None) -> int:
    """dim(span A intersect span B) by inclusion-exclusion; the union
    span is the span of the concatenated rows."""
    if a.weight != b.weight:
        raise ValueError(f"weight mismatch: {a.weight} vs {b.weight}")
    union = RelationMatrix(a.weight, a.rows + b.rows).rank(deadline)
    return a.rank(deadline) + b.rank(deadline) - union
