"""Exact rational rank and span membership over the weight-k word basis.

Relation polynomials are coordinatized against the canonical admissible
basis of their weight (column i is the word with interior bits i, so
the index is computed directly from the packed bits) into sparse rows
``(cols, vals)``: strictly increasing columns and nonzero integer
values, divided by their content.

An ``Echelon`` stores its pivot rows packed: a row is one Python int in
which entry v_c sits in a W-bit two's-complement slot at bit W*c
(Kronecker substitution), so combining rows is a few big-integer
multiply-adds that run in C.  That arithmetic is exact whatever the
entries are; a slot can be read back only while every entry of the row
is below 2^(W-1) in magnitude.  So each row carries an exact bound on
its entries, and content division is deferred until a bound needs it.
The one width rule: each pivot row is stored in its own width, the
narrowest of 16, 32, 64, ... bits that holds its bound, and a row wider
than 16 bits is always exact (primitive and positive-led, its bound its
true maximum), made so by the one rule ``Echelon._exact``.  A
combination whose bound does not fit 16 bits first makes exact each of
its rows that is not; it is then made in the width its bound needs, and
made exact at once if that is wider than 16 bits.  Nothing is ever
truncated.  The common case skips those rules: when every pivot row a
combination takes leads with 1, as every derivation pivot does, and its
bound fits 16 bits (so every row is in 16-bit slots, the narrowest
width that holds its bound), the sum is the plain q - sum of v * P with
its bound added up alongside, the same int and record the general rule
makes, and ``_exact`` takes the content of a row that leads with +-1
as +-1 without a gcd.  One codec reads and writes the slots:
``_entries`` decodes a packed row (``int.to_bytes`` into an ``array``,
or slot by slot beyond 64 bits, whose nonzero slots one ``compress``
pass picks out) and ``_pack_row`` packs a sparse row, so a row changes
width by being decoded and packed again (the new pivot row once per
width for all the rows it clears).

Rows are added by descending leading column (a stable sort, so ties
keep their generation order).  The echelon is kept reduced as rows
arrive: the pivot row P_c leads in its column c with a positive value
l_c and is zero in every other pivot column.  A reduced echelon of a
span is unique up to the scale of its rows, so the pivots do not depend
on the row order.  The remainder of a row q is L*q - sum of
(L/l_c) * q_c * P_c over q's pivot columns c, L the lcm of their leads:
zero in every pivot column, and zero exactly when q lies in the span.
A new row's nonzero remainder is made exact and becomes a pivot, and
its lead column is cleared from each earlier pivot row that holds it,
one packed combination (``Echelon._clear``) each; an index from each
column to the pivot rows that may hold it names those rows.

Reads stay on sparse rows.  ``Echelon.pivots`` maps each lead to its
pivot row decoded, primitive and positive-led, in insertion order; a
row is decoded on the first read after it changed, and ``plus_dimension``
reads one slot per packed pivot row and decodes nothing.  A read
(``remainder``, ``contains``) is one ``accumulate`` pass over the
decoded rows, with no combination step.  A packed read would be faster,
but the benchmark runner's per-operation records grow its peak memory
with the number of operations, so a much faster read would show there
as a memory regression; packed reads wait until the runner stops that.
``combine_primitive``, the sparse row kernel that eliminations used
before, is no longer called.  It is two ``accumulate`` passes and
``_divide_content``, the one sparse content rule; it stays, checked
against a dense computation, because the benchmark trace patches it.

The deadline is checked once per row added and once per read, before
anything changes.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import compress
from math import gcd, lcm
from time import monotonic

from .poly import Poly, accumulate
from .words import Word

Row = tuple[list[int], list[int]]

# the narrowest slot width, in bits; a row's width is it times a power of 2
_START_BITS = 16
# array type codes of the signed slot widths an array holds
_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}


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
    """Return ``ca*A + cb*B`` as a content-reduced sparse row, rows
    ``(cols, vals)`` with strictly increasing columns and nonzero integer
    values: one ``accumulate`` pass per row, sorted by column."""
    acc = accumulate(accumulate({}, zip(acols, avals), ca),
                     zip(bcols, bvals), cb)
    cols = sorted(acc)
    return cols, _divide_content([acc[c] for c in cols])


def _check(deadline) -> None:
    if deadline is not None and monotonic() > deadline:
        raise BudgetExceeded


# -- packed rows ---------------------------------------------------------

@lru_cache(maxsize=None)
def _bias(w: int, n: int) -> int:
    """2^(w-1) in each of n w-bit slots."""
    return ((1 << w * n) - 1) // ((1 << w) - 1) << (w - 1)


def _pack_row(cols, vals, w: int, n: int) -> int:
    """The packed row of a sparse row over n columns whose entries fit
    w-bit slots, written into an array: shifting each entry into place
    would cost a pass over the row per entry."""
    code = _CODES.get(w)
    if not code:
        return sum(v << w * c for c, v in zip(cols, vals))
    slots = array(code, bytes(w // 8 * n))
    for c, v in zip(cols, vals):
        slots[c] = v
    bias = _bias(w, n)
    return (int.from_bytes(slots.tobytes(), "little") ^ bias) - bias


def _slot(r: int, w: int, c: int) -> int:
    """The entry in slot c of the packed row r.  The entries below slot c
    sum to less than half its unit, so rounding r / 2^(w*c) to the
    nearest integer drops them exactly."""
    if c:
        r = ((r >> (w * c - 1)) + 1) >> 1
    h = 1 << (w - 1)
    return ((r + h) & ((h << 1) - 1)) - h


def _width_for(top: int, w: int) -> int:
    """The least of w, 2w, 4w, ... whose slots hold entries up to top."""
    while top >> (w - 1):
        w *= 2
    return w


def _entries(r: int, w: int, n: int) -> Row:
    """The nonzero entries of a packed row of n w-bit slots, read off its
    slot array: an ``array`` of the slot width, or slot by slot beyond 64
    bits.  The array stops at the last nonzero slot."""
    # r's slots in two's complement: adding the bias makes every slot
    # nonnegative, and the xor takes it off again without a borrow
    bias = _bias(w, n)
    d = (r + bias) ^ bias
    b = w // 8
    data = d.to_bytes(-(-d.bit_length() // w) * b, "little")
    code = _CODES.get(w)
    s = array(code, data) if code else [
        int.from_bytes(data[i:i + b], "little", signed=True)
        for i in range(0, len(data), b)]
    cols = list(compress(range(len(s)), s))
    return cols, [s[c] for c in cols]


class Echelon:
    """Reduced echelon form, kept reduced as rows are added: each pivot
    row leads positive in its own column and is zero in every other pivot
    column, and the pivot rows span the span.  The rows are stored
    packed, each in its own slot width; ``pivots`` decodes them."""

    __slots__ = ("_size", "_rows", "_holders", "_read", "_stale")

    def __init__(self):
        self._size = 1         # slots: a power of two above every column
        # lead -> [packed row, bound on its entries, lead value, exact,
        # slot width]; exact when the row is primitive and its bound its
        # true maximum.  The width is the narrowest of the start width
        # times 1, 2, 4, ... that holds the bound, and a row wider than
        # the start width is exact.
        self._rows: dict[int, list] = {}
        # column -> bit mask of the leads of the pivot rows that may be
        # nonzero there (a superset)
        self._holders: dict[int, int] = {}
        self._read: dict[int, Row] = {}    # the decoded rows
        self._stale: dict[int, None] = {}  # leads to decode, in order

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> dict[int, Row]:
        """lead -> (cols, vals), primitive and positive-led, in insertion
        order; the rows that changed since the last read are decoded."""
        if self._stale:
            n, rows, read = self._size, self._rows, self._read
            for p in self._stale:
                cols, vals = _entries(rows[p][0], rows[p][4], n)
                read[p] = cols, _divide_content(vals)
            self._stale = {}
        return self._read

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
        remainder, made exact from its entries (decoded only if pivots
        were combined into it), becomes the last pivot inserted, and its
        lead column is cleared from the earlier pivot rows that hold it."""
        _check(deadline)
        if not cols:
            return False
        if cols[-1] >= self._size:
            self._size = 1 << cols[-1].bit_length()
        rows = self._rows
        hits = [(v, rows[c]) for c, v in zip(cols, vals) if c in rows]
        new = self._remainder(cols, vals, hits)
        if not new[0]:
            return False
        if hits:
            cols, vals = _entries(new[0], new[4], self._size)
        self._exact(new, cols, vals)
        lead = cols[0]
        rows[lead] = new
        holders = self._holders
        bit = 1 << lead
        held = holders.get(lead, 0)
        cleared = 0
        wide = {new[4]: new}  # slot width -> the new row packed in it
        while held:
            low = held & -held
            held ^= low
            p = low.bit_length() - 1
            rec = rows[p]
            a = _slot(rec[0], rec[4], lead)
            if a:
                self._clear(rec, a, new, wide)
                cleared |= low
                self._stale[p] = None
        mask, get = cleared | bit, holders.get
        for c in cols:
            holders[c] = get(c, 0) | mask
        holders[lead] = bit
        self._stale[lead] = None
        return True

    def _remainder(self, cols, vals, hits) -> list:
        """The remainder of the row, hits its (value, pivot record) pairs,
        as a record: the packed row itself if it hits no pivot.  Pivots
        that lead with 1, in a sum that fits the start width, are taken in
        one pass; otherwise, if the bound does not fit the start width,
        the loose pivot rows it combines are content-reduced first."""
        top = max(max(vals), -min(vals))
        w = _width_for(top, _START_BITS)
        q = _pack_row(cols, vals, w, self._size)
        # pivots that lead with 1 in a sum whose bound fits the start
        # width, so every row is in it: the sum is q - sum of v * P
        r, bound = q, top
        for v, rec in hits:
            bound += abs(v) * rec[1]
            if rec[2] != 1 or bound >> (_START_BITS - 1):
                break
            r -= v * rec[0]
        else:
            return [r, bound, 0, False, w]
        query = [q, top, 0, False, w]
        while hits:
            scale = lcm(*(rec[2] for _, rec in hits))
            terms = [(scale, query)]
            terms += [(-(scale // rec[2]) * v, rec) for v, rec in hits]
            bound = sum(abs(c) * rec[1] for c, rec in terms)
            loose = bound >> (_START_BITS - 1) and [
                rec for _, rec in hits if not rec[3]]
            if not loose:
                return self._combine(terms, bound, 0)
            for rec in loose:
                self._tighten(rec)
        return query

    def _clear(self, rec: list, a: int, new: list, wide: dict) -> None:
        """The packed combination step: clear the entry a of the pivot row
        record rec in the lead column of the row ``new``, rewriting rec:
        in place if ``new`` leads with 1 and the result fits the start
        width.  If the result's bound does not fit the start width, rec is
        content-reduced first.  ``new`` is repacked once per width for
        all the rows it clears, into ``wide``."""
        lv = new[2]
        g = gcd(a, lv)
        bound = lv // g * rec[1] + abs(a) // g * new[1]
        if lv == 1 and not bound >> (_START_BITS - 1):
            # a bound that fits the start width, so both rows are in it
            rec[0] -= a * new[0]
            rec[1], rec[3] = bound, False
            return
        if bound >> (_START_BITS - 1) and not rec[3]:
            a //= self._tighten(rec)
            g = gcd(a, lv)
            bound = lv // g * rec[1] + abs(a) // g * new[1]
        w, n = _width_for(bound, _START_BITS), self._size
        if w not in wide:
            wide[w] = [_pack_row(*_entries(new[0], new[4], n), w, n),
                       *new[1:4], w]
        rec[:] = self._combine([(lv // g, rec), (-(a // g), wide[w])],
                               bound, lv // g * rec[2])

    def _combine(self, terms, bound: int, lv: int) -> list:
        """The record of the sum of c * row over terms (c, record), bound a
        bound on its entries and lv its lead value.  The sum is made in
        the width its bound needs, repacking only the terms of another
        width; a sum wider than the start width is tightened at once."""
        w = _width_for(bound, _START_BITS)
        n = self._size
        r = 0
        for c, (row, _, _, _, rw) in terms:
            r += c * (row if rw == w else
                      _pack_row(*_entries(row, rw, n), w, n))
        out = [r, bound, lv, False, w]
        if w != _START_BITS and r:
            self._tighten(out)
        return out

    def _tighten(self, rec: list) -> int:
        """``_exact`` on the decoded entries of the record's row."""
        return self._exact(rec, *_entries(rec[0], rec[4], self._size))

    def _exact(self, rec: list, cols, vals) -> int:
        """The one rule that makes a packed record exact, given its row's
        entries: divide by the content, signed for a positive lead, bound
        by the true maximum, repack only if that needs another width, and
        read the lead value off the entries; returns the signed content."""
        r, _, _, _, w = rec
        g = 1 if vals[0] in (1, -1) else gcd(*vals)
        if vals[0] < 0:
            g = -g
        top = max(max(vals), -min(vals)) // abs(g)
        w2 = _width_for(top, _START_BITS)
        if w2 != w:
            r = _pack_row(cols, [v // g for v in vals], w2, self._size)
        elif g != 1:
            r //= g
        rec[:] = r, top, vals[0] // g, True, w2
        return g

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
    column of the dual of c's word.  tau reverses x c y and swaps the
    letters, so it maps c to the complement of c's k-2 bits reversed.
    The list of complemented reversals of n+1 bits is that of n bits,
    shifted, twice: first with a low 1 (top bit 0), then with a low 0."""
    tau = [0]
    for _ in range(k - 2):
        tau = [t << 1 | 1 for t in tau] + [t << 1 for t in tau]
    return tau


def plus_dimension(span: Echelon, tau: list[int]) -> int:
    """dim of the +1 eigenspace of tau on the span of a reduced echelon,
    tau an involutive column permutation that maps the span to itself.
    Each x in the span is the sum of (x[c_i] / l_i) P_i over the pivot
    rows P_i leading in c_i with value l_i, so the trace of tau is the
    sum of P_i[tau c_i] / l_i, one slot of each packed row (an int
    where l_i is 1, as it is for every derivation pivot, else a
    ``Fraction``, the one place the package makes one, so ``fractions``
    is imported there), and the dimension is (rank + trace) / 2;
    anything but an integer in [0, rank] means tau does not preserve the
    span (``NotTriangular``)."""
    trace = 0
    for lead, (r, _, lv, _, w) in span._rows.items():
        t = tau[lead]
        if span._holders.get(t, 0) >> lead & 1:
            v = _slot(r, w, t)
            if lv == 1:
                trace += v
            else:
                from fractions import Fraction
                trace += Fraction(v, lv)
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
