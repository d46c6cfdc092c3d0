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
The widening rule: when a combination's bound could reach the slot
limit, its rows are first divided by their content (their true maximum
is read back); if the bound still does not fit, the combination is made
at double width and its content-reduced form stored back if it fits.
Only a content-reduced row that really needs more bits widens the whole
echelon (W doubles), and the echelon narrows back to the start width
once every row fits it again.  Nothing is ever truncated.  W starts at
16.  Slots are unpacked by ``int.to_bytes`` into an ``array``, or slot by
slot beyond 64 bits.

Rows are added by descending leading column (a stable sort, so ties
keep their generation order).  The echelon is kept reduced as rows
arrive: the pivot row P_c leads in its column c with a positive value
l_c and is zero in every other pivot column.  A reduced echelon of a
span is unique up to the scale of its rows, so the pivots do not depend
on the row order.  The remainder of a row q is L*q - sum of
(L/l_c) * q_c * P_c over q's pivot columns c, L the lcm of their leads:
zero in every pivot column, and zero exactly when q lies in the span.
A new row's nonzero remainder is made primitive and becomes a pivot,
and its lead column is cleared from each earlier pivot row that holds
it, one packed combination (``Echelon._clear``) each; an index from
each column to the pivot rows that may hold it names those rows.

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
before, is no longer called; it stays, checked against a dense
computation, because the benchmark trace patches it.

The deadline is checked once per row added and once per read, before
anything changes.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from time import monotonic

from .poly import Poly, accumulate
from .words import Word

Row = tuple[list[int], list[int]]

# the slot width, in bits, that a new echelon starts at
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


# -- packed rows ---------------------------------------------------------

@lru_cache(maxsize=None)
def _bias(w: int, n: int) -> int:
    """2^(w-1) in each of n w-bit slots."""
    return ((1 << w * n) - 1) // ((1 << w) - 1) << (w - 1)


def _twos(r: int, w: int, n: int) -> int:
    """The nonnegative int whose w-bit slots are r's entries in two's
    complement: adding the bias makes every slot nonnegative, and the
    xor takes it off again without a borrow."""
    bias = _bias(w, n)
    return (r + bias) ^ bias


def _from_bytes(d: int, w: int):
    """The signed w-bit slots of a nonnegative int, from its bytes."""
    b = w // 8
    data = d.to_bytes(-(-d.bit_length() // w) * b, "little")
    code = _CODES.get(w)
    if code:
        return array(code, data)
    return [int.from_bytes(data[i:i + b], "little", signed=True)
            for i in range(0, len(data), b)]


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


def _rewidth(r: int, w: int, w2: int, n: int) -> int:
    """The packed row r of n w-bit slots in w2-bit slots, which must hold
    its entries: each two's-complement slot keeps its low bytes and, if
    it widens, is sign-extended, all by strided byte slices."""
    b, b2 = w // 8, w2 // 8
    data = _twos(r, w, n).to_bytes(b * n, "little")
    out = bytearray(b2 * n)
    for j in range(min(b, b2)):
        out[j::b2] = data[j::b]
    if b2 > b:
        # 0xff for a slot whose top byte has its sign bit set, else 0
        sign = data[b - 1::b].translate(bytes(128) + b"\xff" * 128)
        for j in range(b, b2):
            out[j::b2] = sign
    bias = _bias(w2, n)
    return (int.from_bytes(out, "little") ^ bias) - bias


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
    """The nonzero entries of a packed row of n w-bit slots.  Or-folding
    each slot into its lowest bit flags the nonzero slots, one byte each
    after a strided slice, so only those are read."""
    d = _twos(r, w, n)
    flags = d
    shift = w >> 1
    while shift:
        flags |= flags >> shift
        shift >>= 1
    flags &= _bias(w, n) >> (w - 1)
    flags = flags.to_bytes(n * w // 8, "little")[::w // 8]
    s = _from_bytes(d, w)
    cols = []
    c = flags.find(1)
    while c >= 0:
        cols.append(c)
        c = flags.find(1, c + 1)
    return cols, [s[c] for c in cols]


def row_of_packed(r: int, w: int, n: int) -> Row:
    """The sparse row of a packed row of n w-bit slots, divided by its
    content."""
    cols, vals = _entries(r, w, n)
    return cols, _divide_content(vals)


class Echelon:
    """Reduced echelon form, kept reduced as rows are added: each pivot
    row leads positive in its own column and is zero in every other pivot
    column, and the pivot rows span the span.  The rows are stored
    packed; ``pivots`` decodes them."""

    __slots__ = ("_width", "_size", "_rows", "_big", "_holders", "_read",
                 "_stale")

    def __init__(self):
        self._width = _START_BITS
        self._size = 1         # slots: a power of two above every column
        # lead -> [packed row, bound on its entries, lead value, exact],
        # exact when the row is primitive and its bound its true maximum
        self._rows: dict[int, list] = {}
        self._big = 0  # rows whose bound does not fit the start width
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
            w, n, rows, read = self._width, self._size, self._rows, self._read
            for p in self._stale:
                read[p] = row_of_packed(rows[p][0], w, n)
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
        remainder, made primitive and positive-led, becomes the last
        pivot inserted, and its lead column is cleared from the earlier
        pivot rows that hold it."""
        _check(deadline)
        if not cols:
            return False
        if cols[-1] >= self._size:
            self._size = 1 << cols[-1].bit_length()
        top = max(map(abs, vals))
        if top >> (self._width - 1):
            g = gcd(*vals)
            vals = [v // g for v in vals]
            top //= g
            self._widen(top)
        rows = self._rows
        hits = [(v, c) for c, v in zip(cols, vals) if c in rows]
        if hits:
            r = self._remainder(cols, vals, top, hits)
            if not r:
                return False
            cols, vals = _entries(r, self._width, self._size)
        else:
            r = _pack_row(cols, vals, self._width, self._size)
        g = gcd(*vals) if vals[0] > 0 else -gcd(*vals)
        if g != 1:
            r //= g
            vals = [v // g for v in vals]
        lead = cols[0]
        new = rows[lead] = [0, 0, 0, False]
        self._store(new, r, max(max(vals), -min(vals)), vals[0], True)
        holders = self._holders
        bit = 1 << lead
        held = holders.get(lead, 0)
        cleared = 0
        while held:
            low = held & -held
            held ^= low
            p = low.bit_length() - 1
            a = _slot(rows[p][0], self._width, lead)
            if a:
                self._clear(p, a, new)
                cleared |= low
                self._stale[p] = None
        for c in cols:
            holders[c] = holders.get(c, 0) | cleared | bit
        holders[lead] = bit
        self._stale[lead] = None
        if not self._big and self._width != _START_BITS:
            self._repack(_START_BITS)
        return True

    def _remainder(self, cols, vals, top, hits) -> int:
        """The packed remainder of the row, hits its (value, pivot column)
        pairs.  If its bound does not fit the slots, the pivot rows it
        combines are content-reduced and it is computed again, at double
        width if it still does not fit."""
        rows = self._rows
        for tightened in (False, True):
            w = self._width
            recs = [(v, rows[c]) for v, c in hits]
            scale = lcm(*(rec[2] for _, rec in recs))
            terms = [(scale, _pack_row(cols, vals, w, self._size), top)]
            terms += [(-(scale // rec[2]) * v, rec[0], rec[1])
                      for v, rec in recs]
            r = bound = 0
            for c, row, b in terms:
                r += c * row
                bound += abs(c) * b
            if not bound >> (w - 1):
                return r
            if not tightened:
                for _, rec in recs:
                    if not rec[3]:
                        self._tighten(rec)
        return self._wide(terms, bound)[0]

    def _clear(self, p: int, a: int, new: list) -> None:
        """The packed combination step: clear the entry a of pivot row p
        in the lead column of the row ``new``.  If the result's bound does
        not fit the start width, row p is content-reduced first, and a
        result that still does not is made exact, so that the echelon
        knows when every row fits the start width again."""
        rec = self._rows[p]
        lv = new[2]
        g = gcd(a, lv)
        bound = lv // g * rec[1] + abs(a) // g * new[1]
        if bound >> (_START_BITS - 1) and not rec[3]:
            a //= self._tighten(rec)
            g = gcd(a, lv)
            bound = lv // g * rec[1] + abs(a) // g * new[1]
        if bound >> (self._width - 1):
            r, bound = self._wide([(lv // g, rec[0], rec[1]),
                                   (-(a // g), new[0], new[1])], bound)
            self._store(rec, r, bound, _slot(r, self._width, p), True)
            return
        self._store(rec, lv // g * rec[0] - a // g * new[0], bound,
                    lv // g * rec[2], False)
        if bound >> (_START_BITS - 1):
            self._tighten(rec)

    def _store(self, rec: list, r: int, bound: int, lv: int,
               exact: bool) -> None:
        """Set a row record, counting the rows too big for the start
        width."""
        limit = _START_BITS - 1
        self._big += (bound >> limit != 0) - (rec[1] >> limit != 0)
        rec[:] = r, bound, lv, exact

    def _wide(self, terms, bound: int) -> tuple[int, int]:
        """The sum of c * row over terms (c, row, bound on row), whose
        bound does not fit the slots, divided by its content, with its
        true maximum.  It is made at a width that fits the bound and
        stored back at the echelon's width, which widens only if the
        content-reduced sum needs it."""
        w, n = self._width, self._size
        wide = _width_for(bound, w)
        r = 0
        for c, row, _ in terms:
            r += c * _rewidth(row, w, wide, n)
        if not r:
            return 0, 0
        _, vals = _entries(r, wide, n)
        g = gcd(*vals)
        top = max(max(vals), -min(vals)) // g
        self._widen(top)
        return _rewidth(r // g, wide, self._width, n), top

    def _tighten(self, rec: list) -> int:
        """Divide a stored row by its content, which its decoded form does
        not see, and bound it by its true maximum; returns the content."""
        _, vals = _entries(rec[0], self._width, self._size)
        g = gcd(*vals)
        self._store(rec, rec[0] // g, max(max(vals), -min(vals)) // g,
                    rec[2] // g, True)
        return g

    def _widen(self, top: int) -> None:
        """Repack every row in slots wide enough for entries up to top."""
        wide = _width_for(top, self._width)
        if wide != self._width:
            self._repack(wide)

    def _repack(self, w: int) -> None:
        """Repack every row in w-bit slots, which must hold its entries."""
        n = self._size
        for rec in self._rows.values():
            rec[0] = _rewidth(rec[0], self._width, w, n)
        self._width = w

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
    sum of P_i[tau c_i] / l_i, one slot of each packed row, and the
    dimension is (rank + trace) / 2; anything but an integer in
    [0, rank] means tau does not preserve the span (``NotTriangular``)."""
    trace = Fraction(0)
    w = span._width
    for lead, (r, _, lv, _) in span._rows.items():
        t = tau[lead]
        if span._holders.get(t, 0) >> lead & 1:
            trace += Fraction(_slot(r, w, t), lv)
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
