"""Executable form of the identity, membership and rank-table claims.

* ``verify_theorem_i`` / ``verify_theorem_ii`` build both sides of the
  two truncated series identities relating (1 - tau) images to the
  exponential of the derivations, and report the residual, which must
  vanish identically in every weight up to the cutoff.
* ``check_corollary`` tests exact span membership of specific duality
  elements in the derivation span of their weight.
* ``conjecture_scan`` sweeps all (m, n) class sums up to a weight and
  tests the same membership.  Both build each span they read with
  ``family_matrix`` and keep none across calls; the scan lets a
  weight's span go when it moves to the next weight.
* ``build_table`` computes the seven-row table of relation-span ranks
  per weight, with budgeted cells marked skipped rather than guessed;
  each cell builds its spans afresh, so its budget bounds its elimination.
  Rows 1-4 are counted, not eliminated, by one rule (``duality_rank``):
  the (1 - tau) image of the sum of a class C is 1_C - 1_{tau C}, so
  the transposed system has one column e(c) - e(tau c) per word c and
  class list, the lists (``relations.column_classes``) built once per
  weight.  Under one list (rows 1, 2 and 4, whose classes are the
  (depth, height) classes, the (depth, k1) classes and the single
  words) it is the incidence matrix of a graph on the classes, of rank
  the size of a spanning forest.  Row 3, under both lists, is the size
  of row 2's forest plus the rank of the cycle labels: for each edge off
  the forest, its column under the (depth, height) list less the
  difference of its ends' potentials, the sums of those columns along
  the forest (at weight 10, 28 + 3: 4 distinct nonzero labels from 92
  such edges, in a space of dimension row 1 = 10).  ``mzv rank
  --family duality``, ``duality-ht``, ``duality-k1`` and their unions
  eliminate the class-sum rows themselves, the independent path.
  Rows 5-7 come from the reduced echelon of the derivation rows, the
  representation of S that ``mzv rank``, ``mzv member`` and the
  membership sweeps read: row 5 = dim S is its rank.  S is tau-stable
  (tau partial_n tau = -partial_n, Ihara-Kaneko-Zagier, Compositio Math.
  142 (2006)), so dim S+ = (rank + trace of tau on S) / 2, the trace
  read off the echelon (``plus_dimension``).  D is all of V-, so
  row 6 = row 4 + dim S+ and row 7 = dim S- = row 5 - dim S+.

Every span (``family_matrix``) is built from column-space rows, one
generator per family kind in ``relations._ROW_GENERATORS``, the one
family registry (``_FAMILY_GENERATORS`` is the same dict); the
polynomial generators are the API and the tests' oracle, and tau acts
on columns as a permutation (``tau_columns``).
"""

from __future__ import annotations

import csv
import io
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache, partial
from time import monotonic

from .linalg import (BudgetExceeded, Echelon, RelationMatrix,
                     plus_dimension, tau_columns)
from .operators import duality, theta  # noqa: F401
from .poly import Poly, accumulate
# the per-layer benchmark trace patches ``theta`` above and these
# polynomial generators here, though no span reads them; it reads span
# construction by wrapping the row registry's entries in place, under
# the name ``_FAMILY_GENERATORS``
from .relations import (_ROW_GENERATORS, FamilySpec,  # noqa: F401
                        column_classes, derivation_all, duality_all,
                        duality_ht_sum, duality_k1_sum)
from .series import GradedSeries, geom, theta_minus_one, theta_shift
from .words import X, Y, Word, basis


def x_power(m: int) -> Word:
    return Word(m, 0)


def xm_y(m: int) -> Word:
    """The word x^m y."""
    return Word(m + 1, 1)


# -- spans ---------------------------------------------------------------

_FAMILY_GENERATORS = _ROW_GENERATORS


def family_matrix(spec: str, k: int) -> RelationMatrix:
    """Relation matrix at weight k of a family or union, given as
    ``FamilySpec`` text ("derivation", "union:duality,derivation", ...):
    each kind's rows come from the column-space row registry."""
    rows = []
    for kind in FamilySpec.parse(spec).kinds:
        rows += _ROW_GENERATORS[kind](k)
    return RelationMatrix(k, rows)


# -- verdicts -----------------------------------------------------------


@dataclass
class VerdictReport:
    """Outcome of one claim check, with falsification evidence if any."""

    claim: str
    params: dict[str, int | str]
    cutoff: int | None
    verdict: bool
    residual: Poly | None = None
    elapsed_ms: float = 0.0

    def to_json(self) -> dict:
        terms = self.residual.sorted_terms() if self.residual else []
        return {
            "claim": self.claim,
            "params": dict(self.params),
            "cutoff": self.cutoff,
            "verdict": self.verdict,
            "residual_terms": [{"word": str(w), "coeff": str(c)}
                               for w, c in terms],
            "elapsed_ms": self.elapsed_ms,
        }


def membership(claim: str, params: dict[str, int | str], elem: Poly,
               span, deadline=None) -> VerdictReport:
    """Timed check that elem lies in ``span()``; a nonfalsified element
    carries no witness.  The zero element (the image of a self-dual
    input) lies in every span, so ``span`` is not called for it."""
    start = monotonic()
    verdict = elem.is_zero() or span().in_span(elem, deadline)
    return VerdictReport(claim, params, None, verdict,
                         None if verdict else elem,
                         (monotonic() - start) * 1e3)


def theorem_i_sides(m: int, cutoff: int) -> tuple[GradedSeries, GradedSeries]:
    """Both sides of the first identity, truncated at the cutoff."""
    gx = geom(Poly.from_word(X), cutoff)
    y_s = GradedSeries.from_word(Y, cutoff)
    xmy = GradedSeries.from_word(xm_y(m), cutoff)

    lhs = (xmy * gx * y_s).map_parts(duality)

    rhs = theta_minus_one(xmy * (GradedSeries.one(cutoff) - gx * y_s))
    x_gy = GradedSeries.from_word(X, cutoff) * geom(Poly.from_word(Y), cutoff)
    xy_s = GradedSeries.from_word(xm_y(1), cutoff)
    # the term of i = m - k is theta_i of x^k y + (x_gy^k - x_gy^(k-1)) xy:
    # one running power of x_gy, raised as k goes up
    lower = GradedSeries.one(cutoff)
    for k in range(1, m):
        power = lower * x_gy
        arg = GradedSeries.from_word(xm_y(k), cutoff) + (power - lower) * xy_s
        rhs = rhs - theta_shift(m - k, arg)
        lower = power
    return lhs, rhs


def theorem_ii_sides(n: int, cutoff: int) -> tuple[GradedSeries, GradedSeries]:
    """Both sides of the second identity, truncated at the cutoff."""
    gx = geom(Poly.from_word(X), cutoff)
    y_s = GradedSeries.from_word(Y, cutoff)
    one = GradedSeries.one(cutoff)

    lhs = (GradedSeries.from_word(xm_y(1), cutoff)
           * (gx * y_s) ** (n - 1)).map_parts(duality)

    def rhs_arg(l: int) -> GradedSeries:
        # (x + x^2 + ... + x^(n-l-1)) y (1 - gx y)
        xs = Poly.from_words(x_power(i) for i in range(1, n - l))
        return GradedSeries.from_poly(xs, cutoff) * y_s * (one - gx * y_s)

    rhs = theta_minus_one(rhs_arg(0))
    for l in range(1, n - 1):
        rhs = rhs - theta_shift(l, rhs_arg(l))
    return lhs, rhs


def _residual_report(claim: str, params: dict[str, int], cutoff: int,
                     lhs: GradedSeries, rhs: GradedSeries,
                     start: float) -> VerdictReport:
    residual = (lhs - rhs).poly
    return VerdictReport(claim, params, cutoff, residual.is_zero(),
                         residual, (monotonic() - start) * 1e3)


def _check_identity(part: str, name: str, value: int, cutoff: int,
                    min_cutoff: int, sides) -> VerdictReport:
    """Timed residual of ``sides(value, cutoff)`` for identity (part)."""
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    if cutoff < min_cutoff:
        raise ValueError(f"cutoff {cutoff} too small for {name}={value}")
    start = monotonic()
    lhs, rhs = sides(value, cutoff)
    return _residual_report(f"theorem-{part}", {name: value}, cutoff,
                            lhs, rhs, start)


def verify_theorem_i(m: int, cutoff: int) -> VerdictReport:
    """Check the first identity for one m, exactly, up to the cutoff."""
    return _check_identity("i", "m", m, cutoff, m + 2, theorem_i_sides)


def verify_theorem_ii(n: int, cutoff: int) -> VerdictReport:
    """Check the second identity for one n, exactly, up to the cutoff."""
    return _check_identity("ii", "n", n, cutoff, n + 1, theorem_ii_sides)


def corollary_i_element(s: int, t: int) -> Poly:
    """(1 - tau) of x^s y x^t y, the one depth-2 word of its class."""
    return conjecture_element(s + 1, 2, s + t + 2)


def corollary_ii_element(s: int, t: int) -> Poly:
    """(1 - tau) of the class sum with leading exponent 2 and depth t."""
    return conjecture_element(2, t, s)


def check_corollary(kind: str, s: int, t: int) -> VerdictReport:
    """Membership of a corollary element in the derivation span."""
    if kind == "i":
        if s < 1 or t < 0:
            raise ValueError("need s >= 1 and t >= 0")
        elem, weight = corollary_i_element(s, t), s + t + 2
    elif kind == "ii":
        if not s > t >= 1:
            raise ValueError("need s > t >= 1")
        elem, weight = corollary_ii_element(s, t), s
    else:
        raise ValueError(f"unknown corollary part {kind!r}")
    return membership(f"corollary-{kind}", {"s": s, "t": t}, elem,
                      partial(family_matrix, "derivation", weight))


def conjecture_element(m: int, n: int, k: int) -> Poly:
    """Weight-k component of the conjectured family: (1 - tau) of the
    sum of weight-k depth-n words with leading exponent m."""
    return duality(Poly.from_words(
        w for w in basis(k) if w.depth == n and w.k1() == m))


def conjecture_scan(max_weight: int, cell_budget: float | None = None
                    ) -> tuple[list[VerdictReport], list[int]]:
    """All membership verdicts for m, n >= 3 up to max_weight.

    Returns the verdict list and the weights skipped over budget: each
    weight is budgeted like a table cell, and one that runs over gives
    no verdict.  Class sums whose duality image is zero are omitted
    (trivially in every span).
    """
    if max_weight < 6:
        raise ValueError(f"max weight must be >= 6, got {max_weight}")
    cases = {k: _budgeted(lambda d: _conjecture_cases(k, d), cell_budget)
             for k in range(5, max_weight + 1)}
    return ([r for rs in cases.values() if rs for r in rs],
            [k for k, rs in cases.items() if rs is None])


def _conjecture_cases(k: int, deadline) -> list[VerdictReport]:
    """The verdicts of one weight of the scan, all under one deadline.
    The weight's span is built at its first nonzero element, so that
    verdict's time includes the build, and it is let go on return."""
    span = cache(partial(family_matrix, "derivation", k))
    return [membership("conjecture", {"m": m, "n": n, "weight": k}, elem,
                       span, deadline)
            for m in range(3, k - 1) for n in range(3, k - m + 2)
            if not (elem := conjecture_element(m, n, k)).is_zero()]


# -- the rank table -----------------------------------------------------

ROW_LABELS = {
    1: "Duality (fixed wt, dep, ht)",
    2: "Duality (fixed wt, dep, k1)",
    3: "Union of 1 and 2",
    4: "Duality",
    5: "Derivation",
    6: "Union of 4 and 5 (Ohno)",
    7: "Intersection of 4 and 5",
}
# span inclusions between rows: (smaller, larger)
_INCLUSIONS = ((1, 3), (2, 3), (3, 4), (4, 6), (5, 6))


@dataclass
class TableReport:
    """Ranks per weight and table row; None marks a skipped cell."""

    max_weight: int
    values: dict[int, dict[int, int | None]]
    elapsed_ms: float = 0.0

    def cell(self, row: int, weight: int) -> int | None:
        return self.values[weight][row]

    def skipped_cells(self) -> list[tuple[int, int]]:
        return [(row, wt) for wt, col in self.values.items()
                for row, v in col.items() if v is None]

    def consistency_violations(self) -> list[str]:
        """Internal inequalities that must hold between computed cells."""
        bad = []
        for wt, r in self.values.items():
            bad += [f"wt {wt}: row{a} > row{b}" for a, b in _INCLUSIONS
                    if None not in (r[a], r[b]) and r[a] > r[b]]
            if None not in (r[4], r[5], r[6], r[7]):
                if r[7] != r[4] + r[5] - r[6]:
                    bad.append(f"wt {wt}: row7 != row4+row5-row6")
                if r[7] < 0:
                    bad.append(f"wt {wt}: row7 < 0")
        return bad

    def to_json(self) -> dict:
        weights = sorted(self.values)
        rows = [{"id": i, "label": ROW_LABELS[i],
                 "values": {str(wt): self.values[wt][i] for wt in weights}}
                for i in range(1, 8)]
        return {"max_weight": self.max_weight, "rows": rows,
                "elapsed_ms": self.elapsed_ms}

    def _grid(self, corner: str, blank: str) -> list[list[str]]:
        """Header row, then each row's label and cells (blank if skipped)."""
        weights = sorted(self.values)
        return [[corner] + [str(wt) for wt in weights]] + [
            [f"{i}. {ROW_LABELS[i]}"]
            + [blank if self.values[wt][i] is None else str(self.values[wt][i])
               for wt in weights] for i in range(1, 8)]

    def to_csv(self) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerows(self._grid("row", ""))
        return buf.getvalue()

    def to_markdown(self) -> str:
        head, *rows = ["| " + " | ".join(r) + " |"
                       for r in self._grid("wt", " ")]
        sep = "|----" * (len(self.values) + 1) + "|"
        return "\n".join([head, sep] + rows)


def _budgeted(fn, cell_budget: float | None):
    deadline = monotonic() + cell_budget if cell_budget else None
    try:
        return fn(deadline)
    except BudgetExceeded:
        return None


def duality_rank(tau: list[int], *classes, deadline=None) -> int:
    """Rows 1-4, counted: the rank of the (1 - tau) sums of the classes of
    columns under each class list, classes[c] the class of column c
    (single columns if no list is given).  The row of a class C is
    1_C - 1_{tau C}, so column c of the transposed system is the sum over
    the lists of e(c) - e(tau c), and row rank is column rank.  Columns c
    and tau c give the same column up to sign, and a self-dual column
    gives zero, so only the columns c < tau c count.

    Under the last list each such column is an edge of a graph on its
    classes, from the class of c to that of tau c, and its part under the
    other lists is the edge's label.  The edges of a spanning forest (a
    union-find that joins the smaller tree to the larger) have independent
    parts under the last list, and any other edge's part is the signed sum
    of theirs along the forest path between its ends.  Each class gets a
    potential, shifted as trees join so that each forest edge's label is
    the difference of its ends' potentials; the cycle label of any other
    edge is its label less that difference, and the rank is the forest's
    size plus the rank of the cycle labels.  Under one list every label is
    zero; under two (row 3) the distinct nonzero cycle labels are
    eliminated (``Echelon``).  They lie in the span of the first list's
    edges, of dimension row 1: at weight 10, row 3 = 28 + 3, from 4
    distinct cycle labels of the 92 edges off the forest, in dimension
    10."""
    *others, last = classes or [range(len(tau))]
    trees: dict = {}      # class -> the classes of its tree, one list each
    potential: dict = {}  # class -> its potential; zero if absent
    labels: set = set()
    forest = 0
    for c, t in enumerate(tau):
        if c >= t:
            continue
        u, v = last[c], last[t]
        tu = trees.get(u) or trees.setdefault(u, [u])
        tv = trees.get(v) or trees.setdefault(v, [v])
        # the edge's cycle label: its label less the difference of its
        # ends' potentials
        label: dict = {}
        for i, cls in enumerate(others):
            accumulate(label, (((i, cls[c]), 1), ((i, cls[t]), -1)))
        if u in potential:
            accumulate(label, potential[u].items(), -1)
        if v in potential:
            accumulate(label, potential[v].items())
        if tu is tv:
            if label:
                labels.add(frozenset(label.items()))
            continue
        # a forest edge: shift the smaller tree's potentials so that its
        # cycle label is zero
        forest += 1
        sign = 1
        if len(tu) > len(tv):
            tu, tv, sign = tv, tu, -1
        for x in tu:
            trees[x] = tv
            if label:
                accumulate(potential.setdefault(x, {}), label.items(), sign)
        tv += tu
    index: dict = {}
    rows = [sorted((index.setdefault(key, len(index)), v) for key, v in label)
            for label in labels]
    ech = Echelon()
    for row in sorted(rows, reverse=True):
        ech.add([c for c, _ in row], [v for _, v in row], deadline)
    return forest + ech.rank


def table_column(k: int, cell_budget: float | None = None
                 ) -> dict[int, int | None]:
    """All seven row values at one weight (None where over budget); rows
    1-4 counted from the (depth, height) and (depth, k1) classes of the
    columns, built once, and rows 5-7 from the derivation echelon, as the
    module docstring says."""
    tau = tau_columns(k)
    ht, k1 = column_classes(k)
    col: dict[int, int | None] = {}
    col[1] = duality_rank(tau, ht)
    col[2] = duality_rank(tau, k1)
    col[3] = _budgeted(lambda d: duality_rank(tau, ht, k1, deadline=d),
                       cell_budget)
    col[4] = duality_rank(tau)
    span = _budgeted(family_matrix("derivation", k).echelon, cell_budget)
    col[5] = col[6] = col[7] = None
    if span is not None:
        dim_plus = plus_dimension(span, tau)
        col[5] = span.rank
        col[6], col[7] = col[4] + dim_plus, col[5] - dim_plus
    return col


def build_table(max_weight: int, cell_budget: float | None = None,
                threads: int = 1) -> TableReport:
    """Fill the seven-row table for weights 3..max_weight."""
    if max_weight < 3:
        raise ValueError(f"max weight must be >= 3, got {max_weight}")
    start = monotonic()
    weights = list(range(3, max_weight + 1))
    pool = nullcontext()
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=threads)
    with pool as executor:
        values = dict(zip(weights, (executor.map if executor else map)(
            table_column, weights, [cell_budget] * len(weights))))
    return TableReport(max_weight, values, (monotonic() - start) * 1e3)
