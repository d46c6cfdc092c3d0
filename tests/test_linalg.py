import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import mzv.linalg as linalg
from mzv.cli import MAX_WEIGHT
from mzv.linalg import (BudgetExceeded, Echelon, NotTriangular,
                        RelationMatrix, column_of_word, combine_primitive,
                        dim_intersection, in_span, plus_dimension,
                        poly_to_row, rank, tau_columns)
from mzv.operators import duality, theta
from mzv.poly import Poly, accumulate
from mzv.relations import (derivation_all, duality_all, duality_ht_sum,
                           duality_k1_sum)
from mzv.verify import (_derivation_span, conjecture_scan, family_matrix,
                        table_column)
from mzv.words import basis, word_from_letters

from oracles import (dense_combine, dense_rank, dense_rows_of_polys,
                     dense_rref, self_dual_count, tau_str)
from test_acceptance import GOLDEN

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    from queries import known_answer_queries
finally:
    sys.path.remove(PERFBENCH)


def P(s: str) -> Poly:
    return Poly.from_word(word_from_letters(s))


def test_column_indexing_roundtrip():
    for k in range(2, 10):
        for i, w in enumerate(basis(k)):
            assert column_of_word(w, k) == i


def test_column_of_word_rejects():
    with pytest.raises(ValueError):
        column_of_word(word_from_letters("xxy"), 4)  # weight mismatch
    with pytest.raises(ValueError):
        column_of_word(word_from_letters("yxy"), 3)  # inadmissible


BITS_TO_LETTERS = str.maketrans("01", "xy")
LETTERS_TO_BITS = str.maketrans("xy", "01")


@pytest.mark.parametrize("k", range(3, MAX_WEIGHT + 1))
def test_tau_columns_against_string_oracle(k):
    # column c is the word x<c in binary, x = 0 and y = 1>y
    def word(c):
        return "x" + format(c, f"0{k - 2}b").translate(BITS_TO_LETTERS) + "y"

    def column(s):
        return int(s[1:-1].translate(LETTERS_TO_BITS), 2)

    t = tau_columns(k)
    assert all(t[t[c]] == c for c in range(len(t)))
    assert sum(t[c] == c for c in range(len(t))) == self_dual_count(k)
    assert t == [column(tau_str(word(c))) for c in range(len(t))]


def test_poly_to_row_clears_denominators():
    p = P("xxy").scale(Fraction(1, 6)) - P("xyy").scale(Fraction(1, 4))
    cols, vals = poly_to_row(p, 3)
    assert cols == [0, 1]
    assert vals == [2, -3]  # times 12, already primitive


def test_poly_to_row_content_reduced():
    p = P("xxy").scale(4) + P("xyy").scale(6)
    assert poly_to_row(p, 3) == ([0, 1], [2, 3])


def test_rank_examples():
    assert RelationMatrix.from_polys(7, duality_all(7)).rank() == 16
    assert RelationMatrix.from_polys(8, derivation_all(8)).rank() == 44
    assert RelationMatrix(5, []).rank() == 0


def test_in_span_examples():
    der3 = RelationMatrix.from_polys(3, derivation_all(3))
    # poly_to_row names a word of another weight, or an inadmissible one,
    # before the span is built
    with pytest.raises(ValueError, match="word xxxy does not have weight 3"):
        der3.in_span(P("xxy") + P("xxxy"))
    with pytest.raises(ValueError, match="word yxy is not admissible"):
        der3.in_span(P("xxy") + P("yxy"))
    assert der3._echelon is None
    assert der3.in_span(Poly.zero())
    assert der3.in_span(duality(P("xyy")))      # equals partial_1(xy)
    assert not der3.in_span(P("xxy"))


def test_in_span_with_fractional_coefficients():
    der4 = RelationMatrix.from_polys(4, derivation_all(4))
    rel = theta(2, P("xy"))  # (partial_2 + partial_1^2)(xy) / 2
    assert der4.in_span(rel)


def test_dim_intersection_examples():
    a8 = RelationMatrix.from_polys(8, duality_all(8))
    b8 = RelationMatrix.from_polys(8, derivation_all(8))
    assert dim_intersection(a8, b8) == 26
    a3 = RelationMatrix.from_polys(3, duality_all(3))
    b3 = RelationMatrix.from_polys(3, derivation_all(3))
    assert dim_intersection(a3, b3) == 1
    assert dim_intersection(a8, a8) == a8.rank()


def test_weight_mismatch_rejected():
    a = RelationMatrix.from_polys(3, duality_all(3))
    b = RelationMatrix.from_polys(4, duality_all(4))
    with pytest.raises(ValueError):
        dim_intersection(a, b)


def test_rank_invariant_under_shuffle_and_scaling():
    rng = random.Random(2718)
    polys = derivation_all(7)
    base = RelationMatrix.from_polys(7, polys).rank()
    for _ in range(5):
        shuffled = polys[:]
        rng.shuffle(shuffled)
        scaled = [p.scale(rng.choice([1, -1, 2, Fraction(3, 5), 7]))
                  for p in shuffled]
        assert RelationMatrix.from_polys(7, scaled).rank() == base


# -- the reduced echelon against the dense oracle ----------------------------

def assert_reduced(ech: Echelon) -> None:
    """Every pivot row is primitive, leads positive in its own column and
    is zero in every other pivot column."""
    for p, (cols, vals) in ech.pivots.items():
        assert cols[0] == p and vals[0] > 0 and gcd(*vals) == 1
        assert not any(c in ech.pivots for c in cols[1:]), p


def rref_of(ech: Echelon, ncols: int) -> list[list[Fraction]]:
    """The pivot rows as dense rows scaled to lead 1, by leading column."""
    out = []
    for p in sorted(ech.pivots):
        cols, vals = ech.pivots[p]
        row = [Fraction(0)] * ncols
        for c, v in zip(cols, vals):
            row[c] = Fraction(v, vals[0])
        out.append(row)
    return out


def echelon_of(rows, check: bool = False) -> Echelon:
    """An echelon of the rows added in the given order, checked to be
    reduced after every row if asked."""
    ech = Echelon()
    for row in rows:
        ech.add(*row)
        if check:
            assert_reduced(ech)
    return ech


def test_rank_agrees_with_dense_oracle_to_weight_9():
    # the unique reduced echelon: the pivots are the dense RREF's rows
    for k in range(3, 10):
        for gen in (duality_all, derivation_all, duality_ht_sum,
                    duality_k1_sum):
            polys = gen(k)
            mat = RelationMatrix.from_polys(k, polys)
            rref = dense_rref(dense_rows_of_polys(polys, k))
            assert mat.rank() == len(rref), (gen.__name__, k)
            assert rref_of(mat.echelon(), 1 << (k - 2)) == rref


def test_rank_fuzz_random_matrices_vs_dense_oracle():
    rng = random.Random(97)
    for trial in range(30):
        k = rng.randint(4, 7)
        nrows = rng.randint(1, 12)
        polys = []
        for _ in range(nrows):
            p = Poly.zero()
            for _ in range(rng.randint(1, 6)):
                w = rng.choice(basis(k))
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                p = p + Poly.from_word(w, c)
            polys.append(p)
        mat = RelationMatrix.from_polys(k, polys)
        rref = dense_rref(dense_rows_of_polys(polys, k))
        assert mat.rank() == len(rref), (trial, k)
        ech = echelon_of(mat.rows, check=True)
        assert rref_of(ech, 1 << (k - 2)) == rref, (trial, k)
        assert ech.pivots == mat.echelon().pivots
def test_union_rank_subadditive_and_intersection_nonneg():
    for k in range(3, 8):
        a = RelationMatrix.from_polys(k, duality_ht_sum(k))
        b = RelationMatrix.from_polys(k, duality_k1_sum(k))
        ru = RelationMatrix(k, a.rows + b.rows).rank()
        assert ru <= a.rank() + b.rank()
        assert max(a.rank(), b.rank()) <= ru
        assert dim_intersection(a, b) >= 0


def test_module_level_helpers():
    m = RelationMatrix.from_polys(3, duality_all(3))
    assert rank(m) == 1
    assert in_span(duality(P("xxy")), m)


def test_echelon_incremental_membership():
    ech = Echelon()
    assert ech.rank == 0
    cols, vals = poly_to_row(duality(P("xxy")), 3)
    assert ech.add(list(cols), list(vals))
    assert not ech.add(*poly_to_row(duality(P("xyy")), 3))
    assert ech.rank == 1
    assert ech.contains(*poly_to_row(duality(P("xxy")).scale(5), 3))


def test_budget_exceeded():
    mat = RelationMatrix.from_polys(9, derivation_all(9))
    with pytest.raises(BudgetExceeded):
        mat.rank(deadline=0.0)  # deadline already passed


def test_zero_polys_dropped_from_rows():
    mat = RelationMatrix.from_polys(4, duality_all(4))
    assert len(mat.rows) == 2  # two self-dual words give zero rows
    assert mat.rank() == 1


def test_combine_primitive_matches_dense_oracle():
    # the sparse row kernel against ca*A + cb*B computed on dense rows,
    # with coefficients well past 64 bits
    rng = random.Random(31)
    for _ in range(500):
        na, nb = rng.randint(0, 10), rng.randint(1, 10)
        scale = rng.choice([1, 5, 2**40, 2**68])
        acols = sorted(rng.sample(range(16), na))
        bcols = sorted(rng.sample(range(16), nb))
        avals = [rng.randint(-3 * scale, 3 * scale) or 1 for _ in range(na)]
        bvals = [rng.randint(-3 * scale, 3 * scale) or 1 for _ in range(nb)]
        ca = rng.randint(-scale, scale) or 1
        cb = rng.randint(-scale, scale) or 1
        # a zero coefficient drops its row's entries: no zero value is left
        for x, y in (ca, cb), (0, cb), (ca, 0), (0, 0):
            assert combine_primitive(x, acols, avals, y, bcols, bvals) == \
                dense_combine(x, acols, avals, y, bcols, bvals)
    assert combine_primitive(0, [0, 2], [3, 5], 1, [1], [4]) == ([1], [1])


# -- the reduced echelon: kept reduced by add, read in one pass --------------

REDUCED_WEIGHTS = range(3, 10)


def derivation_matrix(k: int) -> RelationMatrix:
    return RelationMatrix.from_polys(k, derivation_all(k))


def other_pivot_entries(ech: Echelon) -> list[tuple[int, int]]:
    """(pivot row, column) of every entry in another pivot's column."""
    return [(p, c) for p, (cols, _) in ech.pivots.items()
            for c in cols[1:] if c in ech.pivots]


def count_kernel_calls(monkeypatch) -> list[int]:
    """Counts the packed combination steps, each clearing one entry of a
    pivot row, from here on."""
    calls = []
    step = Echelon._clear

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(Echelon, "_clear", counted)
    return calls


def snapshot(ech: Echelon) -> dict:
    """The pivots with copies of their row lists."""
    return {p: (list(cols), list(vals))
            for p, (cols, vals) in ech.pivots.items()}


def clone(ech: Echelon) -> Echelon:
    """A new echelon with the same pivots, in the same order: each pivot
    row, added in turn, is its own remainder and clears nothing."""
    out = Echelon()
    for row in ech.pivots.values():
        assert out.add(*row)
    assert out.pivots == ech.pivots
    assert list(out.pivots) == list(ech.pivots)
    return out


def cascade(pivots: dict, cols, vals) -> dict:
    """The rest of a row after clearing its leading entry with the pivot
    row of that column, over Fractions, for as long as there is one: the
    forward read, which works on any echelon, reduced or not."""
    row = dict(zip(cols, map(Fraction, vals)))
    while row and min(row) in pivots:
        pcols, pvals = pivots[c := min(row)]
        accumulate(row, zip(pcols, pvals), -row[c] / pvals[0])
    return row


def forward_pivots(rows) -> dict:
    """A forward echelon over Fractions: each row's cascade rest is stored
    at its leading column, with no pivot row cleared afterwards."""
    pivots = {}
    for row in rows:
        rest = cascade(pivots, *row)
        if rest:
            cols = sorted(rest)
            pivots[cols[0]] = (cols, [rest[c] for c in cols])
    return pivots


def combination(rows: list, coeffs: list[int]) -> tuple[list[int], list[int]]:
    """The sparse row sum of coeffs[i] * rows[i]."""
    acc: dict[int, int] = {}
    for (cols, vals), c in zip(rows, coeffs):
        accumulate(acc, zip(cols, vals), c)
    cols = sorted(acc)
    return cols, [acc[c] for c in cols]


@pytest.mark.parametrize("k", REDUCED_WEIGHTS)
def test_back_substitute_clears_other_pivot_columns(k):
    # add back-substitutes each new pivot into the earlier pivot rows, so
    # the echelon is reduced after every row, not only at the end
    mat = derivation_matrix(k)
    ech = echelon_of(linalg._sorted_rows(mat.rows), check=True)
    assert other_pivot_entries(ech) == []
    assert ech.pivots == mat.echelon().pivots
    assert ech.rank == GOLDEN[k][4]


def test_pivots_do_not_depend_on_row_order():
    # a reduced echelon is unique: sparsest first, by columns, reversed
    # and shuffled orders give the pivot rows of the descending-lead order
    rng = random.Random(9)
    for spec, k in (("derivation", 9), ("union:duality,derivation", 8)):
        mat = family_matrix(spec, k)
        orders = [sorted(mat.rows, key=lambda r: (len(r[0]), r[0], r[1])),
                  mat.rows[::-1]]
        for _ in range(3):
            orders.append(rng.sample(mat.rows, len(mat.rows)))
        for rows in orders:
            assert echelon_of(rows).pivots == mat.echelon().pivots, spec


@pytest.mark.parametrize("k", range(6, 10))
def test_reduced_and_forward_membership_agree(k):
    mat = derivation_matrix(k)
    ech = mat.echelon()
    forward = forward_pivots(linalg._sorted_rows(mat.rows))
    assert forward.keys() == ech.pivots.keys()
    assert any(c in forward for cols, _ in forward.values()
               for c in cols[1:])  # the forward echelon is not reduced
    for p, member in known_answer_queries(k, seed=k, per_group=10):
        row = poly_to_row(p, k)
        assert ech.contains(*row) == (not cascade(forward, *row)) == member


@pytest.mark.parametrize("k", range(6, 10))
def test_union_rank_after_queries_is_row_6(k):
    mat = derivation_matrix(k)
    for p, member in known_answer_queries(k, seed=1, per_group=3):
        assert mat.in_span(p) == member
    assert other_pivot_entries(mat.echelon()) == []
    dual = RelationMatrix.from_polys(k, duality_all(k))
    assert mat.rank() == GOLDEN[k][4]
    for a, b in ((dual, mat), (mat, dual)):
        assert a.rank() + b.rank() - dim_intersection(a, b) == GOLDEN[k][5]


def test_past_deadline_leaves_a_valid_echelon_and_is_retried():
    k = 9
    mat = derivation_matrix(k)
    rows = linalg._sorted_rows(mat.rows)
    half = len(rows) // 2
    ech = echelon_of(rows[:half])
    before = snapshot(ech)
    for row in rows[half:]:
        with pytest.raises(BudgetExceeded):
            ech.add(*row, deadline=0.0)
        assert ech.pivots == before
    for row in rows[half:]:
        ech.add(*row)
    assert ech.pivots == mat.echelon().pivots
    # a matrix whose build ran over builds afresh when asked again
    fresh = derivation_matrix(k)
    with pytest.raises(BudgetExceeded):
        fresh.rank(deadline=0.0)
    assert fresh.rank() == GOLDEN[k][4]


def test_deadline_is_checked_once_on_entry_to_add(monkeypatch):
    k = 9
    rows = linalg._sorted_rows(derivation_matrix(k).rows)
    ech = echelon_of(rows[:len(rows) // 2])
    calls = count_kernel_calls(monkeypatch)
    for row in rows[len(rows) // 2:]:
        calls.clear()
        want = clone(ech)
        if want.add(*row) and len(calls) > 1:
            break  # a row whose lead column is cleared from earlier rows
    else:
        pytest.fail("no row clears its lead column from two pivot rows")
    # the clock is past the deadline from its second reading on
    ticks = iter([0.0])
    monkeypatch.setattr(linalg, "monotonic", lambda: next(ticks, 1.0))
    got = clone(ech)
    assert got.add(*row, deadline=0.5)
    assert got.pivots == want.pivots


def test_add_after_queries_keeps_reads_exact(monkeypatch):
    k = 9
    ech = clone(derivation_matrix(k).echelon())
    queries = known_answer_queries(k, seed=2, per_group=10)
    rows = [poly_to_row(p, k) for p, _ in queries]
    assert [ech.contains(*row) for row in rows] == [m for _, m in queries]
    new = next(row for row, (_, member) in zip(rows, queries) if not member)
    assert ech.add(*new)
    assert_reduced(ech)
    rows = [new] + rows
    rows += [combination([new, row], [1, 2]) for row in rows]
    calls = count_kernel_calls(monkeypatch)
    answers = [ech.contains(*row) for row in rows]
    assert calls == []
    assert answers == [not cascade(ech.pivots, *row) for row in rows]
    assert answers[0] and True in answers[1:] and False in answers


def test_one_shot_membership_does_not_back_substitute(monkeypatch):
    # a read neither eliminates nor rewrites a pivot row
    mat = derivation_matrix(8)
    pivots = dict(mat.echelon().pivots)
    calls = count_kernel_calls(monkeypatch)
    for p, member in known_answer_queries(8, seed=1, per_group=2):
        assert mat.in_span(p) == member
        assert calls == []
        assert mat.echelon().pivots.keys() == pivots.keys()
        assert all(mat.echelon().pivots[c] is row
                   for c, row in pivots.items())


@pytest.mark.parametrize("spec, k", [("derivation", 9),
                                     ("union:duality,derivation", 8)])
def test_a_new_pivot_is_the_last_key_and_primitive(spec, k):
    # the benchmark tracer reads the pivot that add made as the last key of
    # pivots, a primitive, positive-led (cols, vals) pair: the remainder
    ech = Echelon()
    for row in linalg._sorted_rows(family_matrix(spec, k).rows):
        before = list(ech.pivots)
        acc = ech.remainder(*row)
        if not ech.add(*row):
            assert not acc and list(ech.pivots) == before
            continue
        lead = next(reversed(ech.pivots))
        assert list(ech.pivots) == before + [lead]
        cols, vals = ech.pivots[lead]
        assert cols[0] == lead and vals[0] > 0 and gcd(*vals) == 1
        unit = gcd(*acc.values()) * (1 if acc[min(acc)] > 0 else -1)
        assert (cols, vals) == (sorted(acc),
                                [acc[c] // unit for c in sorted(acc)])


def count_calls(monkeypatch, *names) -> Counter:
    """Counts the calls of the named ``Echelon`` methods from here on."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _real=getattr(Echelon, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(Echelon, name, counted)
    return calls


def assert_widths(ech: Echelon) -> set[int]:
    """Each packed row sits in the narrowest of the start width, twice
    it, four times it, ... that holds its bound, and a row wider than the
    start width is exact: primitive, with its bound its true maximum.
    Every bound holds and every lead value is the row's lead entry.
    Returns the widths in use."""
    start = linalg._START_BITS
    widths = set()
    for p, (r, bound, lv, exact, w) in ech._rows.items():
        assert w % start == 0 and (w // start).bit_count() == 1, p
        assert not bound >> (w - 1), p
        assert w == start or bound >> (w // 2 - 1), p
        assert w == start or exact, p
        _, vals = linalg._entries(r, w, ech._size)
        assert max(map(abs, vals)) <= bound and vals[0] == lv, p
        if exact:
            assert max(map(abs, vals)) == bound and gcd(*vals) == 1, p
        widths.add(w)
    return widths


def count_wide_sums(monkeypatch) -> list[int]:
    """The bounds of the packed sums made wider than the start width, from
    here on."""
    bounds = []
    real = Echelon._combine

    def counted(ech, terms, bound, lv):
        if bound >> (linalg._START_BITS - 1):
            bounds.append(bound)
        return real(ech, terms, bound, lv)

    monkeypatch.setattr(Echelon, "_combine", counted)
    return bounds


def count_mixed_width_sums(monkeypatch) -> list[set[int]]:
    """The slot widths of the terms of each packed sum whose terms have
    more than one width, from here on: the terms of the narrower widths
    are repacked."""
    mixed = []
    real = Echelon._combine

    def counted(ech, terms, bound, lv):
        widths = {rec[4] for _, rec in terms}
        if len(widths) > 1:
            mixed.append(widths)
        return real(ech, terms, bound, lv)

    monkeypatch.setattr(Echelon, "_combine", counted)
    return mixed


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128])
def test_packed_row_codec_round_trips(w):
    # arrays of the slot width up to 64 bits, slot by slot beyond: every
    # packed row decodes to the sparse row it was packed from, and each
    # slot reads its dense entry, for entries at the slot's extremes,
    # rows whose top slots are zero and the zero row
    rng = random.Random(w)
    top = (1 << (w - 1)) - 1
    for n in (1, 2, 3, 8, 64):
        dense_rows = [[0] * n, [top] * n, [-top] * n,
                      [top, -top] * (n // 2) + [0] * (n % 2)]
        for _ in range(40):
            row = [rng.choice((0, 0, 1, -1, top, -top,
                               rng.randint(-top, top))) for _ in range(n)]
            zeros = rng.randint(0, n)
            dense_rows.append(row[:n - zeros] + [0] * zeros)
        for dense in dense_rows:
            cols = [c for c, v in enumerate(dense) if v]
            vals = [dense[c] for c in cols]
            r = linalg._pack_row(cols, vals, w, n)
            assert linalg._entries(r, w, n) == (cols, vals), (n, dense)
            assert [linalg._slot(r, w, c) for c in range(n)] == dense


def test_slot_overflow_is_exact_against_the_dense_oracle(monkeypatch):
    # with 8-bit slots, entries up to 10^6 overflow: rows are content-
    # reduced, and each sum is made in the width its bound needs; a
    # coefficient past 2^70 needs slots past 64 bits, read slot by slot;
    # a sum over rows of several widths repacks the narrower ones
    monkeypatch.setattr(linalg, "_START_BITS", 8)
    calls = count_calls(monkeypatch, "_tighten")
    wide = count_wide_sums(monkeypatch)
    mixed = count_mixed_width_sums(monkeypatch)
    widths = set()
    rng = random.Random(70)
    for trial in range(40):
        ncols = rng.randint(2, 12)
        rows = []
        for _ in range(rng.randint(1, 10)):
            cols = sorted(rng.sample(range(ncols), rng.randint(1, ncols)))
            rows.append((cols, [rng.choice([-1, 1]) * rng.randint(1, 10**6)
                                for _ in cols]))
        if trial % 4 == 0:
            cols, vals = rng.choice(rows)
            vals[rng.randrange(len(vals))] = rng.choice([-1, 1]) * (
                (1 << 70) + rng.randint(1, 10**6))
        dense = [[0] * ncols for _ in rows]
        for (cols, vals), row in zip(rows, dense):
            for c, v in zip(cols, vals):
                row[c] = v
        ech = Echelon()
        for row in rows:
            ech.add(*row)
            assert_reduced(ech)
            widths |= assert_widths(ech)
        assert rref_of(ech, ncols) == dense_rref(dense), trial
        for row in rows:
            assert ech.contains(*row)
    assert calls["_tighten"] and wide and mixed
    assert 8 in widths and max(widths) > 64
    # a row too big for the start width is stored wider, and once it is
    # cleared to fit, in the start width again
    ech = Echelon()
    ech.add([0, 1], [1, 1000])
    assert assert_widths(ech) == {16}
    ech.add([1], [3])
    assert assert_widths(ech) == {8}
    assert ech.pivots == {0: ([0], [1]), 1: ([1], [1])}
    # a row that hits no pivot is packed at 16 bits, then divided by its
    # content 6, signed for a positive lead, and repacked in 8 bits
    ech = Echelon()
    ech.add([0, 1], [-600, 6])
    assert assert_widths(ech) == {8}
    assert ech._rows[0][1:] == [100, 100, True, 8]
    assert ech.pivots == {0: ([0, 1], [100, -1])}
    ech.add([1, 2], [3, 9])
    assert assert_widths(ech) == {8}
    assert ech.pivots == {0: ([0, 2], [100, 3]), 1: ([1, 2], [1, 3])}


def test_derivation_pivots_do_not_depend_on_the_start_width(monkeypatch):
    rows = linalg._sorted_rows(family_matrix("derivation", 9).rows)
    want = echelon_of(rows)
    monkeypatch.setattr(linalg, "_START_BITS", 8)
    calls = count_calls(monkeypatch, "_tighten")
    got = Echelon()
    for row in rows:
        got.add(*row)
        assert_widths(got)
    assert list(got.pivots.items()) == list(want.pivots.items())
    assert calls["_tighten"]  # bounds did overflow


def pivot_digest(pivots) -> str:
    """The first 12 hex digits of the sha1 of repr(list(pivots.items())),
    as ``benchmarks/span.py`` reports it."""
    return hashlib.sha1(repr(list(pivots.items())).encode()).hexdigest()[:12]


# the derivation echelon's pivot digests: 12 and 13 are the first weights
# whose builds tighten rows
DERIVATION_PIVOT_DIGESTS = {12: "4510f9d49ea9", 13: "779b45c8f197"}


@pytest.mark.parametrize("k", sorted(DERIVATION_PIVOT_DIGESTS))
def test_derivation_pivots_are_pinned_where_rows_tighten(k, monkeypatch):
    calls = count_calls(monkeypatch, "_tighten")
    pivots = family_matrix("derivation", k).echelon().pivots
    assert pivot_digest(pivots) == DERIVATION_PIVOT_DIGESTS[k]
    assert calls["_tighten"]


def test_weight_14_column_makes_wide_sums(monkeypatch):
    # weight 14 is the first at which the derivation sums need more than
    # 16 bits; the column is the one every earlier path gave, and the
    # pivots of the span it builds give the digest benchmarks/span.py reports
    wide = count_wide_sums(monkeypatch)
    spans = []

    def derivation_span(spec, k):
        m = family_matrix(spec, k)
        if spec == "derivation":
            spans.append(m)
        return m

    monkeypatch.setattr("mzv.verify.family_matrix", derivation_span)
    col = table_column(14)
    assert [col[row] for row in range(1, 8)] == [21, 66, 76, 2016, 2912,
                                                 3403, 1525]
    assert wide
    assert pivot_digest(spans[0].echelon().pivots) == "02033bf024f8"


def test_plus_dimension_of_rows_at_mixed_widths(monkeypatch):
    # a tau-stable span of rows p and tau p, big entries beside unit ones,
    # so its pivot rows sit at several widths; its tau = +1 part is
    # spanned by the rows p + tau p
    monkeypatch.setattr(linalg, "_START_BITS", 8)
    k = 7
    tau = tau_columns(k)
    ncols = len(tau)
    rng = random.Random(7)
    mixed = 0
    for _ in range(10):
        ps = []
        for bound in [10**6] * rng.randint(1, 6) + [1] * rng.randint(0, 6):
            cols = rng.sample(range(ncols), rng.randint(1, 6))
            ps.append({c: rng.choice([-1, 1]) * rng.randint(1, bound)
                       for c in cols})
        images = [{tau[c]: v for c, v in p.items()} for p in ps]
        ech = echelon_of(linalg._sorted_rows(
            [(sorted(p), [p[c] for c in sorted(p)]) for p in ps + images]))
        mixed += len(assert_widths(ech)) > 1
        sums = [[p.get(c, 0) + t.get(c, 0) for c in range(ncols)]
                for p, t in zip(ps, images)]
        assert plus_dimension(ech, tau) == dense_rank(sums)
    assert mixed


def test_conjecture_scan_over_budget_in_the_pass_is_skipped():
    k = 9
    _derivation_span.cache_clear()
    try:
        span = _derivation_span(k)
        p, member = known_answer_queries(k, seed=1, per_group=1)[0]
        assert span.in_span(p) == member  # built, one query answered
        before = snapshot(span.echelon())
        # the span is built, so the read pass is what runs over
        reports, skipped = conjecture_scan(k, cell_budget=1e-9)
        assert k in skipped
        assert span.echelon().pivots == before
        assert all(r.verdict for r in reports)
    finally:
        _derivation_span.cache_clear()


@pytest.mark.parametrize("k", range(5, 12))
def test_accumulated_read_answers_as_the_forward_read(k, monkeypatch):
    mat = derivation_matrix(k)
    ech = mat.echelon()
    queries = known_answer_queries(k, seed=k, per_group=10)
    answers = [member for _, member in queries]
    assert [not cascade(ech.pivots, *poly_to_row(p, k))
            for p, _ in queries] == answers
    assert {vals[0] for _, vals in ech.pivots.values()} == {1}
    calls = count_kernel_calls(monkeypatch)
    assert [mat.in_span(p) for p, _ in queries] == answers
    assert calls == []


def test_accumulated_read_scales_by_the_lcm_of_the_leads():
    k = 11
    mat = family_matrix("union:duality,derivation", k)
    ech = mat.echelon()
    leads = [vals[0] for _, vals in ech.pivots.values()]
    assert leads.count(2) == 80 and set(leads) == {1, 2}
    rng = random.Random(11)
    answers = []
    for _ in range(60):
        rows = rng.sample(mat.rows, 3)
        row = combination(rows, [rng.choice([-3, -1, 1, 2]) for _ in rows])
        assert ech.contains(*row)
        unit = ([rng.randrange(1 << (k - 2))], [rng.choice([-1, 1])])
        row = combination([row, unit], [1, 1])
        answers.append(ech.contains(*row))
        assert answers[-1] == (not cascade(ech.pivots, *row))
    assert False in answers
    # the pivot rows with lead 2, and half of each plus a unit vector
    for p, (cols, vals) in ech.pivots.items():
        if vals[0] == 2:
            assert ech.contains(cols, vals)
            row = combination([(cols, vals), ([p], [1])], [1, -1])
            assert ech.contains(*row) == (not cascade(ech.pivots, *row))


def test_accumulated_read_with_leads_2_and_3():
    ech = Echelon()
    a, b = ([0, 2, 3], [2, 1, -1]), ([1, 2], [3, 1])
    assert ech.add(*a) and ech.add(*b)
    assert ech.pivots == {0: a, 1: b}  # already reduced
    assert ech.remainder([0, 1, 2, 3], [6, 6, 5, -3]) == {}  # 3a + 2b
    # 6q - 18a - 12b, the lcm of the leads being 6
    assert ech.remainder([0, 1, 2, 3], [6, 6, 5, -2]) == {3: 6}
    assert not ech.contains([0, 1, 2, 3], [6, 6, 5, -2])
    rng = random.Random(6)
    answers = []
    for _ in range(200):
        row = combination([a, b, ([rng.randrange(4)], [1])],
                          [rng.randint(-6, 6), rng.randint(-6, 6),
                           rng.choice([-1, 0, 1])])
        answers.append(ech.contains(*row))
        assert answers[-1] == (not cascade(ech.pivots, *row))
    assert True in answers and False in answers


@pytest.mark.parametrize("k", [4, 7])
def test_accumulated_read_of_fractional_elements(k, monkeypatch):
    polys = derivation_all(k)
    mat = RelationMatrix.from_polys(k, polys)
    rel = (polys[0].scale(Fraction(1, 2)) - polys[-1].scale(Fraction(2, 3))
           + polys[len(polys) // 2].scale(Fraction(5, 7)))
    assert any(isinstance(c, Fraction) for c in rel.terms.values())
    assert mat.in_span(rel)  # builds the echelon
    calls = count_kernel_calls(monkeypatch)
    assert mat.in_span(rel.scale(Fraction(2, 3)))
    assert not mat.in_span(rel + Poly.from_word(basis(k)[0], Fraction(1, 3)))
    assert calls == []


def test_accumulated_read_checks_the_deadline():
    ech = derivation_matrix(6).echelon()
    with pytest.raises(BudgetExceeded):
        ech.contains(*next(iter(ech.pivots.values())), deadline=0.0)


def test_sorted_rows_keep_generation_order_among_equal_lengths():
    # by descending leading column; rows with the same lead (here also of
    # the same length) keep their generation order, and an empty row is last
    rows = [([2, 3], [1, 1]), ([], []), ([0, 1], [1, -1]), ([5], [1]),
            ([0, 2], [2, 1]), ([0], [2])]
    assert linalg._sorted_rows(rows) == [rows[3], rows[0], rows[2], rows[4],
                                         rows[5], rows[1]]


# -- the triangular partial_1 block and the trace of tau ---------------------

@pytest.mark.parametrize("k", range(3, 11))
def test_partial_1_block_is_triangular_and_has_normal_form_zero(k):
    # Hoffman's relation: the partial_1 rows lead in distinct columns with
    # value -1, so each of those columns has an integer normal form
    # modulo the block, and the block's reduced echelon leads there with 1
    polys = derivation_all(k)[:1 << (k - 3)]
    block = [poly_to_row(p, k) for p in polys]
    leads = {cols[0] for cols, _ in block}
    assert len(leads) == len(block)
    assert {vals[0] for _, vals in block} == {-1}
    ech = echelon_of(block)
    assert ech.pivots.keys() == leads
    assert {vals[0] for _, vals in ech.pivots.values()} == {1}
    assert all(ech.contains(*row) for row in block)


def test_plus_dimension_reads_the_trace_of_tau():
    # tau swaps columns 0 and 1 and fixes column 2.  The span of e0 + e1
    # is even, of e0 - e1 odd, and tau's trace is 1 on the whole space.
    tau = [1, 0, 2]
    assert plus_dimension(echelon_of([([0, 1], [1, 1])]), tau) == 1
    assert plus_dimension(echelon_of([([0, 1], [2, -2])]), tau) == 0
    assert plus_dimension(echelon_of([([0, 1], [1, -1]), ([2], [5])]),
                          tau) == 1
    assert plus_dimension(echelon_of([([0], [1]), ([1], [1]), ([2], [1])]),
                          tau) == 2
    assert plus_dimension(Echelon(), tau) == 0
    # pivot rows leading with 2: P[tau c] / 2 is +1 for an even row and
    # -1 for an odd one
    assert plus_dimension(echelon_of([([0, 1, 2], [2, 1, 1])]),
                          [0, 2, 1]) == 1
    assert plus_dimension(echelon_of([([0, 1, 2, 3], [2, 1, -1, -2])]),
                          [3, 2, 1, 0]) == 0


def test_plus_dimension_rejects_a_span_tau_does_not_preserve():
    tau = [1, 0, 2]
    with pytest.raises(NotTriangular):   # trace 0 at rank 1
        plus_dimension(echelon_of([([0], [1])]), tau)
    with pytest.raises(NotTriangular):   # trace 1/2 at rank 1
        plus_dimension(echelon_of([([0, 1], [2, 1])]), tau)
    with pytest.raises(NotTriangular):   # trace 3 at rank 1
        plus_dimension(echelon_of([([0, 1], [1, 3])]), tau)
    # not a usage error: the command line must not report exit 2
    assert not issubclass(NotTriangular, ValueError)


def test_echelon_add_of_an_empty_row_adds_no_pivot():
    ech = Echelon()
    assert ech.add(*poly_to_row(duality(P("xxy")), 3))
    assert not ech.add([], [])
    assert ech.rank == 1
