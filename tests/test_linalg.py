import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mzv.linalg as linalg
from mzv.linalg import (BudgetExceeded, Echelon, NotTriangular,
                        RelationMatrix, column_of_word, combine_primitive,
                        dim_intersection, in_span, normal_forms, poly_to_row,
                        quotient_rows, rank, tau_columns, word_of_column)
from mzv.operators import duality, theta
from mzv.poly import Poly, accumulate
from mzv.relations import (derivation_all, duality_all, duality_ht_sum,
                           duality_k1_sum)
from mzv.verify import _derivation_span, conjecture_scan, family_matrix
from mzv.words import basis, word_from_letters

from oracles import (dense_combine, dense_rank, dense_rows_of_polys,
                     self_dual_count, tau_str)
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
            assert word_of_column(k, i) == w


def test_column_of_word_rejects():
    with pytest.raises(ValueError):
        column_of_word(word_from_letters("xxy"), 4)  # weight mismatch
    with pytest.raises(ValueError):
        column_of_word(word_from_letters("yxy"), 3)  # inadmissible


BITS_TO_LETTERS = str.maketrans("01", "xy")
LETTERS_TO_BITS = str.maketrans("xy", "01")


@pytest.mark.parametrize("k", range(3, 13))
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
    assert der3.in_span(Poly.zero())
    assert der3.in_span(duality(P("xyy")))      # equals partial_1(xy)
    assert not der3.in_span(P("xxy"))
    with pytest.raises(ValueError):
        der3.in_span(P("xxxy"))  # weight mismatch


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
    with pytest.raises(ValueError):
        a.rank_union(b)


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


def test_rank_agrees_with_dense_oracle_to_weight_9():
    for k in range(3, 10):
        for gen in (duality_all, derivation_all, duality_ht_sum,
                    duality_k1_sum):
            polys = gen(k)
            sparse = RelationMatrix.from_polys(k, polys).rank()
            dense = dense_rank(dense_rows_of_polys(polys, k))
            assert sparse == dense, (gen.__name__, k)


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
        sparse = RelationMatrix.from_polys(k, polys).rank()
        dense = dense_rank(dense_rows_of_polys(polys, k))
        assert sparse == dense, (trial, k)


def test_union_rank_subadditive_and_intersection_nonneg():
    for k in range(3, 8):
        a = RelationMatrix.from_polys(k, duality_ht_sum(k))
        b = RelationMatrix.from_polys(k, duality_k1_sum(k))
        ru = a.rank_union(b)
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
        assert combine_primitive(ca, acols, avals, cb, bcols, bvals) == \
            dense_combine(ca, acols, avals, cb, bcols, bvals)


# -- the back-substituted echelon of membership reads ----------------------

REDUCED_WEIGHTS = range(6, 10)


def derivation_matrix(k: int) -> RelationMatrix:
    return RelationMatrix.from_polys(k, derivation_all(k))


def other_pivot_entries(ech: Echelon) -> list[tuple[int, int]]:
    """(pivot row, column) of every entry in another pivot's column."""
    return [(p, c) for p, (cols, _) in ech.pivots.items()
            for c in cols[1:] if c in ech.pivots]


def count_kernel_calls(monkeypatch) -> list[int]:
    calls = []
    kernel = linalg.combine_primitive

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(linalg, "combine_primitive", counted)
    return calls


@pytest.mark.parametrize("k", REDUCED_WEIGHTS)
def test_back_substitute_clears_other_pivot_columns(k, monkeypatch):
    mat = derivation_matrix(k)
    ech = mat.echelon()
    forward = dict(ech.pivots)
    rank = ech.rank
    assert other_pivot_entries(ech)  # the forward echelon is not reduced
    ech.back_substitute()
    assert other_pivot_entries(ech) == []
    assert ech.rank == rank and ech.pivots.keys() == forward.keys()
    for p, (cols, vals) in ech.pivots.items():
        assert cols[0] == p and vals[0] > 0
    calls = count_kernel_calls(monkeypatch)
    ech.back_substitute()
    assert calls == []


@pytest.mark.parametrize("k", REDUCED_WEIGHTS)
def test_reduced_and_forward_membership_agree(k):
    forward = derivation_matrix(k).echelon()
    reduced = forward.copy()
    reduced.back_substitute()
    assert forward.pivots != reduced.pivots
    for p, member in known_answer_queries(k, seed=k, per_group=10):
        row = poly_to_row(p, k)
        assert forward.contains(*row) == member
        assert reduced.contains(*row) == member


@pytest.mark.parametrize("k", REDUCED_WEIGHTS)
def test_union_rank_after_queries_is_row_6(k):
    mat = derivation_matrix(k)
    for p, member in known_answer_queries(k, seed=1, per_group=3):
        assert mat.in_span(p) == member
    assert other_pivot_entries(mat.echelon()) == []
    dual = RelationMatrix.from_polys(k, duality_all(k))
    assert dual.rank_union(mat) == GOLDEN[k][5]
    assert mat.rank_union(dual) == GOLDEN[k][5]
    assert mat.rank() == GOLDEN[k][4]


def test_past_deadline_leaves_a_valid_echelon_and_is_retried():
    k = 9
    queries = known_answer_queries(k, seed=3, per_group=10)
    mat = derivation_matrix(k)
    ech = mat.echelon()
    forward = dict(ech.pivots)
    with pytest.raises(BudgetExceeded):
        ech.back_substitute(deadline=0.0)
    # cut short after one step: partly reduced, same span
    assert ech.pivots != forward
    assert other_pivot_entries(ech)
    assert ech.rank == GOLDEN[k][4]
    for p, member in queries:
        assert ech.contains(*poly_to_row(p, k)) == member
    dual = RelationMatrix.from_polys(k, duality_all(k))
    assert mat.rank_union(dual) == GOLDEN[k][5]

    # the matrix's second query runs the pass; over budget, it is retried
    mat = derivation_matrix(k)
    assert mat.in_span(queries[0][0]) == queries[0][1]
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            mat.in_span(queries[1][0], deadline=0.0)
    assert other_pivot_entries(mat.echelon())
    for p, member in queries:
        assert mat.in_span(p) == member
    assert other_pivot_entries(mat.echelon()) == []


def test_one_shot_membership_does_not_back_substitute(monkeypatch):
    calls = []
    back_substitute = Echelon.back_substitute

    def counted(self, deadline=None):
        calls.append(self)
        return back_substitute(self, deadline)

    monkeypatch.setattr(Echelon, "back_substitute", counted)
    mat = derivation_matrix(8)
    queries = known_answer_queries(8, seed=1, per_group=2)
    for i, (p, member) in enumerate(queries):
        assert mat.in_span(p) == member
        assert calls == ([] if i == 0 else [mat.echelon()])


def test_conjecture_scan_over_budget_in_the_pass_is_skipped():
    k = 9
    _derivation_span.cache_clear()
    try:
        span = _derivation_span(k)
        p, member = known_answer_queries(k, seed=1, per_group=1)[0]
        assert span.in_span(p) == member  # built, one query answered
        reports, skipped = conjecture_scan(k, cell_budget=1e-9)
        assert other_pivot_entries(span.echelon())
        assert k in skipped
        assert all(r.verdict for r in reports)
    finally:
        _derivation_span.cache_clear()


# -- the accumulated read of a back-substituted echelon --------------------

def combination(rows: list, coeffs: list[int]) -> tuple[list[int], list[int]]:
    """The sparse row sum of coeffs[i] * rows[i]."""
    acc: dict[int, int] = {}
    for (cols, vals), c in zip(rows, coeffs):
        accumulate(acc, zip(cols, vals), c)
    cols = sorted(acc)
    return cols, [acc[c] for c in cols]


@pytest.mark.parametrize("k", range(5, 12))
def test_accumulated_read_answers_as_the_forward_read(k, monkeypatch):
    mat = derivation_matrix(k)
    forward = mat.echelon().copy()
    queries = known_answer_queries(k, seed=k, per_group=10)
    answers = [member for _, member in queries]
    assert [forward.contains(*poly_to_row(p, k))
            for p, _ in queries] == answers
    for p, member in queries[:2]:  # the second query runs the pass
        assert mat.in_span(p) == member
    assert mat.echelon()._scale == 1  # every derivation lead is 1
    calls = count_kernel_calls(monkeypatch)
    assert [mat.in_span(p) for p, _ in queries] == answers
    assert calls == []


def test_accumulated_read_scales_by_the_lcm_of_the_leads():
    k = 11
    mat = family_matrix("union:duality,derivation", k)
    forward = mat.echelon().copy()
    reduced = mat.echelon()
    reduced.back_substitute()
    leads = [vals[0] for _, vals in reduced.pivots.values()]
    assert leads.count(2) == 80 and set(leads) == {1, 2}
    assert reduced._scale == 2
    rng = random.Random(11)
    answers = []
    for _ in range(60):
        rows = rng.sample(mat.rows, 3)
        row = combination(rows, [rng.choice([-3, -1, 1, 2]) for _ in rows])
        assert reduced.contains(*row) and forward.contains(*row)
        unit = ([rng.randrange(1 << (k - 2))], [rng.choice([-1, 1])])
        row = combination([row, unit], [1, 1])
        answers.append(reduced.contains(*row))
        assert answers[-1] == forward.contains(*row)
    assert False in answers
    # the pivot rows with lead 2, and half of each plus a unit vector
    for p, (cols, vals) in reduced.pivots.items():
        if vals[0] == 2:
            assert reduced.contains(cols, vals)
            row = combination([(cols, vals), ([p], [1])], [1, -1])
            assert reduced.contains(*row) == forward.contains(*row)


def test_accumulated_read_with_leads_2_and_3():
    ech = Echelon()
    a, b = ([0, 2, 3], [2, 1, -1]), ([1, 2], [3, 1])
    assert ech.add(*a) and ech.add(*b)
    forward = ech.copy()
    ech.back_substitute()  # already reduced: no step, the lcm is set
    assert ech.pivots == forward.pivots and ech._scale == 6
    assert ech.contains([0, 1, 2, 3], [6, 6, 5, -3])  # 3a + 2b
    assert not ech.contains([0, 1, 2, 3], [6, 6, 5, -2])
    rng = random.Random(6)
    answers = []
    for _ in range(200):
        row = combination([a, b, ([rng.randrange(4)], [1])],
                          [rng.randint(-6, 6), rng.randint(-6, 6),
                           rng.choice([-1, 0, 1])])
        answers.append(ech.contains(*row))
        assert answers[-1] == forward.contains(*row)
    assert True in answers and False in answers


@pytest.mark.parametrize("k", [4, 7])
def test_accumulated_read_of_fractional_elements(k, monkeypatch):
    polys = derivation_all(k)
    mat = RelationMatrix.from_polys(k, polys)
    rel = (polys[0].scale(Fraction(1, 2)) - polys[-1].scale(Fraction(2, 3))
           + polys[len(polys) // 2].scale(Fraction(5, 7)))
    assert any(isinstance(c, Fraction) for c in rel.terms.values())
    assert mat.in_span(rel) and mat.in_span(rel)  # the second runs the pass
    calls = count_kernel_calls(monkeypatch)
    assert mat.in_span(rel.scale(Fraction(2, 3)))
    assert not mat.in_span(rel + Poly.from_word(basis(k)[0], Fraction(1, 3)))
    assert calls == []


def test_accumulated_read_checks_the_deadline():
    ech = derivation_matrix(6).echelon()
    ech.back_substitute()
    with pytest.raises(BudgetExceeded):
        ech.contains(*next(iter(ech.pivots.values())), deadline=0.0)


# -- state that turns the accumulated read off -----------------------------

def test_add_after_back_substitute_reads_by_reduce(monkeypatch):
    k = 9
    ech = derivation_matrix(k).echelon()
    forward = ech.copy()
    ech.back_substitute()
    queries = known_answer_queries(k, seed=2, per_group=10)
    new = next(poly_to_row(p, k) for p, member in queries if not member)
    assert ech.add(*new) and forward.add(*new)
    assert ech._scale == 0
    rows = [new] + [poly_to_row(p, k) for p, _ in queries]
    rows += [combination([new, row], [1, 2]) for row in rows]
    calls = count_kernel_calls(monkeypatch)
    assert all(ech.contains(*row) == forward.contains(*row) for row in rows)
    assert calls  # the reduce read
    ech.back_substitute()
    assert ech._scale == 1
    assert all(ech.contains(*row) == forward.contains(*row) for row in rows)


def test_copy_then_add_after_queries_reads_by_reduce():
    # as rank_union extends a copy of a span that has answered queries
    k = 9
    mat = derivation_matrix(k)
    queries = known_answer_queries(k, seed=4, per_group=10)
    for p, member in queries[:2]:
        assert mat.in_span(p) == member
    ech = mat.echelon().copy()
    assert ech._scale == 1
    forward = derivation_matrix(k).echelon()
    for row in RelationMatrix.from_polys(k, duality_all(k)).rows:
        ech.add(*row)
        forward.add(*row)
    assert ech.rank == forward.rank == GOLDEN[k][5]
    assert ech._scale == 0
    for p, _ in queries:
        row = poly_to_row(p, k)
        assert ech.contains(*row) == forward.contains(*row)
    # the span's own echelon keeps its rows and its accumulated read
    assert mat.echelon()._scale == 1 and mat.rank() == GOLDEN[k][4]
    assert [mat.in_span(p) for p, _ in queries] == [m for _, m in queries]


def test_cut_short_back_substitute_never_turns_on_the_accumulated_read():
    k = 9
    queries = known_answer_queries(k, seed=6, per_group=10)
    mat = derivation_matrix(k)
    assert mat.in_span(queries[0][0]) == queries[0][1]
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            mat.in_span(queries[1][0], deadline=0.0)
        assert mat.echelon()._scale == 0
    ech = mat.echelon().copy()
    for p, member in queries:
        assert ech.contains(*poly_to_row(p, k)) == member
    assert mat.in_span(queries[1][0]) == queries[1][1]  # the pass finishes
    assert mat.echelon()._scale == 1


# -- one elimination step per deadline check, a stable row order -----------

def test_past_deadline_stops_back_substitute_after_one_step(monkeypatch):
    ech = derivation_matrix(9).echelon()
    calls = count_kernel_calls(monkeypatch)
    with pytest.raises(BudgetExceeded):
        ech.back_substitute(deadline=0.0)
    assert len(calls) == 1


def test_deadline_passed_in_add_stops_it_after_one_step(monkeypatch):
    k = 9
    forward = derivation_matrix(k).echelon()
    p = next(p for p, member in known_answer_queries(k, seed=1, per_group=5)
             if member)
    row = poly_to_row(p, k)
    calls = count_kernel_calls(monkeypatch)
    assert not forward.copy().add(*row)
    assert len(calls) > 1  # a multi-step insertion
    # the clock passes the deadline during the first step, not before it
    calls.clear()
    monkeypatch.setattr(linalg, "monotonic", lambda: 1.0 if calls else 0.0)
    with pytest.raises(BudgetExceeded):
        forward.copy().add(*row, deadline=0.5)
    assert len(calls) == 1


def test_sorted_rows_keep_generation_order_among_equal_lengths():
    rows = [([2, 3], [1, 1]), ([5], [1]), ([0, 1], [1, -1]), ([0], [2])]
    assert linalg._sorted_rows(rows) == [rows[1], rows[3], rows[0], rows[2]]


def test_generation_order_fills_in_less_at_weight_9():
    # pivot columns depend on the span alone, fill-in on the row order
    k = 9
    mat = derivation_matrix(k)
    by_columns = Echelon()
    for row in sorted(mat.rows, key=lambda r: (len(r[0]), r[0], r[1])):
        by_columns.add(*row)
    ech = mat.echelon()
    assert sum(len(cols) for cols, _ in ech.pivots.values()) == 1374
    assert sum(len(cols) for cols, _ in by_columns.pivots.values()) == 2510
    assert ech.pivots.keys() == by_columns.pivots.keys()
    assert ech.rank == GOLDEN[k][4]


# -- normal forms modulo the triangular partial_1 block ----------------------

@pytest.mark.parametrize("k", range(3, 11))
def test_partial_1_block_is_triangular_and_has_normal_form_zero(k):
    polys = derivation_all(k)[:1 << (k - 3)]
    block = [poly_to_row(p, k) for p in polys]
    leads = {cols[0] for cols, _ in block}
    assert len(leads) == len(block)
    assert {vals[0] for _, vals in block} == {-1}
    nf = normal_forms(block, 1 << (k - 2))
    # NF kills the block and fixes the other columns, so it is the
    # projection along Im partial_1
    assert quotient_rows(block, nf) == []
    assert all(nf[c] == {c: 1} for c in range(1 << (k - 2)) if c not in leads)
    assert all(c not in leads for row in nf for c in row)


def test_normal_forms_reject_a_block_that_is_not_triangular():
    with pytest.raises(NotTriangular):
        normal_forms([([0, 1], [2, 1])], 2)  # leading value 2
    with pytest.raises(NotTriangular):
        normal_forms([([0, 1], [1, 1]), ([0, 2], [-1, 3])], 3)
    # not a usage error: the command line must not report exit 2
    assert not issubclass(NotTriangular, ValueError)


def test_quotient_rows_keep_one_row_per_line():
    nf = normal_forms([], 4)
    # p = xxxy - xyxy and q = xxyy in the columns of weight 4
    p, q = ([0, 2], [1, -1]), ([1], [1])
    minus_p, twice_p, zero = ([0, 2], [-1, 1]), ([0, 2], [2, -2]), ([], [])
    assert quotient_rows([p, minus_p, twice_p, q, zero], nf) == [
        ([0, 2], [1, -1]), ([1], [1])]
