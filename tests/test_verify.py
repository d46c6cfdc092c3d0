import json
from pathlib import Path

import pytest

import mzv.linalg as linalg
import mzv.verify as verify
from mzv.linalg import (RelationMatrix, dim_intersection, plus_dimension,
                        tau_columns)
from mzv.operators import duality, tau
from mzv.poly import Poly
from mzv.relations import derivation_all
from mzv.verify import (TableReport, build_table, check_corollary,
                        conjecture_element, conjecture_scan,
                        corollary_i_element, corollary_ii_element,
                        duality_rank, family_matrix, table_column, theorem_i_sides, theorem_ii_sides,
                        verify_theorem_i, verify_theorem_ii)
from mzv.words import word_from_letters

from oracles import self_dual_count

DOCS = Path(__file__).resolve().parent.parent / "docs"

# golden columns (weight -> rows 1..7)
TABLE = {
    3: (1, 1, 1, 1, 1, 1, 1),
    4: (1, 1, 1, 1, 2, 2, 1),
    5: (3, 4, 4, 4, 5, 5, 4),
    6: (3, 6, 6, 6, 10, 10, 6),
    7: (6, 11, 12, 16, 22, 23, 15),
    8: (6, 15, 16, 28, 44, 46, 26),
}


def P(s: str) -> Poly:
    return Poly.from_word(word_from_letters(s))


def test_theorem_i_m1_small_cutoff():
    report = verify_theorem_i(1, 6)
    assert report.verdict
    assert report.residual.is_zero()
    assert report.claim == "theorem-i"


def test_theorem_i_m1_components_by_hand():
    lhs, rhs = theorem_i_sides(1, 4)
    # weight-3: both sides equal (1 - tau)(xyy) = xyy - xxy
    assert lhs.part(3) == P("xyy") - P("xxy")
    assert rhs.part(3) == P("xyy") - P("xxy")
    # weight-4: LHS is (1 - tau)(xyxy) = 0; RHS cancels too
    assert lhs.part(4).is_zero()
    assert rhs.part(4).is_zero()


def test_theorem_i_m2_weight4_lhs_component():
    lhs, _ = theorem_i_sides(2, 5)
    assert lhs.part(4).is_zero()  # (1 - tau)(xxyy), self-dual word


def test_theorem_ii_n1_degenerate():
    report = verify_theorem_ii(1, 6)
    assert report.verdict
    lhs, rhs = theorem_ii_sides(1, 6)
    assert lhs.is_zero() and rhs.is_zero()


def test_theorem_ii_n2_weight5_lhs_component():
    lhs, _ = theorem_ii_sides(2, 5)
    assert lhs.part(5) == P("xyxxy") - P("xyyxy")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_theorem_i_holds_to_cutoff_9(m):
    assert verify_theorem_i(m, 9).verdict


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_theorem_ii_holds_to_cutoff_9(n):
    assert verify_theorem_ii(n, 9).verdict


def test_theorem_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_theorem_i(0, 8)
    with pytest.raises(ValueError):
        verify_theorem_i(3, 4)  # cutoff below m + 2
    with pytest.raises(ValueError):
        verify_theorem_ii(0, 8)
    with pytest.raises(ValueError):
        verify_theorem_ii(5, 5)  # cutoff below n + 1


def test_derivation_spans_survive_a_scan_and_the_corollaries(monkeypatch):
    # the scan to weight 12 builds the spans of weights 5..12 and the
    # corollaries those of weights 3 and 4; reading any of them again
    # generates no derivation rows
    verify._derivation_span.cache_clear()
    try:
        conjecture_scan(12)
        assert check_corollary("i", 1, 0).verdict     # weight 3
        assert check_corollary("ii", 4, 3).verdict    # weight 4
        assert verify._derivation_span.cache_info().currsize == 10
        built = []
        real = verify.derivation_rows
        monkeypatch.setattr(verify, "derivation_rows",
                            lambda k: built.append(k) or real(k))
        ranks = [verify._derivation_span(k).rank() for k in range(3, 13)]
        assert built == []
        assert ranks == [1, 2, 5, 10, 22, 44, 90, 181, 363, 727]
    finally:
        verify._derivation_span.cache_clear()


def test_corollary_i_examples():
    assert check_corollary("i", 1, 0).verdict
    assert check_corollary("i", 2, 2).verdict   # weight 6
    assert corollary_i_element(1, 0) == P("xyy") - P("xxy")


@pytest.mark.parametrize("weight", range(3, 11))
def test_corollary_i_element_is_its_class_sum(weight):
    # x^s y x^t y is the one depth-2 word of leading exponent s + 1
    for s in range(1, weight - 1):
        t = weight - 2 - s
        word = "x" * s + "y" + "x" * t + "y"
        assert corollary_i_element(s, t) == duality(P(word)), (s, t)


def test_corollary_ii_examples():
    rep = check_corollary("ii", 2, 1)
    assert rep.verdict
    assert corollary_ii_element(2, 1).is_zero()  # (1 - tau)(xy) = 0
    assert check_corollary("ii", 3, 1).verdict
    assert check_corollary("ii", 5, 2).verdict


def test_corollary_element_structure():
    # weight s, leading exponent 2, depth t class sums
    assert corollary_ii_element(5, 2) == duality(P("xyxxy"))
    assert corollary_ii_element(5, 3) == duality(P("xyxyy") + P("xyyxy"))


def test_corollary_rejects_bad_parameters():
    with pytest.raises(ValueError):
        check_corollary("i", 0, 1)
    with pytest.raises(ValueError):
        check_corollary("i", 1, -1)
    with pytest.raises(ValueError):
        check_corollary("ii", 2, 2)  # needs s > t
    with pytest.raises(ValueError):
        check_corollary("iii", 1, 1)


def test_corollary_sweep_weight_up_to_8():
    for s in range(1, 7):
        for t in range(0, 7 - s):
            assert check_corollary("i", s, t).verdict, (s, t)
    for s in range(2, 9):
        for t in range(1, s):
            assert check_corollary("ii", s, t).verdict, (s, t)


def test_conjecture_element_weight6():
    elem = conjecture_element(3, 3, 6)
    assert elem == duality(P("xxyxyy") + P("xxyyxy"))
    assert not elem.is_zero()


def test_conjecture_element_weight7():
    # the three weight-7 depth-3 words with leading exponent 3
    elem = conjecture_element(3, 3, 7)
    assert elem == duality(P("xxyxxyy") + P("xxyxyxy") + P("xxyyxxy"))


def test_conjecture_scan_small():
    reports, skipped = conjecture_scan(8)
    assert skipped == []
    assert reports and all(r.verdict for r in reports)
    keys = {(r.params["m"], r.params["n"], r.params["weight"])
            for r in reports}
    assert (3, 3, 5) in keys   # smallest class: (1 - tau)(xxyyy)
    assert (3, 3, 6) in keys
    assert all(m >= 3 and n >= 3 for (m, n, _) in keys)


def test_scan_weight_over_budget_gives_no_verdict(monkeypatch):
    # the clock passes every deadline at the third weight-8 read, so
    # weight 8 runs over part way and weights 5-7 keep their verdicts
    full, _ = conjecture_scan(8)
    reads = []
    real = verify.membership

    def counted(claim, params, *args):
        reads.append(params["weight"])
        return real(claim, params, *args)

    monkeypatch.setattr(verify, "membership", counted)
    monkeypatch.setattr(verify, "monotonic", lambda: 0.0)
    monkeypatch.setattr(linalg, "monotonic",
                        lambda: float("inf") if reads.count(8) > 2 else 0.0)
    reports, skipped = conjecture_scan(8, cell_budget=60.0)
    assert reads.count(8) == 3 and skipped == [8]
    assert [r.params for r in reports] == \
        [r.params for r in full if r.params["weight"] < 8]


def test_conjecture_scan_rejects_low_weight():
    with pytest.raises(ValueError):
        conjecture_scan(5)


def test_table_matches_golden_values():
    report = build_table(8)
    for wt, expected in TABLE.items():
        got = tuple(report.cell(row, wt) for row in range(1, 8))
        assert got == expected, wt
    assert report.consistency_violations() == []
    assert report.skipped_cells() == []


def test_table_threads_agree():
    single = build_table(6, threads=1)
    multi = build_table(6, threads=2)
    assert single.values == multi.values


def test_table_budget_skips_not_guesses():
    report = build_table(9, cell_budget=1e-9)
    col = report.values[9]
    assert col[5] is None and col[7] is None
    assert report.skipped_cells()
    assert report.consistency_violations() == []
    # blank cells render as empty strings, mirroring the published blanks
    csv_text = report.to_csv()
    assert ",," in csv_text or csv_text.rstrip().endswith(",")


def test_table_column_weight3():
    assert table_column(3) == {i: 1 for i in range(1, 8)}


def test_table_report_formats():
    report = build_table(5)
    js = report.to_json()
    assert js["max_weight"] == 5
    assert [row["id"] for row in js["rows"]] == list(range(1, 8))
    assert js["rows"][3]["values"]["5"] == 4
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "row,3,4,5"
    md = report.to_markdown()
    assert md.count("\n") == 8  # header + separator + 7 rows
    assert "| 1 |" in md or "| 1. " in md


def test_table_json_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((DOCS / "table.schema.json").read_text())
    jsonschema.validate(build_table(4).to_json(), schema)


def test_verdict_json_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((DOCS / "verdict.schema.json").read_text())
    jsonschema.validate(verify_theorem_i(1, 5).to_json(), schema)
    jsonschema.validate(check_corollary("i", 1, 0).to_json(), schema)
    reports, _ = conjecture_scan(6)
    for rep in reports:
        jsonschema.validate(rep.to_json(), schema)


def test_verdict_reports_and_consistency_checks():
    report = check_corollary("i", 1, 0)
    assert report.residual is None  # verified claims carry no witness
    good = TableReport(3, {3: {i: 1 for i in range(1, 8)}})
    assert good.consistency_violations() == []
    # an inconsistent column is called out
    bad = TableReport(3, {3: {1: 2, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}})
    assert bad.consistency_violations()


def test_build_table_rejects_low_weight():
    with pytest.raises(ValueError):
        build_table(2)


def test_table_budget_holds_after_membership_sweep():
    # a sweep memoizes the weight-9 derivation span; a table cell must
    # still eliminate on its own, inside its budget
    build_table(9)
    assert check_corollary("i", 4, 3).verdict   # weight 9
    report = build_table(9, cell_budget=1e-9)
    assert report.values[9][5] is None


def test_union_ranks_match_table_union_rows():
    # family_matrix builds a union from concatenated generators; the
    # table concatenates the rows of rows 1 and 2 it already holds
    # (row 3) and adds dim S+ to row 4 (row 6)
    for k in range(3, 11):
        col = table_column(k)
        assert family_matrix("union:duality-ht,duality-k1", k).rank() \
            == col[3], k
        assert family_matrix("union:duality,derivation", k).rank() \
            == col[6], k


def test_quotient_rows_5_to_7_match_generic_path():
    # row 4 by count and rows 5-7 from the trace of tau on S against
    # the ranks of the full relation matrices, of their concatenated
    # rows and inclusion-exclusion
    for k in range(3, 12):
        col = table_column(k)
        dual = family_matrix("duality", k)
        der = family_matrix("derivation", k)
        assert (col[4], col[5], col[6], col[7]) == (
            dual.rank(), der.rank(),
            RelationMatrix(k, dual.rows + der.rows).rank(),
            dim_intersection(dual, der)), k


@pytest.mark.parametrize("k", range(3, 14))
def test_duality_rank_counts_the_pairs_of_dual_words(k):
    # the generic elimination, and the brute-force count of the words
    # that duality fixes: the others fall into pairs
    count = duality_rank(tau_columns(k))
    assert count == family_matrix("duality", k).rank()
    assert count == ((1 << (k - 2)) - self_dual_count(k)) // 2


@pytest.mark.parametrize("k", range(3, 12))
def test_s_plus_rows_match_coordinatizing_each_tau_sum(k):
    # the independent path for dim S+: (1 + tau) maps S onto S+, so dim S+
    # is the rank of the coordinatized p + tau(p), p over the derivation
    # rows: an elimination, where the table reads the trace of tau off S
    plus = RelationMatrix.from_polys(
        k, [p + tau(p) for p in derivation_all(k)]).rank()
    col = table_column(k)
    assert (col[6] - col[4], col[5] - col[7]) == (plus, plus)
    # doubling the self-dual columns commutes with tau, so it keeps dim S+;
    # at even weights it makes the pivot rows that tau fixes lead with 2
    t = tau_columns(k)
    doubled = RelationMatrix(k, [
        (cols, [v << (t[c] == c) for c, v in zip(cols, vals)])
        for cols, vals in family_matrix("derivation", k).rows])
    assert plus_dimension(doubled.echelon(), t) == plus


@pytest.mark.parametrize("late_from, kept", [(1, 4)])
def test_quotient_over_budget_skips_the_rows_it_feeds(monkeypatch,
                                                      late_from, kept):
    # the clock passes every deadline once the late_from-th derivation
    # family has been generated; there is one, and rows 5-7 all read its
    # echelon
    built = []
    real = verify.derivation_rows
    monkeypatch.setattr(verify, "derivation_rows",
                        lambda k: built.append(k) or real(k))
    monkeypatch.setattr(linalg, "monotonic",
                        lambda: float("inf") if len(built) >= late_from
                        else 0.0)
    col = table_column(8, cell_budget=60.0)
    assert len(built) == 1
    assert [col[r] for r in range(1, 8)] == \
        [*TABLE[8][:kept], *[None] * (7 - kept)]
    assert TableReport(8, {8: col}).consistency_violations() == []
