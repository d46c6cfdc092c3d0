import gc
import json
import weakref
from pathlib import Path

import pytest

import mzv.linalg as linalg
import mzv.verify as verify
from mzv.linalg import (RelationMatrix, dim_intersection, plus_dimension,
                        tau_columns)
from mzv.operators import duality, tau
from mzv.poly import Poly
from mzv.relations import derivation_all, height_classes, k1_classes
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


@pytest.mark.parametrize("part,check", [("i", verify_theorem_i),
                                        ("ii", verify_theorem_ii)])
def test_theorems_hold_at_the_largest_cutoff(part, check):
    # 16 is the CLI's largest cutoff
    for param in range(1, 6):
        report = check(param, 16)
        assert report.verdict and report.residual.is_zero(), (part, param)


def test_theorem_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_theorem_i(0, 8)
    with pytest.raises(ValueError):
        verify_theorem_i(3, 4)  # cutoff below m + 2
    with pytest.raises(ValueError):
        verify_theorem_ii(0, 8)
    with pytest.raises(ValueError):
        verify_theorem_ii(5, 5)  # cutoff below n + 1


def test_scan_and_corollaries_hold_no_span_past_their_weight(monkeypatch):
    # each reader builds the span it reads and lets it go: when a span
    # is built, every span built before it is dead
    spans = []
    real = verify.family_matrix

    def tracked(spec, k):
        gc.collect()
        assert [ref() for ref in spans] == [None] * len(spans)
        span = real(spec, k)
        spans.append(weakref.ref(span))
        return span

    monkeypatch.setattr(verify, "family_matrix", tracked)
    reports, skipped = conjecture_scan(10)
    assert skipped == [] and all(r.verdict for r in reports)
    assert check_corollary("i", 2, 2).verdict    # weight 6, built again
    gc.collect()
    assert len(spans) == 7                       # weights 5..10, then 6
    assert [ref() for ref in spans] == [None] * 7


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


def test_conjecture_scan_to_weight_14():
    # every class sum up to weight 14 lies in the derivation span
    reports, skipped = conjecture_scan(14)
    assert skipped == []
    assert len(reports) == 215 and all(r.verdict for r in reports)
    assert sum(r.params["weight"] == 14 for r in reports) == 54


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
    # family_matrix builds a union from concatenated generators and
    # eliminates it; the table counts row 3 from the classes of rows 1
    # and 2 (duality_rank) and adds dim S+ to row 4 (row 6)
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


@pytest.mark.parametrize("k", range(3, 15))
def test_tau_maps_each_depth_height_class_onto_its_dual_class(k):
    # tau reverses a word and swaps x and y: depth d goes to k - d, and
    # the xy factors, which count the height, stay
    ht = height_classes(k)
    for c, t in enumerate(tau_columns(k)):
        d, h = divmod(ht[c], k + 1)
        assert ht[t] == (k - d) * (k + 1) + h


@pytest.mark.parametrize("k", range(3, 14))
def test_duality_rank_counts_the_pairs_of_dual_depth_height_classes(k):
    # the generic elimination of the duality-ht rows, and the closed form:
    # depth d has the heights 1..min(d, k - d), so the depths d < k / 2
    # have 1 + 2 + ... + (k - 1) // 2 classes, each paired with its dual
    # class at depth k - d
    count = duality_rank(tau_columns(k), height_classes(k))
    assert count == family_matrix("duality-ht", k).rank()
    j = (k - 1) // 2
    assert count == j * (j + 1) // 2


def counted_rows(k: int, monkeypatch) -> list[int]:
    """Rows 1-4 of ``table_column(k)``, with no derivation rows to build
    a span from."""
    monkeypatch.setitem(verify._ROW_GENERATORS, "derivation", lambda k: [])
    col = table_column(k)
    return [col[row] for row in range(1, 5)]


@pytest.mark.parametrize("k", range(3, 14))
def test_counted_rows_1_to_3_are_the_eliminated_ranks(k, monkeypatch):
    # the table counts rows 1-3 from the classes; mzv rank eliminates
    # the class-sum rows of each family and of their union
    assert counted_rows(k, monkeypatch)[:3] == [
        family_matrix(spec, k).rank() for spec in (
            "duality-ht", "duality-k1", "union:duality-ht,duality-k1")]


@pytest.mark.parametrize("k", range(3, 17))
def test_row_3_is_row_2_plus_at_most_row_1(k, monkeypatch):
    # row 3 counts row 2's forest, then the rank of cycle labels that lie
    # in the span of row 1's edges
    one, two, three, _ = counted_rows(k, monkeypatch)
    assert two <= three <= two + one


@pytest.mark.parametrize("k", range(3, 15))
def test_duality_rank_does_not_depend_on_the_order_of_the_lists(k):
    # the forest grows under the last class list and the cycle labels lie
    # under the other: the order swaps their roles, not the rank
    tau, ht, k1 = tau_columns(k), height_classes(k), k1_classes(k)
    assert duality_rank(tau, ht, k1) == duality_rank(tau, k1, ht)


@pytest.mark.parametrize("k", range(3, 13))
def test_table_column_adds_no_empty_row(k, monkeypatch):
    # row 3 adds only its nonzero cycle labels, and every derivation row
    # is nonzero
    sizes = []
    add = linalg.Echelon.add

    def add_seen(self, cols, vals, deadline=None):
        sizes.append(len(cols))
        return add(self, cols, vals, deadline)

    monkeypatch.setattr(linalg.Echelon, "add", add_seen)
    table_column(k)
    assert sizes and min(sizes) > 0


@pytest.mark.parametrize("k, rows", [(15, [28, 79, 94, 4096]),
                                     (16, [28, 91, 106, 8128])])
def test_counted_rows_1_to_4_past_weight_14(k, rows, monkeypatch):
    # past the golden table: the values that eliminating the class-sum
    # rows gave at 15 and 16
    assert counted_rows(k, monkeypatch) == rows


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
    real = verify._ROW_GENERATORS["derivation"]
    monkeypatch.setitem(verify._ROW_GENERATORS, "derivation",
                        lambda k: built.append(k) or real(k))
    monkeypatch.setattr(linalg, "monotonic",
                        lambda: float("inf") if len(built) >= late_from
                        else 0.0)
    col = table_column(8, cell_budget=60.0)
    assert len(built) == 1
    assert [col[r] for r in range(1, 8)] == \
        [*TABLE[8][:kept], *[None] * (7 - kept)]
    assert TableReport(8, {8: col}).consistency_violations() == []


def test_consistency_violations_apply_both_row_7_rules():
    col = {1: 1, 2: 1, 3: 2, 4: 3, 5: 4, 6: 6, 7: 1}
    assert TableReport(5, {5: col}).consistency_violations() == []
    assert TableReport(5, {5: {**col, 7: 2}}).consistency_violations() \
        == ["wt 5: row7 != row4+row5-row6"]
    # row 7 = row 4 + row 5 - row 6 holds, but is negative
    assert TableReport(5, {5: {**col, 6: 8, 7: -1}}) \
        .consistency_violations() == ["wt 5: row7 < 0"]
