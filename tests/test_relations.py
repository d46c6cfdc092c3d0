import pytest

from mzv.linalg import RelationMatrix, poly_to_row
from mzv.operators import duality, partial, tau
from mzv.poly import Poly
from mzv.relations import (_ROW_GENERATORS, FamilySpec, derivation_all,
                           derivation_rows, duality_all, duality_ht_sum,
                           duality_k1_sum, height_classes, k1_classes)
from mzv.words import basis, word_from_letters

from oracles import (dense_rank, dense_rows_of_polys, ohno_relations,
                     self_dual_count)
from test_acceptance import GOLDEN


# the oracle of each family kind, kept apart from the engine's registry
POLY_GENERATORS = {
    "duality": duality_all,
    "derivation": derivation_all,
    "duality-ht": duality_ht_sum,
    "duality-k1": duality_k1_sum,
}


def P(s: str) -> Poly:
    return Poly.from_word(word_from_letters(s))


def span_rank(k, polys):
    return RelationMatrix.from_polys(k, polys).rank()


def test_duality_all_weight3():
    rels = duality_all(3)
    assert rels == [P("xxy") - P("xyy"), P("xyy") - P("xxy")]
    assert span_rank(3, rels) == 1


def test_duality_keeps_zero_entries():
    rels = duality_all(4)
    assert len(rels) == 4  # one per basis word, self-dual ones included
    zero_count = sum(1 for r in rels if r.is_zero())
    assert zero_count == 2  # xxyy and xyxy are self-dual
    assert span_rank(4, rels) == 1


@pytest.mark.parametrize("k", range(3, 13))
def test_packed_derivation_rows_are_the_coordinatized_polys(k):
    # partial_n summed in column space, against partial_n by the Leibniz
    # rule on polynomials, coordinatized: partial_1 of every word and
    # partial_n, n >= 2, of the words with k_1 = 2, in derivation_all's
    # order
    inputs = [(n, w) for n in range(1, k - 1) for w in basis(k - n)]
    polys = derivation_all(k)
    assert len(polys) == len(inputs)
    assert derivation_rows(k) == [
        poly_to_row(p, k) for (n, w), p in zip(inputs, polys)
        if (n == 1 or w.k1() == 2) and not p.is_zero()]


@pytest.mark.parametrize("k", range(3, 15))
def test_partial_1_rows_are_written_down_as_distinct_units(k):
    # the partial_1 block, one row per word x c y of weight k - 1, takes
    # no sum: k - 1 distinct columns, each entry +-1, and the row leads in
    # column c with -1
    words = basis(k - 1)
    for w, (cols, vals) in zip(words, derivation_rows(k)[:len(words)]):
        assert cols == sorted(set(cols)) and len(cols) == k - 1
        assert set(vals) <= {1, -1}
        assert (cols[0], vals[0]) == (w.bits >> 1, -1)


@pytest.mark.parametrize("k", range(3, 15))
@pytest.mark.parametrize("kind", ["duality", "duality-ht", "duality-k1"])
def test_column_space_duality_rows_are_the_coordinatized_polys(kind, k):
    # class sums keyed by column bits and (1 - tau) by the tau column
    # permutation, against the Word-keyed sums and Word.tau on polynomials
    assert _ROW_GENERATORS[kind](k) == [
        poly_to_row(p, k) for p in POLY_GENERATORS[kind](k)
        if not p.is_zero()]


def test_column_keys_are_the_word_keys():
    for k in range(3, 15):
        ht, k1 = height_classes(k), k1_classes(k)
        assert ht == [w.depth * (k + 1) + w.height() for w in basis(k)]
        assert k1 == [w.depth * (k + 1) + w.k1() for w in basis(k)]


def test_family_spec_accepts_exactly_the_row_registry_kinds():
    # the registry family_matrix builds every span from is the one
    # FamilySpec.parse validates against, and it has every oracle kind
    assert _ROW_GENERATORS.keys() == POLY_GENERATORS.keys()
    for kind in _ROW_GENERATORS:
        assert FamilySpec.parse(kind).kinds == (kind,)
    assert FamilySpec.parse("union:" + ",".join(_ROW_GENERATORS)).kinds \
        == tuple(_ROW_GENERATORS)
    for bad in ("shuffle", "", "Duality", "union:", "union:duality,",
                "union:duality,shuffle", "union:union:duality"):
        with pytest.raises(ValueError, match="unknown relation family"):
            FamilySpec.parse(bad)


def test_derivation_all_small():
    assert derivation_all(3) == [partial(1, P("xy"))]
    rels4 = derivation_all(4)
    assert rels4 == [partial(1, P("xxy")), partial(1, P("xyy")),
                     partial(2, P("xy"))]
    assert span_rank(4, rels4) == 2
    # the linear dependence behind the rank drop
    assert rels4[0] + rels4[1] == rels4[2]


def test_generators_reject_low_weight():
    for gen in (*POLY_GENERATORS.values(), *_ROW_GENERATORS.values()):
        with pytest.raises(ValueError):
            gen(2)


def test_duality_ht_sum_weight3():
    rels = duality_ht_sum(3)
    # classes: depth 1 height 1 {xxy} and depth 2 height 1 {xyy}
    assert rels == [duality(P("xxy")), duality(P("xyy"))]
    assert span_rank(3, rels) == 1


def test_duality_k1_sum_contains_expected_relation():
    rels = duality_k1_sum(5)
    assert P("xyxxy") - P("xyyxy") in rels  # class (depth 2, k1 = 2)


@pytest.mark.parametrize("k,expected", [(3, 1), (5, 3), (8, 6)])
def test_duality_ht_sum_ranks(k, expected):
    assert span_rank(k, duality_ht_sum(k)) == expected


@pytest.mark.parametrize("k,expected", [(3, 1), (5, 4), (8, 15)])
def test_duality_k1_sum_ranks(k, expected):
    assert span_rank(k, duality_k1_sum(k)) == expected


@pytest.mark.parametrize("k,expected", [(3, 1), (4, 1), (7, 16)])
def test_duality_ranks(k, expected):
    assert span_rank(k, duality_all(k)) == expected


@pytest.mark.parametrize("k,expected", [(3, 1), (4, 2), (8, 44)])
def test_derivation_ranks(k, expected):
    assert span_rank(k, derivation_all(k)) == expected


def test_all_relations_homogeneous_and_admissible():
    for k in range(3, 9):
        for gen in (duality_all, derivation_all, duality_ht_sum,
                    duality_k1_sum):
            for rel in gen(k):
                assert rel.is_zero() or rel.is_homogeneous(k)
                assert rel.in_h0()


def test_sum_families_inside_duality_span():
    for k in range(3, 10):
        dual = RelationMatrix.from_polys(k, duality_all(k))
        for gen in (duality_ht_sum, duality_k1_sum):
            for rel in gen(k):
                assert dual.in_span(rel)


def test_duality_rank_law_small():
    # rank = (2^(k-2) - f_k) / 2 with f_k counted by brute force
    for k in range(3, 11):
        f_k = self_dual_count(k)
        assert span_rank(k, duality_all(k)) == ((1 << (k - 2)) - f_k) // 2


def test_self_dual_count_matches_bitwise_tau():
    for k in range(3, 11):
        assert self_dual_count(k) == \
            sum(1 for w in basis(k) if w.tau() == w)


def test_family_spec_parsing():
    assert FamilySpec.parse("duality").kinds == ("duality",)
    assert FamilySpec.parse("union:duality,derivation").kinds == \
        ("duality", "derivation")
    assert str(FamilySpec.parse("union: duality , derivation")) == \
        "union:duality,derivation"
    assert str(FamilySpec.parse("duality-ht")) == "duality-ht"
    with pytest.raises(ValueError):
        FamilySpec.parse("shuffle")
    with pytest.raises(ValueError):
        FamilySpec.parse("union:duality,shuffle")


def test_family_spec_is_an_immutable_hashable_value():
    spec = FamilySpec.parse("union: duality , derivation")
    assert spec == FamilySpec(("duality", "derivation"))
    assert spec == FamilySpec(kinds=("duality", "derivation"))
    assert spec != FamilySpec.parse("union:derivation,duality")
    # the hash of the one-field tuple, as for a frozen record of kinds
    assert hash(spec) == hash((("duality", "derivation"),))
    assert len({spec, FamilySpec(("duality", "derivation"))}) == 1
    assert repr(spec) == "FamilySpec(kinds=('duality', 'derivation'))"
    with pytest.raises(AttributeError):
        spec.kinds = ("duality",)


@pytest.mark.parametrize("k", range(3, 13))
def test_ohno_relations_span_row_6(k):
    # an independent path to row 6: Ohno's relations, generated from
    # compositions in tests/oracles.py, against the published table
    rels = ohno_relations(k)
    assert span_rank(k, rels) == GOLDEN[k][5]
    if k <= 8:
        assert dense_rank(dense_rows_of_polys(rels, k)) == GOLDEN[k][5]


@pytest.mark.parametrize("k", range(3, 11))
def test_row_7_two_ways(k):
    # the derivation span S is tau-stable, so it splits into S+ (rows
    # r + tau r) and S- (rows r - tau r); the duality span is the whole
    # -1 eigenspace of tau, so the table's row 7, found there by
    # inclusion-exclusion, is dim S- directly, and row 5 is the sum
    rels = derivation_all(k)
    minus = [duality(p) for p in rels]
    plus = [p + tau(p) for p in rels]
    assert span_rank(k, minus) == GOLDEN[k][6]
    assert span_rank(k, plus) + span_rank(k, minus) == GOLDEN[k][4]
    if k <= 8:
        dense_minus = dense_rank(dense_rows_of_polys(minus, k))
        dense_plus = dense_rank(dense_rows_of_polys(plus, k))
        assert dense_minus == GOLDEN[k][6]
        assert dense_plus + dense_minus == GOLDEN[k][4]
