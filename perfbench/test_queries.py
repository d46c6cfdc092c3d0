"""Labels of the known-answer queries against an independent dense
rational rank: q is in S exactly when rank(S + q) == rank(S)."""

from fractions import Fraction

import pytest

from mzv.relations import derivation_all
from mzv.verify import conjecture_element
from queries import conjecture_sums, known_answer_queries


def dense(p, k):
    """Coordinates over the admissible words x...y of weight k."""
    row = [Fraction(0)] * (1 << (k - 2))
    for w, c in p.terms.items():
        assert w.length == k and w.bits & 1 and not w.bits >> (k - 1)
        row[w.bits >> 1] = Fraction(c)
    return row


def insert(echelon, row):
    """Gauss-Jordan step: add row to the reduced basis; True if the rank
    grew."""
    row = list(row)
    for col, piv in echelon.items():
        if row[col]:
            f = row[col]
            row = [a - f * b for a, b in zip(row, piv)]
    lead = next((i for i, v in enumerate(row) if v), None)
    if lead is None:
        return False
    row = [v / row[lead] for v in row]
    for col, piv in echelon.items():
        if piv[lead]:
            f = piv[lead]
            echelon[col] = [a - f * b for a, b in zip(piv, row)]
    echelon[lead] = row
    return True


@pytest.mark.parametrize("k", [6, 7, 8])
@pytest.mark.parametrize("seed", [1, 5])
def test_labels_match_dense_rank(k, seed):
    span_s = {}
    for p in derivation_all(k):
        if p:
            insert(span_s, dense(p, k))
    rank_s = len(span_s)
    queries = known_answer_queries(k, seed, per_group=8)
    assert len(queries) >= 24
    assert {label for _, label in queries} == {True, False}
    for q, is_member in queries:
        assert q, "queries are nonzero"
        extended = dict(span_s)
        grew = insert(extended, dense(q, k))
        assert len(extended) == rank_s + grew
        assert (not grew) == is_member, (str(q), is_member)


def test_queries_repeat_for_a_seed():
    a = known_answer_queries(7, 3, per_group=5)
    b = known_answer_queries(7, 3, per_group=5)
    c = known_answer_queries(7, 4, per_group=5)
    assert a == b
    assert a != c
    assert sum(not label for _, label in a) == 5


@pytest.mark.parametrize("k", [6, 9, 11])
def test_conjecture_sums_match_the_scan(k):
    scan = [conjecture_element(m, n, k)
            for m in range(3, k - 1) for n in range(3, k - m + 2)]
    assert conjecture_sums(k) == [p for p in scan if p]
