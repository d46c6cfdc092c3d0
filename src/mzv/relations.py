"""Generators for the relation families whose spans are tabulated.

Each polynomial generator returns a list of weight-homogeneous
polynomials lying in the kernel of the evaluation map:

* ``duality_all``      -- (1 - tau) of every admissible word,
* ``derivation_all``   -- partial_n of every admissible word one to
                          k-2 weights down,
* ``duality_ht_sum``   -- (1 - tau) of the sum over each (depth,
                          height) class,
* ``duality_k1_sum``   -- (1 - tau) of the sum over each (depth,
                          leading exponent) class.

Zero entries (self-dual words or self-dual class sums) are kept; they
do not affect ranks.  These generators are the API and the tests'
oracle; no span is built from them.

``_ROW_GENERATORS`` is the one family registry: ``FamilySpec.parse``
accepts its kinds, and every span, a union's included, is built from
its column-space rows.  It maps each kind to a generator that builds no
polynomial: of ``[poly_to_row(p, k) for p in gen(k) if not p.is_zero()]``,
in that order, for the duality kinds, and for ``derivation`` of a
spanning subset of those rows, a quarter fewer (``derivation_rows``
says which and why).  Column c is the admissible word x c y
(``linalg``), so its classes are read off c (``column_classes``).  A
class-sum row is one ``accumulate`` pass, +1 on a class and -1 on its
tau-images (``tau_columns``), so it is primitive with entries in
{-1, 0, 1}; a duality row is the class sum of one column.  A partial_1
row is written down, one +-1 per letter in k - 1 distinct columns; the
partial_n rows, n >= 2, sum +-1 per inserted middle word in an inline
dict loop (``accumulate`` was ~40% slower at weights 9-12) and are made
primitive by ``linalg._divide_content``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Row, _divide_content, tau_columns
from .operators import duality, partial
from .poly import Poly, accumulate
from .words import Word, basis


def duality_all(k: int) -> list[Poly]:
    if k < 3:
        raise ValueError(f"weight must be >= 3, got {k}")
    return [duality(Poly.from_word(w)) for w in basis(k)]


def derivation_all(k: int) -> list[Poly]:
    if k < 3:
        raise ValueError(f"weight must be >= 3, got {k}")
    return [partial(n, Poly.from_word(w))
            for n in range(1, k - 1)
            for w in basis(k - n)]


def derivation_rows(k: int) -> list[Row]:
    """A spanning subset of the rows of ``derivation_all(k)``: the nonzero
    ``poly_to_row`` of partial_1 of every word of weight k - 1, then of
    partial_n, n >= 2, of the words of weight k - n with k_1 = 2 only,
    in ``derivation_all``'s order, summed in column space.

    The rest are redundant.  The partial_1 row of x c y leads in column c
    with -1, so U_j = partial_1(V_{j-1}) has the columns with top bit 0
    (k_1 >= 3) as pivots, and V_j = U_j + W_j, W_j spanned by the words
    with k_1 = 2.  The derivations commute (Ihara-Kaneko-Zagier), so
    partial_n(U_{k-n}) = partial_1(partial_n V_{k-n-1}) lies in U_k, and
    the span S_k = U_k + sum over n >= 2 of partial_n(W_{k-n}).

    partial_n replaces the letter with s letters after it by +-x v y
    (+ for x, - for y); the columns of those words, over v, are
    base + v * 2^s with base fixed by the prefix and suffix.

    A partial_1 row is written down, one column per letter: partial_1
    sends an x to x y, which inserts a y after it, and a y to -x y,
    which inserts an x before it.  The terms of the x letters have one
    more y than the word, those of the y letters one more x, and two
    insertions of the same letter give the same word only if the
    letters between the two places are all that letter; but between the
    places after two x's lies the second x, and between the places
    before two y's the first y.  So the k - 1 terms are distinct and the
    row is primitive, with entries +-1: + on the x letters' columns,
    those whose word has one more y than w (``c.bit_count()`` equal to
    w's depth)."""
    if k < 3:
        raise ValueError(f"weight must be >= 3, got {k}")
    # the rows share these column ints, so no column int is made per row
    columns = list(range(1 << (k - 2)))
    rows = []
    for w in basis(k - 1):
        bits = w.bits
        depth = bits.bit_count()
        # the letter with s letters after it becomes x y
        cols = sorted([columns[(bits >> s + 1 << s + 2 | 1 << s
                                | bits & (1 << s) - 1) >> 1]
                       for s in range(k - 1)])
        rows.append((cols, [1 if c.bit_count() == depth else -1
                            for c in cols]))
    for n in range(2, k - 1):
        # the upper half, second letter y: the words with k_1 = 2
        words = basis(k - n)
        for w in words[len(words) // 2:]:
            bits = w.bits
            acc: dict[int, int] = {}
            get = acc.get
            for s in range(k - n):
                high = bits >> (s + 1) << (n + s)
                base = (high | 1 << (s - 1) | (bits & (1 << s) - 1) >> 1
                        if s else high)
                sign = -1 if bits >> s & 1 else 1
                # inline, not ``accumulate``: that is ~40% slower here
                for c in columns[base:base + (1 << (n - 1 + s)):1 << s]:
                    acc[c] = get(c, 0) + sign
            cols = sorted(c for c, v in acc.items() if v)
            if cols:
                rows.append((cols, _divide_content([acc[c] for c in cols])))
    return rows


def _class_sum_dualities(k: int, key) -> list[Poly]:
    """(1 - tau) of the sum over each class of basis(k) under key."""
    if k < 3:
        raise ValueError(f"weight must be >= 3, got {k}")
    groups: dict[tuple[int, int], list[Word]] = {}
    for w in basis(k):
        groups.setdefault(key(w), []).append(w)
    return [duality(Poly.from_words(ws)) for _, ws in sorted(groups.items())]


def duality_ht_sum(k: int) -> list[Poly]:
    return _class_sum_dualities(k, lambda w: (w.depth, w.height()))


def duality_k1_sum(k: int) -> list[Poly]:
    return _class_sum_dualities(k, lambda w: (w.depth, w.k1()))


def column_classes(k: int) -> tuple[list[int], list[int]]:
    """The (depth, height) and (depth, leading exponent) classes of the
    weight-k columns, in column order, each class (d, e) as the int
    d * (k + 1) + e, read off each column's bits: x c y has depth
    ``c.bit_count() + 1``, leading exponent ``k - c.bit_length()`` (one
    more than the x letters before its first y) and height the number of
    y letters after an x, the set bits of ``c << 1 | 1`` over a clear
    bit.  tau maps class (d, h) onto (k - d, h): it swaps the letters,
    and keeps the xy factors."""
    if k < 3:
        raise ValueError(f"weight must be >= 3, got {k}")
    ht, k1 = [], []
    for c in range(1 << (k - 2)):
        depth = (c.bit_count() + 1) * (k + 1)
        ht.append(depth + ((c << 1 | 1) & ~c).bit_count())
        k1.append(depth + k - c.bit_length())
    return ht, k1


def _class_sum_rows(k: int, classes=None) -> list[Row]:
    """The nonzero coordinate rows of (1 - tau) of the sum over each class
    of the weight-k columns, classes[c] the class of column c (each column
    its own class if none are given), classes in ascending order."""
    if k < 3:
        raise ValueError(f"weight must be >= 3, got {k}")
    tau = tau_columns(k)
    groups: dict = {}
    for c, key in enumerate(classes or range(len(tau))):
        groups.setdefault(key, []).append(c)
    rows = []
    for _, cs in sorted(groups.items()):
        acc = accumulate(dict.fromkeys(cs, 1), ((tau[c], 1) for c in cs), -1)
        cols = sorted(acc)
        if cols:
            rows.append((cols, [acc[c] for c in cols]))
    return rows


def duality_rows(k: int) -> list[Row]:
    """``duality_all`` in column space: each column is its own class."""
    return _class_sum_rows(k)


def duality_ht_rows(k: int) -> list[Row]:
    """``duality_ht_sum`` in column space."""
    return _class_sum_rows(k, column_classes(k)[0])


def duality_k1_rows(k: int) -> list[Row]:
    """``duality_k1_sum`` in column space."""
    return _class_sum_rows(k, column_classes(k)[1])


# the one family registry, and the one way every span is built:
# kind -> its column-space rows
_ROW_GENERATORS = {
    "duality": duality_rows,
    "derivation": derivation_rows,
    "duality-ht": duality_ht_rows,
    "duality-k1": duality_k1_rows,
}


@dataclass(frozen=True)
class FamilySpec:
    """One family kind, or a union of kinds, at a fixed weight."""

    kinds: tuple[str, ...]

    @staticmethod
    def parse(text: str) -> "FamilySpec":
        """Parse "duality", "derivation", "duality-ht", "duality-k1" or
        "union:kind,kind,...".
        """
        text = text.strip()
        if text.startswith("union:"):
            kinds = tuple(part.strip() for part in text[6:].split(","))
        else:
            kinds = (text,)
        for kind in kinds:
            if kind not in _ROW_GENERATORS:
                raise ValueError(f"unknown relation family {kind!r}")
        return FamilySpec(kinds)

    def __str__(self) -> str:
        if len(self.kinds) == 1:
            return self.kinds[0]
        return "union:" + ",".join(self.kinds)
