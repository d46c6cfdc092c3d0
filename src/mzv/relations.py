"""Generators for the relation families whose spans are tabulated.

Each generator returns a list of weight-homogeneous polynomials lying
in the kernel of the evaluation map:

* ``duality_all``      -- (1 - tau) of every admissible word,
* ``derivation_all``   -- partial_n of every admissible word one to
                          k-2 weights down,
* ``duality_ht_sum``   -- (1 - tau) of the sum over each (depth,
                          height) class,
* ``duality_k1_sum``   -- (1 - tau) of the sum over each (depth,
                          leading exponent) class.

Zero entries (self-dual words or self-dual class sums) are kept; they
do not affect ranks.  Union families are plain list concatenations.

``derivation_rows`` gives the coordinate rows of ``derivation_all``
without building a polynomial: partial_n of a word is generated as a
packed row (see ``linalg``), one shift-add per letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import Row, row_of_packed
from .operators import duality, partial
from .poly import Poly
from .words import Word, basis

# slot width of the packed derivation rows: an entry sums at most one
# +-1 per letter of the word, fewer than 2^7 at any weight with columns
# that fit in memory
_ROW_BITS = 8


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


@lru_cache(maxsize=None)
def _insertion_sum(n: int, s: int) -> int:
    """The packed row, at column 0, of the middle words x v y of
    partial_n with v over {x,y}^(n-1) whose columns step by 2^s: the
    geometric sum of 2^(_ROW_BITS * 2^s * v) over v < 2^(n-1)."""
    g, step = 1, _ROW_BITS << s
    for _ in range(n - 1):
        g |= g << step
        step *= 2
    return g


def derivation_rows(k: int) -> list[Row]:
    """``[poly_to_row(p, k) for p in derivation_all(k) if not p.is_zero()]``,
    in that order, generated packed.  partial_n replaces the letter with
    s letters after it by +-x v y (+ for x, - for y); the columns of
    those words, over v, are base + v * 2^s with base fixed by the
    prefix and suffix, so the letter adds one shifted ``_insertion_sum``."""
    if k < 3:
        raise ValueError(f"weight must be >= 3, got {k}")
    ncols = 1 << (k - 2)
    rows = []
    for n in range(1, k - 1):
        for w in basis(k - n):
            bits = w.bits
            r = 0
            for s in range(k - n):
                high = bits >> (s + 1) << (n + s)
                base = (high | 1 << (s - 1) | (bits & (1 << s) - 1) >> 1
                        if s else high)
                term = _insertion_sum(n, s) << _ROW_BITS * base
                r = r - term if bits >> s & 1 else r + term
            if r:
                rows.append(row_of_packed(r, _ROW_BITS, ncols))
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


_GENERATORS = {
    "duality": duality_all,
    "derivation": derivation_all,
    "duality-ht": duality_ht_sum,
    "duality-k1": duality_k1_sum,
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
            if kind not in _GENERATORS:
                raise ValueError(f"unknown relation family {kind!r}")
        return FamilySpec(kinds)

    def __str__(self) -> str:
        if len(self.kinds) == 1:
            return self.kinds[0]
        return "union:" + ",".join(self.kinds)

    def generate(self, k: int) -> list[Poly]:
        out: list[Poly] = []
        for kind in self.kinds:
            out.extend(_GENERATORS[kind](k))
        return out
