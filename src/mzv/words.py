"""Words over the two-letter alphabet {x, y}, bit-packed.

A word is stored as ``Word(length, bits)`` where bit ``length-1-i`` of
``bits`` is letter ``i`` (x = 0, y = 1).  Keeping the first letter in the
most significant position makes the packed value order agree with the
lexicographic order on words of equal length, so the canonical term
order is simply tuple comparison ``(length, bits)``.

Admissible words (first letter x, last letter y, or the empty word)
encode index compositions: ``(k_1, ..., k_n)`` with ``k_1 >= 2`` maps to
``x^{k_1-1} y ... x^{k_n-1} y``.  The weight of the word is its length,
its depth the number of y letters, and its height the number of parts
``k_i > 1`` of the composition.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple


class Word(NamedTuple):
    """Immutable packed word; sorts in the canonical term order."""

    length: int
    bits: int

    def __str__(self) -> str:
        return "".join("y" if self.bits >> (self.length - 1 - i) & 1 else "x"
                       for i in range(self.length)) or "1"

    def __repr__(self) -> str:
        return f"Word({self!s})"

    @property
    def weight(self) -> int:
        return self.length

    @property
    def depth(self) -> int:
        return self.bits.bit_count()

    def concat(self, other: "Word") -> "Word":
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        return tuple.__new__(Word, (self.length + other.length,
                                    self.bits << other.length | other.bits))

    def is_admissible(self) -> bool:
        """True for the empty word and words of shape x...y."""
        if self.length == 0:
            return True
        first_is_x = not self.bits >> (self.length - 1) & 1
        last_is_y = bool(self.bits & 1)
        return first_is_x and last_is_y

    def tau(self) -> "Word":
        """Reverse the letters and swap x with y."""
        if self.length == 0:
            return self
        rev = int(f"{self.bits:0{self.length}b}"[::-1], 2)
        return Word(self.length, rev ^ (1 << self.length) - 1)

    def composition(self) -> tuple[int, ...]:
        """Exponent tuple (k_1, ..., k_n); inverse of word_of_composition."""
        if not self.is_admissible() or self.length == 0:
            raise ValueError(f"word {self} has no composition")
        ks = []
        run = 0
        for i in range(self.length):
            if self.bits >> (self.length - 1 - i) & 1:
                ks.append(run + 1)
                run = 0
            else:
                run += 1
        return tuple(ks)

    def k1(self) -> int:
        """First exponent of an admissible word of weight >= 2."""
        if self.length < 2 or not self.is_admissible():
            raise ValueError(f"word {self} has no leading exponent")
        # first y sits below the top zero run; bit_length locates it
        return self.length - self.bits.bit_length() + 1

    def height(self) -> int:
        """Number of composition parts larger than 1."""
        return sum(1 for k in self.composition() if k > 1)


EMPTY_WORD = Word(0, 0)
X = Word(1, 0)
Y = Word(1, 1)


def word_from_letters(letters: str) -> Word:
    """Parse a string over {x, y} ("1" or "" give the empty word)."""
    if letters in ("", "1"):
        return EMPTY_WORD
    if not re.fullmatch(r"[xy]+", letters):
        raise ValueError(f"not a word over x,y: {letters!r}")
    bits = 0
    for ch in letters:
        bits = bits << 1 | (ch == "y")
    return Word(len(letters), bits)


def word_of_composition(ks: tuple[int, ...] | list[int]) -> Word:
    """Admissible word x^{k_1-1}y...x^{k_n-1}y of a composition."""
    ks = tuple(ks)
    if not ks:
        raise ValueError("empty composition")
    if ks[0] < 2:
        raise ValueError(f"first part must be >= 2, got {ks[0]}")
    if any(k < 1 for k in ks):
        raise ValueError(f"parts must be positive: {ks}")
    bits = 0
    length = 0
    for k in ks:
        bits = bits << k | 1
        length += k
    return Word(length, bits)


def parse_word(text: str, bound=None) -> Word:
    """Accept either letter syntax ("xxyy") or a composition "(2,1,2)",
    with both parentheses or neither ("2,1,2").

    A bare "1" is the empty word (the algebra unit), not a composition.
    ``bound``, if given, is called with the word's length (a composition's
    sum of parts, 0 for the empty word) before its bits are built, and may
    raise to refuse it.
    """
    text = text.strip()
    if text in ("", "1"):
        if bound is not None:
            bound(0)
        return EMPTY_WORD
    # the closing parenthesis is required exactly when group 1 matched
    m = re.fullmatch(r"(\()?\s*(\d+(?:\s*,\s*\d+)*)\s*(?(1)\))", text)
    ks = tuple(int(p) for p in m.group(2).split(",")) if m else None
    if bound is not None:
        bound(sum(ks) if m else len(text))
    return word_of_composition(ks) if m else word_from_letters(text)


def basis(k: int) -> list[Word]:
    """Admissible words of weight k >= 2 in canonical (packed value) order.

    There are 2^(k-2) of them: first letter x, last letter y, interior
    free.  This order fixes the column order of every relation matrix.
    """
    if k < 2:
        raise ValueError(f"weight must be >= 2, got {k}")
    return [Word(k, m << 1 | 1) for m in range(1 << (k - 2))]


def all_words(k: int) -> Iterator[Word]:
    """Every word of weight exactly k (2^k of them), packed order."""
    for bits in range(1 << k):
        yield Word(k, bits)
