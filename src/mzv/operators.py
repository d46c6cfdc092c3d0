"""Linear operators on the word algebra: tau, partial_n, theta_l, Delta_u.

* ``tau`` is the anti-automorphism reversing each word and swapping the
  letters; ``(1 - tau)`` of an admissible word is a duality relation.
* ``partial(n, .)`` is the degree-n derivation determined by
  ``partial_n(x) = -partial_n(y) = x (x+y)^(n-1) y`` and the Leibniz
  rule; it raises weight by n and preserves the admissible subalgebra,
  where its image consists of kernel relations.
* ``delta_u`` / ``delta_u_inv`` are the substitution automorphisms of
  the power-series extension in an indeterminate u, truncated at a
  weight cutoff.  Every letter image is a sum of words +-x y^j or
  +-x^j y at u^j, so the u^l coefficient of a word's image is a short
  recursion over its first letter, with integer coefficients.
* ``theta(l, .)``, the degree-l homogeneous part of
  ``exp(sum_n partial_n / n)``, is the u^l coefficient of ``delta_u``
  (Ihara-Kaneko-Zagier) and is computed as exactly that, not by the
  partition formula over the commuting ``partial_n``.
* ``theta_all(p, cutoff)``, Theta = sum_l theta_l (the u = 1 value of
  Delta_u), truncated at a weight cutoff, is one recursion over the
  left quotients of p: Theta is multiplicative, so p's terms are split
  by first letter, each quotient is imaged once for all degrees, and
  the letter's u^j terms are prefixed to the parts of its image.  The
  degrees of a quotient cancel before anything is prefixed, which the
  sum at one fixed degree l cannot do, so ``theta``, ``delta_u`` and
  ``delta_u_inv`` stay word by word.  The recursion reads no memo: it
  shares only ``_letter_term`` with the per-word images, so each path
  checks the other.

Both the per-word images and the recursion sum weight by weight, where
a word's packed bits alone name it: a letter term is prefixed as
``top | v``, and the ``Word``s of a result are built once, at the end.
The derivation insertions and the per-word Delta_u images are
memoized; the caches are write-once and safe to share.  A word's
partial_n image is not memoized, since the generators ask for each
(n, word) pair once.
"""

from __future__ import annotations

from functools import lru_cache

from .poly import Coeff, Poly, accumulate
from .words import Word


# -- duality -----------------------------------------------------------


def tau(p: Poly) -> Poly:
    """Anti-automorphism with tau(x) = y, tau(y) = x, applied linearly."""
    return p.map_words(Word.tau)


def duality(p: Poly) -> Poly:
    """(1 - tau) applied to p."""
    return p - tau(p)


# -- derivations -------------------------------------------------------


@lru_cache(maxsize=None)
def _insertions(n: int) -> tuple[tuple[int, int], ...]:
    """Packed middle words x v y, v over {x,y}^(n-1), as (bits, length)."""
    return tuple(((v << 1 | 1), n + 1) for v in range(1 << (n - 1)))


def _partial_word(n: int, w: Word) -> Poly:
    """partial_n of a single word via the Leibniz expansion."""
    length, bits = w
    acc: dict[Word, Coeff] = {}
    for i in range(length):
        shift = length - 1 - i
        sign = -1 if bits >> shift & 1 else 1
        prefix = bits >> (shift + 1)
        suffix = bits & (1 << shift) - 1
        accumulate(acc, ((Word(length + n,
                               (prefix << mid_len | mid_bits) << shift
                               | suffix), 1)
                         for mid_bits, mid_len in _insertions(n)), sign)
    return Poly._of(acc)


def partial(n: int, p: Poly) -> Poly:
    """The derivation partial_n extended linearly; partial_n(1) = 0."""
    if n < 1:
        raise ValueError(f"derivation index must be positive, got {n}")
    acc: dict[Word, Coeff] = {}
    for w, c in p.terms.items():
        accumulate(acc, _partial_word(n, w).terms.items(), c)
    return Poly._of(acc)


# -- substitution automorphism of h[[u]] and its u-coefficients -------


class UPoly:
    """Element of the u-power-series extension, truncated.

    ``coeffs`` maps a u-power to a nonzero Poly.  Every operation here
    preserves the invariant that no zero Poly is stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Poly] | None = None):
        self.coeffs = {l: p for l, p in (coeffs or {}).items() if p}

    def coeff(self, l: int) -> Poly:
        return self.coeffs.get(l, Poly.zero())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({p})*u^{l}" for l, p in sorted(self.coeffs.items()))


def _letter_term(inverse: bool, is_y: int, j: int) -> tuple[int, int, int]:
    """Sign, length and packed bits of the u^j term of a letter's image.

    Delta_u:  x -> x / (1 - y u),              u^j term  x y^j;
              y -> (1 - x u - y u) y / (1 - y u), y, then -x y^j.
    inverse:  x -> x (1 - x u - y u) / (1 - x u), x, then -x^j y;
              y -> y / (1 - x u),              u^j term  x^j y.
    Every term has weight j + 1, so the u^l part of a word's image has
    weight (word length) + l.
    """
    if j == 0:
        return 1, 1, is_y
    sign = -1 if bool(is_y) != inverse else 1
    return sign, j + 1, 1 if inverse else (1 << j) - 1


@lru_cache(maxsize=None)
def _image_word(inverse: bool, l: int, w: Word) -> dict[int, Coeff]:
    """u^l coefficient of Delta_u(w), or of Delta_u^-1(w) if inverse, as
    packed bits -> coefficient (every word has length |w| + l; the dict
    is the memo's, so read only): the sum over j of the first letter's
    u^j term times the u^(l-j) coefficient of the rest of the word."""
    if l == 0:
        return {w.bits: 1}
    if w.length == 0:
        return {}
    shift = w.length - 1
    rest = Word(shift, w.bits & (1 << shift) - 1)
    letter = w.bits >> shift & 1
    # u^0 term: the letter; the tail's u^(l-j) words have length shift + l - j
    acc = {letter << shift + l | v: c
           for v, c in _image_word(inverse, l, rest).items()}
    for j in range(1, l + 1):
        sign, _, head_bits = _letter_term(inverse, letter, j)
        top = head_bits << shift + l - j
        accumulate(acc, ((top | v, c) for v, c in
                         _image_word(inverse, l - j, rest).items()), sign)
    return acc


def _images(inverse: bool, l: int, p: Poly, cutoff: int) -> Poly:
    """u^l coefficient of Delta_u(p), or of its inverse, over the words w
    of p with |w| + l <= cutoff, summed weight by weight on packed bits."""
    parts: dict[int, dict[int, Coeff]] = {}
    for w, c in p.terms.items():
        if w.length + l <= cutoff:
            accumulate(parts.setdefault(w.length + l, {}),
                       _image_word(inverse, l, w).items(), c)
    return Poly._of_parts(parts.items())


def _theta_graded(parts: list[dict[int, Coeff]]) -> list[dict[int, Coeff]]:
    """Theta of the series with weight-k part ``parts[k]`` (packed bits
    -> coefficient), truncated at budget = len(parts) - 1, graded alike.

    Theta(a q) = Theta(a) Theta(q): the terms are split by first letter
    a, the left quotient q of each letter is imaged once, for all
    degrees, and a's u^j term is prefixed to the parts of weight
    <= budget - j - 1 of that image.
    """
    budget = len(parts) - 1
    out = [dict(parts[0])] + [{} for _ in range(budget)]
    quotients = ([{} for _ in range(budget)], [{} for _ in range(budget)])
    for n, part in enumerate(parts[1:]):
        mask = (1 << n) - 1
        for bits, c in part.items():
            quotients[bits >> n][n][bits & mask] = c
    for letter, quotient in enumerate(quotients):
        if not any(quotient):
            continue
        image = [(k, part.items()) for k, part in
                 enumerate(_theta_graded(quotient)) if part]
        for j in range(budget):
            sign, head_len, head_bits = _letter_term(False, letter, j)
            for k, part in image:
                n = head_len + k
                if n > budget:
                    break
                top = head_bits << k
                accumulate(out[n], ((top | v, c) for v, c in part), sign)
    return out


def theta_all(p: Poly, cutoff: int) -> Poly:
    """Theta(p) = sum over l of theta_l(p), truncated at the cutoff: each
    word's degree-l image is kept while |w| + l <= cutoff.  Computed by
    one recursion over the left quotients of p (``_theta_graded``)."""
    if p.max_weight() > cutoff:
        raise ValueError("cutoff below the weight of the input")
    return Poly._of_parts(enumerate(_theta_graded(p.graded(cutoff))))


def theta(l: int, p: Poly) -> Poly:
    """Degree-l part of exp(sum_n partial_n / n); theta_0 is the identity.

    Computed as the u^l coefficient of Delta_u, word by word.
    """
    if l < 0:
        raise ValueError(f"theta degree must be >= 0, got {l}")
    if l == 0:
        return p
    return _images(False, l, p, p.max_weight() + l)


def _substitute(inverse: bool, p: Poly, cutoff: int) -> UPoly:
    if p.max_weight() > cutoff:
        raise ValueError("cutoff below the weight of the input")
    # a word's u^l part has weight |w| + l: kept whole within the cutoff
    return UPoly({l: _images(inverse, l, p, cutoff)
                  for l in range(cutoff + 1)})


def delta_u(p: Poly, cutoff: int) -> UPoly:
    """Substitution automorphism Delta_u, truncated at the cutoff.

    Both the total {x,y}-weight and the u-power of kept terms are
    bounded by ``cutoff``; the u^0 part is p itself and the u^l part
    equals theta(l, p) wherever the truncation keeps it whole.
    """
    return _substitute(False, p, cutoff)


def delta_u_inv(p: Poly, cutoff: int) -> UPoly:
    """Inverse substitution automorphism, truncated at the cutoff."""
    return _substitute(True, p, cutoff)
