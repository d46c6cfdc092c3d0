"""Seeded known-answer membership queries against the derivation span S.

Three equal groups, each labelled by a theorem rather than by the
engine under test:

* integer combinations of 2-4 derivation images d_n(w): members, since
  they are combinations of the generating rows of S;
* (1 - tau) d_n(w): members, because tau d_n tau = -d_n makes it equal
  to d_n(w + tau w);
* a member plus c*w for an admissible word w and c != 0: non-members,
  since every element of S evaluates to 0 under zeta while zeta(w) > 0.

The nonzero conjecture class sums of the weight are appended as further
members.  The labels are checked independently, by a dense rational
rank computation, in ``test_queries.py``.
"""

from __future__ import annotations

import random

from mzv import Poly, basis, duality, partial

COEFFS = (-3, -2, -1, 1, 2, 3)


def conjecture_sums(weight: int) -> list[Poly]:
    """Nonzero (1 - tau) of the sum of the words of depth n and leading
    exponent m, for all m, n >= 3."""
    classes: dict[tuple[int, int], list] = {}
    for w in basis(weight):
        if w.depth >= 3 and w.k1() >= 3:
            classes.setdefault((w.k1(), w.depth), []).append(w)
    sums = (duality(Poly.from_words(ws)) for _, ws in sorted(classes.items()))
    return [p for p in sums if p]


def known_answer_queries(weight: int, seed: int,
                         per_group: int) -> list[tuple[Poly, bool]]:
    """``3 * per_group`` labelled queries plus the conjecture sums, as
    (element, is_member) pairs in a seeded order."""
    if weight < 5:
        raise ValueError(f"weight must be >= 5, got {weight}")
    rng = random.Random(seed)
    words = {j: basis(j) for j in range(2, weight + 1)}

    def derivation_image() -> Poly:
        n = rng.randint(1, weight - 2)
        return partial(n, Poly.from_word(rng.choice(words[weight - n])))

    def combination() -> Poly:
        while True:
            p = Poly.zero()
            for _ in range(rng.randint(2, 4)):
                p = p + derivation_image().scale(rng.choice(COEFFS))
            if p:
                return p

    def dual_image() -> Poly:
        while True:
            p = duality(derivation_image())
            if p:
                return p

    def non_member() -> Poly:
        w = rng.choice(words[weight])
        return combination() + Poly.from_word(w, rng.choice(COEFFS))

    queries = [(combination(), True) for _ in range(per_group)]
    queries += [(dual_image(), True) for _ in range(per_group)]
    queries += [(non_member(), False) for _ in range(per_group)]
    queries += [(p, True) for p in conjecture_sums(weight)]
    rng.shuffle(queries)
    return queries
