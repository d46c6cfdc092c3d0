"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and avoids the library's own
code paths: string manipulation instead of bit packing, dense Fraction
elimination instead of sparse fraction-free elimination, literal
nested loops instead of prefix-sum dynamic programming.
"""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction


def tau_str(word: str) -> str:
    """Duality on the string form: reverse, then swap the letters."""
    swap = {"x": "y", "y": "x"}
    return "".join(swap[ch] for ch in reversed(word))


def self_dual_count(k: int) -> int:
    """Number of admissible weight-k words fixed by duality, by brute
    enumeration over all strings."""
    count = 0
    for m in range(1 << k):
        word = "".join("y" if m >> (k - 1 - i) & 1 else "x"
                       for i in range(k))
        if word[0] == "x" and word[-1] == "y" and tau_str(word) == word:
            count += 1
    return count


def composition_of_str(word: str) -> tuple[int, ...]:
    ks = []
    run = 0
    for ch in word:
        if ch == "y":
            ks.append(run + 1)
            run = 0
        else:
            run += 1
    assert run == 0, "inadmissible word"
    return tuple(ks)


def dense_rref(rows: list[list]) -> list[list[Fraction]]:
    """The nonzero rows of the reduced row echelon form, by Gauss-Jordan
    elimination over Fractions on dense rows: each leads with 1 and is 0
    in the other rows' leading columns, in increasing leading column."""
    if not rows:
        return []
    mat = [[Fraction(v) for v in row] for row in rows]
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return mat[:rank]


def dense_rank(rows: list[list]) -> int:
    """Rank by Gaussian elimination over Fractions on dense rows."""
    return len(dense_rref(rows))


def dense_combine(ca, acols, avals, cb, bcols, bvals) -> tuple[list, list]:
    """ca*A + cb*B on dense integer rows, back to sparse (cols, vals)
    with the zeros dropped and the values divided by their content."""
    width = max(acols + bcols, default=-1) + 1
    dense = [0] * width
    for col, val in zip(acols, avals):
        dense[col] += ca * val
    for col, val in zip(bcols, bvals):
        dense[col] += cb * val
    cols = [col for col in range(width) if dense[col]]
    content = math.gcd(*(dense[col] for col in cols))
    return cols, [dense[col] // content for col in cols]


def dense_rows_of_polys(polys, k: int) -> list[list]:
    """Dense coordinate rows in the canonical weight-k basis order."""
    from mzv.words import basis
    index = {w: i for i, w in enumerate(basis(k))}
    rows = []
    for p in polys:
        if p.is_zero():
            continue
        row = [0] * len(index)
        for w, c in p.terms.items():
            row[index[w]] = c
        rows.append(row)
    return rows


def zeta_brute(ks, limit: int) -> float:
    """Literal nested sum over limit >= m_1 > m_2 > ... > m_n > 0."""
    n = len(ks)

    def rec(level: int, upper: int) -> float:
        if level == n:
            return 1.0
        total = 0.0
        for m in range(n - level, upper):
            total += rec(level + 1, m) / m ** ks[level]
        return total

    return rec(0, limit + 1)


def zeta_depth1_direct(k: int, terms: int) -> float:
    """High-accuracy depth-1 partial sum (small terms first)."""
    return math.fsum(1.0 / m ** k for m in range(terms, 0, -1))


# Closed forms of low-weight MZVs, keyed by composition: Apery's constant
# for zeta(2,1) = zeta(3) (Euler), duality for zeta(2,1,1) = zeta(4) and
# zeta(2,1,1,1,1) = zeta(6), Euler's evaluations of zeta(3,1) and of
# zeta(2,2) = (zeta(2)^2 - zeta(4)) / 2.
def zeta_closed_forms() -> dict[tuple[int, ...], float]:
    pi = math.pi
    return {
        (2, 1): 1.2020569031595942853997,
        (2, 1, 1): pi**4 / 90,
        (3, 1): pi**4 / 360,
        (2, 2): pi**4 / 120,
        (2, 1, 1, 1, 1): pi**6 / 945,
    }


# Euler's closed forms of zeta(4), zeta(6) and zeta(8), keyed by exponent.
def zeta_even_closed_forms() -> dict[int, float]:
    return {4: math.pi**4 / 90, 6: math.pi**6 / 945, 8: math.pi**8 / 9450}


# theta_l by the partition formula over the commuting derivations:
# theta_l = sum over partitions lambda of l of partial_lambda / z_lambda,
# an independent path to the u^l coefficient of Delta_u.
def partitions(l: int) -> list[tuple[int, ...]]:
    """Partitions of l as descending tuples."""
    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - part, part):
                yield (part,) + tail
    return list(gen(l, l))


def symmetry_factor(parts: tuple[int, ...]) -> int:
    """z_lambda = prod_j j^(m_j) m_j! over part multiplicities m_j."""
    z = 1
    mult = 1
    for i, part in enumerate(parts):
        mult = mult + 1 if i and parts[i - 1] == part else 1
        z *= part * mult
    return z


def theta_by_partitions(l: int, p):
    """Degree-l part of exp(sum_n partial_n / n), as the Fraction-weighted
    sum of derivation chains partial_lambda(p) / z_lambda."""
    from mzv.operators import partial
    from mzv.poly import Poly
    out = Poly.zero()
    for parts in partitions(l):
        q = p
        for n in parts:
            q = partial(n, q)
        out = out + q.scale(Fraction(1, symmetry_factor(parts)))
    return out


@functools.cache
def image_by_first_letter(inverse: bool, l: int, length: int,
                          bits: int) -> dict:
    """u^l coefficient of Delta_u of the word (length, bits), or of its
    inverse, by the first-letter expansion: the sum over j of the first
    letter's u^j term times the u^(l-j) coefficient of the rest.
    Delta_u:  x -> x / (1 - y u), y -> (1 - x u - y u) y / (1 - y u);
    inverse:  x -> x (1 - x u - y u) / (1 - x u), y -> y / (1 - x u).
    Words are packed as in ``mzv.words`` (x = 0, first letter highest),
    so the millions of terms of the tests' cases compare as dicts of
    ints; every result word has length + l letters.  Cached: do not
    modify the result."""
    if l == 0:
        return {bits: 1}
    if not length:
        return {}
    shift = length - 1
    letter, rest = bits >> shift, bits & (1 << shift) - 1
    out = Counter()
    for j in range(l + 1):
        if j == 0:  # the letter itself
            head, sign = letter, 1
        elif inverse:  # x^j y
            head, sign = 1, 1 if letter else -1
        else:  # x y^j
            head, sign = (1 << j) - 1, -1 if letter else 1
        top = head << shift + l - j
        for v, c in image_by_first_letter(inverse, l - j, shift, rest).items():
            out[top | v] += sign * c
    return {v: c for v, c in out.items() if c}


# Ohno's relations (Ohno, J. Number Theory 74 (1999)): for an admissible
# composition k and l >= 0, the sum of zeta(k + e) over e >= 0 with
# |e| = l equals the same sum for the dual composition.  Ihara, Kaneko
# and Zagier (2006) proved that they span the union of the duality and
# derivation spans, row 6 of the table.
def spreads(ks: tuple[int, ...], l: int):
    """Every composition k + e with e >= 0 componentwise and |e| = l."""
    if not ks:
        if l == 0:
            yield ()
        return
    for e in range(l + 1):
        for rest in spreads(ks[1:], l - e):
            yield (ks[0] + e,) + rest


def word_str_of_composition(ks) -> str:
    return "".join("x" * (k - 1) + "y" for k in ks)


def ohno_relations(k: int) -> list:
    """Ohno's relations of weight k, as Polys: for every l and every
    admissible word w of weight k - l, one word per duality orbit, the
    spreads of w's composition minus the spreads of its dual's."""
    from mzv.poly import Poly
    from mzv.words import word_from_letters
    rels = []
    for l in range(k - 1):
        for mid in itertools.product("xy", repeat=k - l - 2):
            w = "x" + "".join(mid) + "y"
            dual = tau_str(w)
            if dual < w:  # the relation of the dual word is the negative
                continue
            terms = Counter()
            for ks, sign in ((composition_of_str(w), 1),
                             (composition_of_str(dual), -1)):
                for spread in spreads(ks, l):
                    terms[word_str_of_composition(spread)] += sign
            rels.append(Poly({word_from_letters(s): c
                              for s, c in terms.items()}))
    return rels
