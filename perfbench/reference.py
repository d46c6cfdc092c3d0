"""A fixed reference computation that measures the host's current speed.

The benchmark shares a few cores of a busy host.  The speed at which
the host runs the process changes from second to second by up to
about 1.8x, and the share of a run spent slow changes from run to run,
so raw times of the same code spread more between runs than most
changes to the engine move them.  The runner therefore times
``reference()`` between operations throughout a run and divides each
operation's time by the reference times taken around it: host speed
changes both alike and cancels, a change to the engine changes only
the operation.

The reference is pure Python doing what the engine does most, in
frozen copies that no change to ``mzv`` moves: merging sparse integer
rows (the pure-Python row kernel) and summing polynomials held as dicts
keyed by word tuples (``Poly`` addition, which copies the left operand).
Of the mixes tried, this one cancelled the host's speed best on every
workload; big-integer dict updates, tried as a third part, made it
worse.  It takes 8 to 13 ms on the host the benchmark was tuned on,
as that host's speed varies.
"""

from __future__ import annotations

import random
from math import gcd

_rng = random.Random(7)
_ACOLS = sorted(_rng.sample(range(3000), 600))
_BCOLS = sorted(_rng.sample(range(3000), 600))
_AVALS = [_rng.randrange(1, 10**12) * _rng.choice((-1, 1)) for _ in _ACOLS]
_BVALS = [_rng.randrange(1, 10**12) * _rng.choice((-1, 1)) for _ in _BCOLS]
_WORDS = sorted({tuple(_rng.randrange(1, 4)
                       for _ in range(_rng.randrange(3, 9)))
                 for _ in range(4000)})
_TERMS = [{w: _rng.randrange(1, 6) * _rng.choice((-1, 1))
           for w in _rng.sample(_WORDS, 150)} for _ in range(40)]


def _combine(ca, acols, avals, cb, bcols, bvals):
    """``ca*A + cb*B`` over sparse rows, divided by its content."""
    cols = []
    vals = []
    i = j = 0
    na = len(acols)
    nb = len(bcols)
    while i < na and j < nb:
        c1 = acols[i]
        c2 = bcols[j]
        if c1 < c2:
            cols.append(c1)
            vals.append(ca * avals[i])
            i += 1
        elif c1 > c2:
            cols.append(c2)
            vals.append(cb * bvals[j])
            j += 1
        else:
            v = ca * avals[i] + cb * bvals[j]
            if v:
                cols.append(c1)
                vals.append(v)
            i += 1
            j += 1
    while i < na:
        cols.append(acols[i])
        vals.append(ca * avals[i])
        i += 1
    while j < nb:
        cols.append(bcols[j])
        vals.append(cb * bvals[j])
        j += 1
    g = 0
    for v in vals:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        vals = [v // g for v in vals]
    return cols, vals


def _poly_add(a: dict, b: dict) -> dict:
    """``a + b`` for polynomials as {word: coefficient} dicts."""
    out = dict(a)
    for w, c in b.items():
        v = out.get(w, 0) + c
        if v:
            out[w] = v
        else:
            del out[w]
    return out


def reference() -> int:
    """The fixed work whose time is the unit of ``wall_ref``."""
    n = 0
    for k in range(24):
        cols, _ = _combine(3 + k, _ACOLS, _AVALS, -7, _BCOLS, _BVALS)
        n += len(cols)
    acc = {}
    for terms in _TERMS:
        acc = _poly_add(acc, terms)
    return n + len(acc)
