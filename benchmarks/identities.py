#!/usr/bin/env python3
"""Time the series identities of two source trees in alternated pairs.

    python3 benchmarks/identities.py --cutoff 16 --pairs 3 OLD_TREE NEW_TREE
    python3 benchmarks/identities.py --cutoff 18 --part i --params 8 OLD NEW

Each run is a fresh interpreter that imports ``mzv`` from the tree's
``src`` (bytecode writing off, so no tree is changed) and checks the
chosen identities one after another, in one process, with
``verify_theorem_i`` for part (i) and ``verify_theorem_ii`` for part
(ii).  Those functions take any cutoff, so cutoffs above the CLI's cap
can be measured.  ``--part`` picks one part (both by default) and
``--params A`` or ``--params A-B`` the parameters m or n (by default
every one the cutoff admits: (i) needs a cutoff of at least m + 2 and
(ii) of at least n + 1).  A pair runs both trees, one after the other;
the tree that goes first alternates from pair to pair, so a drift in
the host's speed falls on both sides.  For each run it prints

* ``total_s``: the wall time of all the checks;
* ``peak_rss_mb``: the process's peak RSS, read after the last check;
* ``rss_rise_mb``: that peak minus the peak read just before the first
  check, so what the checks add, without interpreter start-up and
  import;
* ``memo``: the entries left in the ``lru_cache`` memos of
  ``mzv.operators``, the theta images (the identities fill no other);
* ``verified``: how many of the checks held;
* ``digest``: the first 12 hex digits of the sha1 of the checks'
  reports as JSON, without ``elapsed_ms``: their verdicts and residuals.

and then, per tree, the medians, the quartiles of ``total_s`` and how
many pairs NEW was faster in.  The exit status is 1 if the two trees'
digests differ, or a run fails, else 0; a ``--pairs`` below 1, a
``--cutoff`` outside 3..``MAX_CUTOFF`` or ``--params`` that select no
identity the cutoff admits are refused with exit status 2 before any
run starts.  The same tree may stand on both sides, as a check that the
script itself runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from span import alternate, quartiles, run_child  # noqa: E402

METRICS = ("total_s", "peak_rss_mb", "rss_rise_mb", "memo", "verified")
# the largest cutoff the records go to: (i) and (ii) for m, n <= 5 at
# cutoff 24 peak near 100 MB, while every admitted identity at cutoff 16
# already takes a few hundred
MAX_CUTOFF = 24
# (i) with parameter m needs a cutoff of at least m + 2, (ii) with n of n + 1
MARGIN = {"i": 2, "ii": 1}


def admitted(cutoff: int, parts, low: int, high: int) -> list[list]:
    """The (part, parameter) pairs of ``parts`` with a parameter in
    low..high that the cutoff admits, part (i) first."""
    return [[part, p] for part in parts
            for p in range(low, min(high, cutoff - MARGIN[part]) + 1)]


def child(cutoff: int, cases: list[list]) -> None:
    """One run, in the process that imported the tree: print its
    measurements as one JSON line."""
    import resource
    from time import perf_counter

    from mzv import operators, verify

    check = {"i": verify.verify_theorem_i, "ii": verify.verify_theorem_ii}
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t = perf_counter()
    reports = [check[part](p, cutoff) for part, p in cases]
    total = perf_counter() - t
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outputs = [{k: v for k, v in r.to_json().items() if k != "elapsed_ms"}
               for r in reports]
    memo = sum(f.cache_info().currsize for f in vars(operators).values()
               if callable(getattr(f, "cache_info", None)))
    print(json.dumps({
        "total_s": total, "peak_rss_mb": peak / 1024,
        "rss_rise_mb": (peak - before) / 1024, "memo": memo,
        "verified": sum(r.verdict for r in reports),
        "digest": hashlib.sha1(json.dumps(outputs).encode()).hexdigest()[:12],
        "mzv": verify.__file__}))


def run(tree: Path, cutoff: int, cases: list[list]) -> dict | None:
    return run_child(__file__, tree,
                     [json.dumps(cases), "--cutoff", str(cutoff)])


def params_range(text: str) -> tuple[int, int]:
    """``A`` or ``A-B`` as (A, A) or (A, B), with 1 <= A <= B."""
    low, _, high = text.partition("-")
    try:
        low, high = int(low), int(high or low)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not A or A-B: {text!r}")
    if not 1 <= low <= high:
        raise argparse.ArgumentTypeError(f"need 1 <= A <= B, got {text!r}")
    return low, high


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cutoff", type=int, default=12)
    parser.add_argument("--part", choices=("i", "ii"))
    parser.add_argument("--params", type=params_range, metavar="A[-B]")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--child", type=json.loads, help=argparse.SUPPRESS)
    parser.add_argument("trees", nargs="*", type=Path,
                        metavar="OLD_TREE NEW_TREE")
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.cutoff, args.child)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees, OLD and NEW")
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if not 3 <= args.cutoff <= MAX_CUTOFF:
        parser.error(f"--cutoff must lie in 3..{MAX_CUTOFF}, "
                     f"got {args.cutoff}")
    cases = admitted(args.cutoff, [args.part] if args.part else ["i", "ii"],
                     *(args.params or (1, args.cutoff)))
    if not cases:
        parser.error(f"--params select no identity that cutoff "
                     f"{args.cutoff} admits")
    print("identities: " + " ".join(f"({part}) {p}" for part, p in cases)
          + f" at cutoff {args.cutoff}")
    trees = [t.resolve() for t in args.trees]
    runs = alternate(
        trees, args.pairs, lambda tree: run(tree, args.cutoff, cases),
        lambda r: " ".join(f"{m} {r[m]:.3f}" for m in METRICS[:3])
        + f" memo {r['memo']} verified {r['verified']}/{len(cases)}"
        + f" digest {r['digest']}")
    if runs is None:
        return 1
    for side, name in enumerate(("OLD", "NEW")):
        print(f"{name} {trees[side]}: median " + " ".join(
            f"{m} {statistics.median(r[m] for r in runs[side]):.3f}"
            for m in METRICS[:3]) + "; quartiles total_s {:.3f}-{:.3f}"
            .format(*quartiles(r["total_s"] for r in runs[side])))
    faster = sum(b["total_s"] < a["total_s"] for a, b in zip(*runs))
    print(f"NEW faster in {faster} of {args.pairs} pairs")
    digests = {r["digest"] for r in runs[0] + runs[1]}
    if len(digests) != 1:
        print(f"the trees' outputs differ: {sorted(digests)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
