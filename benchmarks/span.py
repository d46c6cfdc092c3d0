#!/usr/bin/env python3
"""Time ``table_column(K)`` of two source trees in alternated pairs.

    python3 benchmarks/span.py --weight 14 --pairs 4 OLD_TREE NEW_TREE

Each run is a fresh interpreter that imports ``mzv`` from the tree's
``src`` (bytecode writing off, so no tree is changed) and runs
``table_column(K)`` once.  A pair runs both trees, one after the other;
the tree that goes first alternates from pair to pair, so a drift in
the host's speed falls on both sides.  For each run it prints

* ``total_s``: the wall time of ``table_column(K)``;
* ``gen_s``: generating the derivation rows (``family_matrix``);
* ``build_s``: building their echelon;
* ``peak_rss_mb``: the process's peak RSS, read as ``table_column``
  returns;
* ``rss_rise_mb``: that peak minus the peak read just before
  ``table_column`` starts, so what the column itself adds, without
  interpreter start-up and import;
* ``digest``: the first 12 hex digits of the sha1 of
  ``repr(list(pivots.items()))`` of the derivation echelon, and the
  column's seven values.

and then, per tree, the medians, the quartiles of ``total_s`` and
``build_s`` (so a difference can be read against each side's spread)
and how many pairs NEW was faster in.  The exit status is 1 if the two
trees' digests or columns differ, or a run fails, else 0; a ``--pairs``
below 1 or a ``--weight`` outside 3..``cli.MAX_WEIGHT`` is refused with
exit status 2 before any run starts.  The same tree may stand on both
sides, as a check that the script itself runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("total_s", "gen_s", "build_s", "peak_rss_mb", "rss_rise_mb")
SPREAD = ("total_s", "build_s")


def child(k: int) -> None:
    """One run, in the process that imported the tree: print its
    measurements as one JSON line."""
    import resource
    from time import perf_counter

    from mzv import verify

    timed = {}
    real = verify.family_matrix

    def family_matrix(spec, weight):
        t = perf_counter()
        m = real(spec, weight)
        if spec == "derivation":
            timed["gen_s"] = perf_counter() - t
            t = perf_counter()
            timed["span"] = m.echelon()  # table_column reads it cached
            timed["build_s"] = perf_counter() - t
        return m

    verify.family_matrix = family_matrix
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t = perf_counter()
    col = verify.table_column(k)
    total = perf_counter() - t
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pivots = repr(list(timed.pop("span").pivots.items()))
    print(json.dumps({
        "total_s": total, **timed, "peak_rss_mb": peak / 1024,
        "rss_rise_mb": (peak - before) / 1024,
        "digest": hashlib.sha1(pivots.encode()).hexdigest()[:12],
        "column": [col[row] for row in range(1, 8)],
        "mzv": verify.__file__}))


def quartiles(values) -> tuple[float, float]:
    """The lower and upper quartiles, as ``statistics.quantiles(values,
    n=4)`` gives them; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_child(script: str, tree: Path, args: list[str]) -> dict | None:
    """Run ``script --child ARGS`` in a fresh interpreter that imports
    ``mzv`` from the tree's ``src``, with bytecode writing off, and return
    the JSON line it prints last; None, with the reason on stderr, if it
    fails or imports ``mzv`` from anywhere else."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, script, "--child", *args],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        print(proc.stderr, file=sys.stderr)
        return None
    r = json.loads(proc.stdout.splitlines()[-1])
    if not Path(r["mzv"]).is_relative_to(tree):
        print(f"mzv was imported from {r['mzv']}, not {tree}",
              file=sys.stderr)
        return None
    return r


def run(tree: Path, k: int) -> dict | None:
    return run_child(__file__, tree, [str(k)])


def alternate(trees: list[Path], pairs: int, run_one, describe
              ) -> list[list[dict]] | None:
    """``pairs`` pairs of ``run_one(tree)``, OLD first in odd pairs and
    NEW first in even ones, each run printed as ``describe(run)``: the
    runs of each tree, or None if a run failed."""
    runs: list[list[dict]] = [[], []]
    for i in range(pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            r = run_one(trees[side])
            if r is None:
                print(f"pair {i + 1}: the {('OLD', 'NEW')[side]} run failed")
                return None
            runs[side].append(r)
            print(f"pair {i + 1} {('OLD', 'NEW')[side]}: {describe(r)}")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--weight", type=int, default=14, metavar="K")
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("trees", nargs="*", type=Path,
                        metavar="OLD_TREE NEW_TREE")
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child)
        return 0
    # for MAX_WEIGHT only: each run imports the tree it times
    sys.path.insert(0, str(ROOT / "src"))
    from mzv.cli import MAX_WEIGHT
    if len(args.trees) != 2:
        parser.error("give two source trees, OLD and NEW")
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if not 3 <= args.weight <= MAX_WEIGHT:
        parser.error(f"--weight must lie in 3..{MAX_WEIGHT}, "
                     f"got {args.weight}")
    trees = [t.resolve() for t in args.trees]
    runs = alternate(trees, args.pairs, lambda tree: run(tree, args.weight),
                     lambda r: " ".join(f"{m} {r[m]:.3f}" for m in METRICS)
                     + f" digest {r['digest']} column {r['column']}")
    if runs is None:
        return 1
    for side, name in enumerate(("OLD", "NEW")):
        print(f"{name} {trees[side]}: median " + " ".join(
            f"{m} {statistics.median(r[m] for r in runs[side]):.3f}"
            for m in METRICS) + "; quartiles " + " ".join(
            "{} {:.3f}-{:.3f}".format(m, *quartiles(r[m] for r in runs[side]))
            for m in SPREAD))
    faster = sum(b["total_s"] < a["total_s"] for a, b in zip(*runs))
    print(f"NEW faster in {faster} of {args.pairs} pairs")
    outputs = {(r["digest"], tuple(r["column"])) for r in runs[0] + runs[1]}
    if len(outputs) != 1:
        print(f"the trees' outputs differ: {sorted(outputs)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
