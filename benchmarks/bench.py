#!/usr/bin/env python3
"""Record the benchmark of a source tree, or two, as ``BENCH_<name>.json``.

    python3 benchmarks/bench.py --name 9
    python3 benchmarks/bench.py --name 9 --parent ../parent-checkout

For each workload of the tree's ``BENCHMARK.json`` this runs the tree's
own runner (``perfbench/report.py``'s ``run_once``, which starts the
tree's ``run.py`` in a fresh process) once per seed of ``SEEDS`` with
tracing off, then once traced (first seed), and writes, next to this
repository's root,

* per workload: the median of each end-to-end metric over the seeds,
  every run's value, the operations attempted and failed, and the
  traced counts (the per-layer metrics in counts and bits, which repeat
  exactly for a seed).  ``setup_s`` is the exception: in place of its
  median it holds the lower quartile of every set-up repeat of every
  seed's run (a fresh import plus the workload's set-up, from the
  runner's detail line), pooled, and those samples are kept as
  ``setup_s_samples``.  Host load only adds to a set-up time, and it
  lasts across a run's repeats, so a median of three runs' medians
  moves with it; the low end of all fifteen repeats moves less;
* the environment: Python and numpy versions, CPU count, platform and
  the tree's git revision, as ``run.py`` reports them, and whether the
  tree had uncommitted changes to tracked files other than the
  ``BENCH_*.json`` records (``git_dirty``): the numbers of such a tree
  are those of the revision plus its changes.

With ``--parent`` it records two trees in one call, the parent as
``BENCH_<name>_parent.json`` and ``--tree`` as ``BENCH_<name>.json``:
each seed runs both, and the tree that goes first alternates from seed
to seed, so a drift in the host's speed falls on both sides.  Both
trees run the workloads and ``run_seconds`` of the parent's
``BENCHMARK.json``.

The runs import each tree with ``PYTHONPYCACHEPREFIX`` set to a fresh
empty directory of its own, and bytecode writing on, so bytecode that
an earlier run left in the tree cannot make its imports faster, and
every run but the tree's first imports the bytecode of this recording.
The benchmark itself is not changed; a run that exits nonzero or
prints no result stops the recording.

    python3 benchmarks/bench.py --compare BENCH_9_parent.json BENCH_9.json

compares two such records: for each workload, the ratio NEW/OLD of
each end-to-end median, flagged when it is worse than the metric's
bound in this repository's ``BENCHMARK.json``; a workload missing from
NEW, a run that was not correct or a larger share of failed operations
is flagged too.  The traced counts that changed are listed.  The exit
status is 1 if anything was flagged, else 0.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
COUNT_UNITS = ("count", "bits")


def git_dirty(tree: Path) -> bool | None:
    """Whether tracked files other than the recorded ``BENCH_*.json``
    differ from the checked-out revision; None where git cannot tell."""
    try:
        proc = subprocess.run(["git", "-C", str(tree), "status",
                               "--porcelain", "--untracked-files=no",
                               "--", ".", ":(exclude)BENCH_*.json"],
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def runner(tree: Path):
    """The tree's own runner, its ``perfbench/report.py``, which reads the
    tree's ``BENCHMARK.json``: the module ``report`` if that is the
    tree's, else the tree's imported afresh under that name."""
    path = tree / "perfbench" / "report.py"
    loaded = sys.modules.get("report")
    if loaded is None or Path(loaded.__file__).resolve() != path.resolve():
        sys.modules.pop("report", None)
        sys.path.insert(0, str(path.parent))
        loaded = importlib.import_module("report")
    return loaded


def record(*trees: Path) -> list[dict]:
    """One record per tree; the trees take turns, seed by seed."""
    runners = [runner(tree) for tree in trees]
    # the runner processes inherit a fresh, empty bytecode cache, one per
    # tree, so they neither read nor write the tree's __pycache__; the
    # first import fills it, so every tree is timed with its own
    # bytecode, as installed
    with ExitStack() as stack:
        caches = [stack.enter_context(
            tempfile.TemporaryDirectory(prefix="bench-pycache-"))
            for _ in trees]
        stack.enter_context(patch.dict(os.environ))
        os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
        return _record(trees, runners, caches)


def _record(trees: list[Path], runners: list, caches: list[str]
            ) -> list[dict]:
    bench = runners[0].BENCHMARK
    seconds = bench["run_seconds"]
    labels = [""] if len(trees) == 1 else [" OLD", " NEW"]
    envs = [None] * len(trees)

    def run(side: int, wl: str, seed: int, trace: int) -> dict:
        os.environ["PYTHONPYCACHEPREFIX"] = caches[side]
        out = runners[side].run_once(wl, seed, seconds, trace)
        envs[side] = envs[side] or out["detail"]["env"]
        return out

    workloads: list[dict] = [{} for _ in trees]
    for wl in (w["name"] for w in bench["workloads"]):
        runs: list[list[dict]] = [[] for _ in trees]
        sides = list(range(len(trees)))
        for seed in SEEDS:
            for side in sides:
                r = run(side, wl, seed, 0)
                runs[side].append(r)
                print(f"{wl} seed {seed}{labels[side]}: " + ", ".join(
                    f"{k} {m['value']:.4g}"
                    for k, m in r["result"]["metrics"].items()),
                    file=sys.stderr)
            sides.reverse()  # the side that runs first alternates
        for side in range(len(trees)):
            traced = run(side, wl, SEEDS[0], 1)["result"]
            workloads[side][wl] = _summary(runs[side], traced)
    return [{
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "python": env["python"],
        "numpy": env["numpy"],
        "nproc": env["nproc"],
        "platform": env["platform"],
        "git_revision": env["git_revision"],
        "git_dirty": git_dirty(tree),
        "workloads": wls,
    } for tree, env, wls in zip(trees, envs, workloads)]


def _summary(runs: list[dict], traced: dict) -> dict:
    """One tree's record of a workload, from its untraced runs (the
    runner's detail and result lines) and its traced result."""
    results = [r["result"] for r in runs]
    metrics = results[0]["metrics"]
    summary = {
        "median": {k: statistics.median(r["metrics"][k]["value"]
                                        for r in results)
                   for k in metrics},
        "runs": {k: [r["metrics"][k]["value"] for r in results]
                 for k in metrics},
        "units": {k: m["unit"] for k, m in metrics.items()},
        "correct": all(r["correct"] for r in results + [traced]),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "traced_counts": {k: m["value"]
                          for k, m in traced["metrics"].items()
                          if m["unit"] in COUNT_UNITS},
    }
    if "setup_s" in metrics:
        # set-up is fixed work, a fresh import plus the workload's set-up,
        # which the host can slow down but not speed up, and the repeats
        # of one run share the host's state: so the lower quartile of
        # every run's repeats, pooled, not a median of the runs' medians
        samples = [a + b for r in runs
                   for a, b in zip(r["detail"]["import_probe_s"],
                                   r["detail"]["setup_repeats_s"])]
        summary["median"]["setup_s"] = statistics.quantiles(samples, n=4)[0]
        summary["setup_s_samples"] = samples
    return summary


def _worse_by(old: float, new: float, better: str) -> float:
    """How much worse new is than old, as a fraction of old."""
    return (new - old) / old if better == "lower" else (old - new) / old


def _failed_share(w: dict) -> float:
    return w["failed"] / w["attempted"] if w["attempted"] else 0.0


def compare(old: dict, new: dict, end_to_end: list[dict]
            ) -> tuple[list[str], list[str]]:
    """Report lines and flags for the record ``new`` against ``old``,
    with the metric bounds ``end_to_end`` of ``BENCHMARK.json``."""
    lines: list[str] = []
    flags: list[str] = []
    for wl, w_old in old["workloads"].items():
        w_new = new["workloads"].get(wl)
        if w_new is None:
            flags.append(f"{wl}: missing from the new record")
            continue
        lines.append(f"{wl}:")
        for metric in end_to_end:
            name = metric["name"]
            a, b = w_old["median"][name], w_new["median"][name]
            worse = _worse_by(a, b, metric["better"])
            flag = worse > metric["bound"]
            lines.append(f"  {name:<12} {a:>10.4g} -> {b:<10.4g} x{b / a:.3f}"
                         + (f"  WORSE than the bound {metric['bound']:.0%}"
                            if flag else ""))
            if flag:
                flags.append(f"{wl}: {name} {a:.4g} -> {b:.4g}, worse by "
                             f"{worse:.1%}, bound {metric['bound']:.0%}")
        if not w_new["correct"]:
            flags.append(f"{wl}: not correct in the new record")
        if _failed_share(w_new) > _failed_share(w_old):
            flags.append(f"{wl}: failed share {_failed_share(w_old):.2%} "
                         f"-> {_failed_share(w_new):.2%}")
        counts_old, counts_new = w_old["traced_counts"], w_new["traced_counts"]
        for name in sorted(counts_old.keys() | counts_new.keys()):
            a, b = counts_old.get(name), counts_new.get(name)
            if a != b:
                lines.append(f"  traced {name}: {a} -> {b}")
    return lines, flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--name",
                        help="the file written is BENCH_<name>.json")
    action.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD.json", "NEW.json"),
                        help="compare two records instead of recording")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="source tree to benchmark (default: this one)")
    parser.add_argument("--parent", type=Path,
                        help="record this tree too, as BENCH_<name>_parent"
                             ".json, taking turns with --tree seed by seed")
    args = parser.parse_args(argv)
    if args.parent and args.compare:
        parser.error("--parent records; it does not go with --compare")
    if args.compare:
        old, new = (json.loads(p.read_text()) for p in args.compare)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        lines, flags = compare(old, new, spec["end_to_end"])
        print("\n".join(lines))
        for flag in flags:
            print("FLAG " + flag)
        return 1 if flags else 0
    trees = [args.tree] if args.parent is None else [args.parent, args.tree]
    names = [f"{args.name}_parent", args.name][-len(trees):]
    for name, rec in zip(names, record(*(t.resolve() for t in trees))):
        out = ROOT / f"BENCH_{name}.json"
        out.write_text(json.dumps(rec, indent=2) + "\n")
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
