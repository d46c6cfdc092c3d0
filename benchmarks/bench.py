#!/usr/bin/env python3
"""Record the benchmark of one source tree as ``BENCH_<name>.json``.

    python3 benchmarks/bench.py --name 9
    python3 benchmarks/bench.py --name 9_parent --tree ../parent-checkout

For each workload of the tree's ``BENCHMARK.json`` this runs the tree's
own runner (``perfbench/report.py``'s ``run_once``, which starts the
tree's ``run.py`` in a fresh process) once per seed of ``SEEDS`` with
tracing off, then once traced (first seed), and writes, next to this
repository's root,

* per workload: the median of each end-to-end metric over the seeds,
  every run's value, the operations attempted and failed, and the
  traced counts (the per-layer metrics in counts and bits, which repeat
  exactly for a seed);
* the environment: Python and numpy versions, CPU count, platform and
  the tree's git revision, as ``run.py`` reports them, and whether the
  tree had uncommitted changes to tracked files other than the
  ``BENCH_*.json`` records (``git_dirty``): the numbers of such a tree
  are those of the revision plus its changes.

The benchmark itself is not changed; a run that exits nonzero or
prints no result stops the recording.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

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


def record(tree: Path) -> dict:
    sys.path.insert(0, str(tree / "perfbench"))
    import report  # the tree's runner, reading the tree's BENCHMARK.json

    seconds = report.BENCHMARK["run_seconds"]
    workloads = {}
    env = None
    for wl in (w["name"] for w in report.BENCHMARK["workloads"]):
        runs = []
        for seed in SEEDS:
            run = report.run_once(wl, seed, seconds, 0)
            env = env or run["detail"]["env"]
            runs.append(run["result"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g}"
                for k, m in run["result"]["metrics"].items()),
                file=sys.stderr)
        traced = report.run_once(wl, SEEDS[0], seconds, 1)["result"]
        metrics = runs[0]["metrics"]
        workloads[wl] = {
            "median": {k: statistics.median(r["metrics"][k]["value"]
                                            for r in runs)
                       for k in metrics},
            "runs": {k: [r["metrics"][k]["value"] for r in runs]
                     for k in metrics},
            "units": {k: m["unit"] for k, m in metrics.items()},
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced_counts": {k: m["value"]
                              for k, m in traced["metrics"].items()
                              if m["unit"] in COUNT_UNITS},
        }
    return {
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "python": env["python"],
        "numpy": env["numpy"],
        "nproc": env["nproc"],
        "platform": env["platform"],
        "git_revision": env["git_revision"],
        "git_dirty": git_dirty(tree),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--name", required=True,
                        help="the file written is BENCH_<name>.json")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="source tree to benchmark (default: this one)")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.name}.json"
    report = record(args.tree.resolve())
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
