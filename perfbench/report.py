#!/usr/bin/env python3
"""Run every workload several times and print all metrics by name and unit.

    python3 perfbench/report.py --runs 10

For each workload of ``BENCHMARK.json`` this runs ``run.py`` once per
seed 1..runs with tracing off, then once with tracing on (seed 1), each
in a fresh process, one at a time, for ``run_seconds``.  It prints

* one row per workload: the end-to-end metrics as median [q1, q3] and
  their spread (q3 - q1) / median, plus failed operations, the raw
  median repeat time in seconds (which ``wall_ref`` divides by the
  reference time) and, where the workload has them, query latency
  percentiles;
* the traced per-layer table, one column per workload;
* the trace overhead: the traced run's median operation time against the
  untraced median, next to the tracer's own estimate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return {"detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, int) or float(v).is_integer() and abs(v) >= 1:
        return f"{int(v)}"
    return f"{v:.4g}"


def summarize(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    spread = (q3 - q1) / med if med else 0.0
    return f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}] ±{spread:.1%}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    seconds = BENCHMARK["run_seconds"]
    workloads = [w["name"] for w in BENCHMARK["workloads"]]

    runs: dict[str, list[dict]] = {}
    traced: dict[str, dict] = {}
    for wl in workloads:
        runs[wl] = [run_once(wl, seed, seconds, 0)
                    for seed in range(1, args.runs + 1)]
        traced[wl] = run_once(wl, 1, seconds, 1)

    env = runs[workloads[0]][0]["detail"]["env"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()
                                      if k != "seed"))
    print(f"\nend-to-end, median [q1, q3] ±(q3-q1)/median over "
          f"{args.runs} runs of {seconds} s, seeds 1..{args.runs}")
    for wl in workloads:
        results = [r["result"] for r in runs[wl]]
        details = [r["detail"] for r in runs[wl]]
        cells = []
        for metric, m in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            cells.append(f"{metric} ({m['unit']}) {summarize(values)}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        verdict = "" if all(r["correct"] for r in results) else " INCORRECT"
        cells.append(f"failed_frac {failed}/{attempted}{verdict}")
        cells.append(f"ops/run {summarize([d['ops'] for d in details])}")
        cells.append("raw repeat (s) "
                     + summarize([d["repeat_median_s"] for d in details]))
        for key in ("query_p50_ms", "query_p99_ms"):
            if key in details[0]:
                values = [d[key] for d in details if d[key] is not None]
                cells.append(f"{key} (ms) "
                             + (summarize(values) if values
                                else "unresolved (<10 samples beyond)"))
        print(f"{wl:15s} " + " | ".join(cells))

    print("\nper layer, traced run (seed 1)")
    print(f"{'metric':28s} {'unit':6s} "
          + " ".join(f"{wl:>16s}" for wl in traced))
    first = next(iter(traced.values()))["result"]["metrics"]
    for metric, m in first.items():
        vals = [t["result"]["metrics"][metric]["value"]
                for t in traced.values()]
        print(f"{metric:28s} {m['unit']:6s} "
              + " ".join(f"{fmt(v):>16s}" for v in vals))
    print("\ntrace overhead (traced median op time / untraced - 1; "
          "tracer's estimate)")
    for wl, t in traced.items():
        untraced = quartiles([r["detail"]["op_median_s"]
                              for r in runs[wl]])[1]
        measured = t["detail"]["op_median_s"] / untraced - 1
        estimate = t["result"]["metrics"]["trace.overhead_frac"]["value"]
        print(f"{wl:15s} measured {measured:+.1%}  estimated "
              f"{estimate:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
