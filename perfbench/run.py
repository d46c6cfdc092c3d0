#!/usr/bin/env python3
"""End-to-end benchmark of mzv: one workload, one seed, one process.

    python3 perfbench/run.py --workload table-w10 --seed 1 --seconds 30 --trace 0

Run from the root of a source tree: the engine is imported from
``src/`` and the report schemas are read from ``docs/``; without them
the run exits with status 2 and prints no result.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: importing mzv in a fresh interpreter plus the workload's
  set-up before the first timed operation, both measured
  ``SETUP_REPEATS`` times; the median of their sums.
* ``wall_ref``: operations run back to back, each checked, until
  ``--seconds`` have passed and the last repeat is whole.  The run is a
  sequence of repeats of the same work (one table, one round of ten
  identities, one pass over the seeded queries).  Every
  ``REF_EVERY_S`` seconds, between two operations, the runner times the
  fixed ``reference.reference()`` computation.  Each operation's time
  is divided by the mean of the reference times taken within
  ``REF_WINDOW_S`` seconds of it, which cancels the host's changing
  speed (see ``reference.py``); a repeat's value is the sum over its
  operations, and ``wall_ref`` is the median over repeats, in units of
  the reference's time.  The raw repeat times are in the detail line.
* ``peak_rss_mb``: peak resident memory of the process.

Before the set-up, untimed, every run makes a small known-answer smoke
check that touches each layer (see ``workloads.smoke``).

``--trace 1`` patches the engine's layer boundaries (see
``tracing.py``), sets up once and runs exactly one repeat, so that the
per-layer counts repeat exactly for a given seed.  A boundary missing
from the engine ends the run with status 2 and no result.

Standard output ends with two JSON lines: the run's details (the
environment, every repeat's time, latency percentiles, failures) and the
result object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every mismatch or exception is printed to standard error
as it is found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
REF_EVERY_S = 0.2
REF_WINDOW_S = 1.0
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mzv, mzv.cli; "
                "print(time.perf_counter() - t)")


def git_revision(root: Path) -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    import mzv
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": mzv.kernel_backend,
        "nproc": nproc,
        "platform": platform.platform(),
        "git_revision": git_revision(ROOT),
        "seed": seed,
    }


def import_seconds(src: Path) -> float:
    """Time to import mzv in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout)


def report_problems(where: str, problems: list[str]) -> int:
    for p in problems:
        print(f"FAILED {where}: {p}", file=sys.stderr)
    return len(problems)


def check(wl, i: int, outcome) -> list[str]:
    """Problems with one outcome; an exception, raised by the operation
    or by the check itself, is one."""
    if isinstance(outcome, Exception):
        return [f"raised {type(outcome).__name__}: {outcome}"]
    try:
        return wl.check(i, outcome)
    except Exception as exc:
        traceback.print_exc()
        return [f"check raised {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mzv" / "__init__.py").is_file():
        print(f"error: no mzv sources under {src}", file=sys.stderr)
        return 2
    from checks import load_validators
    try:
        validators = load_validators(ROOT / "docs")
    except (OSError, ValueError) as exc:
        print(f"error: cannot load report schemas: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = perf_counter()
    import mzv  # noqa: F401
    import mzv.cli  # noqa: F401
    import_s = perf_counter() - t0

    from reference import reference
    from stats import normalized, tail
    from tracing import LAYER_METRICS, MissingBoundary, Tracer, calibrate
    from workloads import WORKLOADS, smoke
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](validators)
    wl.inputs(args.seed)

    tracer = None
    if args.trace:
        span_cost, leaf_cost = calibrate()
        tracer = Tracer()
        try:
            tracer.install()
        except MissingBoundary as exc:
            print(f"error: layer boundary {exc} not found in mzv",
                  file=sys.stderr)
            return 2

    setup_failed = report_problems("smoke", smoke(validators)) > 0
    import_times = []
    setup_times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        if not tracer:
            import_times.append(import_seconds(src))
        t = perf_counter()
        problems = wl.setup()
        setup_times.append(perf_counter() - t)
        setup_failed |= report_problems("set-up", problems) > 0

    n = wl.repeat_ops
    if tracer:
        def more(i):
            return i < n
    else:
        deadline = perf_counter() + args.seconds

        def more(i):
            return i == 0 or i % n or perf_counter() < deadline

    latencies = []
    starts = []
    refs = []  # (midpoint, duration) of each reference run
    last_ref = -REF_EVERY_S
    attempted = failed = 0
    i = 0
    while more(i):
        wl.before(i)
        if not tracer and perf_counter() - last_ref >= REF_EVERY_S:
            t = perf_counter()
            reference()
            last_ref = perf_counter()
            refs.append(((t + last_ref) / 2, last_ref - t))
        if tracer:
            tracer.op = i + 1
            span = tracer.begin("op")
        t = perf_counter()
        try:
            outcome = wl.call(i)
        except Exception as exc:
            traceback.print_exc()
            outcome = exc
        latencies.append(perf_counter() - t)
        starts.append(t)
        if tracer:
            tracer.end(span)
        attempted += 1
        if report_problems(f"op {i}", check(wl, i, outcome)):
            failed += 1
        i += 1

    repeats = [sum(latencies[j:j + n]) for j in range(0, len(latencies), n)]
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "import_s": import_s,
        "import_probe_s": import_times,
        "setup_repeats_s": setup_times,
        "ops": len(latencies),
        "repeats_s": repeats,
        "repeat_median_s": statistics.median(repeats),
        "ref_median_s": (statistics.median(d for _, d in refs) if refs
                         else None),
        "ref_runs": len(refs),
        "op_median_s": statistics.median(latencies),
        "failed_frac": failed / attempted,
    }
    if wl.latency_name:
        p99 = tail(latencies, 0.99)
        detail[f"{wl.latency_name}_p50_ms"] = detail["op_median_s"] * 1e3
        detail[f"{wl.latency_name}_p99_ms"] = None if p99 is None \
            else p99 * 1e3

    if tracer:
        values = tracer.layer_metrics(span_cost, leaf_cost)
        tracer.uninstall()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        norm = normalized(starts, latencies, refs, REF_WINDOW_S)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup = statistics.median(a + b for a, b in zip(import_times,
                                                         setup_times))
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_ref": {"value": statistics.median(
                sum(norm[j:j + n]) for j in range(0, len(norm), n)),
                "unit": "ref"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and not setup_failed,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
