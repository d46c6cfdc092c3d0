"""Command-line front end.

Subcommands::

    table           rank table of the seven relation families per weight
    rank            rank of one family (or union) at one weight
    member          span membership of an element in a family
    verify-theorem  truncated-series identity check, part i or ii
    conjecture      membership sweep of the (m, n) class sums
    numeric         floating evaluation / kernel residual of an element

Every subcommand but rank reports through ``_finish``, the one place
that renders the format asked for, writes it and sets the exit status:
0 when all verified, 1 when any claim was falsified (or, under
--strict, anything was skipped over budget).  ``main`` exits 2 on
usage errors, an --out path that cannot be written included (checked
before any work), and 3 on an internal error (an unexpected exception,
whose traceback goes to stderr, so a crash never reads as "falsified").
Elements accept a word ("xxyy"), a composition ("(2,1,2)"),
"(1-tau)(WORD)" or "partial(N)(WORD)".  The table's --threads worker
count is capped at the number of weights and of CPUs.  A negative
--cell-budget, a numeric --terms above MAX_TERMS, and a --max-weight,
--weight, --cutoff or element weight above MAX_WEIGHT (N + |W| for
partial(N)(W), |W| for every other form) are usage errors, raised
before anything is allocated.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback
from contextlib import contextmanager

from .numeric import residual_with_bound
from .operators import duality, partial
from .poly import Poly
from .relations import _ROW_GENERATORS, FamilySpec
from .verify import (ROW_LABELS, build_table, conjecture_scan, family_matrix,
                     membership, verify_theorem_i, verify_theorem_ii)
from .words import parse_word


class UsageError(Exception):
    pass


# the weight-k basis has 2^(k-2) words; 16 is above the weight-14 table
MAX_WEIGHT = 16
# numeric sums hold a few float64 arrays of --terms entries: 0.3 GB here
MAX_TERMS = 10**7


def parse_element(text: str, weight: int | None = None) -> Poly:
    """Parse the element micro-syntax into a polynomial.  Its weight,
    N + |W| for partial(N)(W) and |W| otherwise, must be at most
    MAX_WEIGHT and match the weight, if given; both are checked before
    W's bits are built, so an element that expands to zero is too."""
    text = text.strip()
    inner, n = text, 0
    dual = re.fullmatch(r"\(1\s*-\s*tau\)\s*\((.+)\)", text)
    if dual:
        inner = dual.group(1)
    part = re.fullmatch(r"partial\s*\(\s*(\d+)\s*\)\s*\((.+)\)", text)
    if part:
        n, inner = int(part.group(1)), part.group(2)

    def bound(length: int) -> None:
        if weight is not None and n + length != weight:
            raise UsageError(f"element is not homogeneous of weight {weight}")
        if n + length > MAX_WEIGHT:
            raise UsageError(f"element weight must be <= {MAX_WEIGHT}, "
                             f"got {n + length}")

    try:
        w = parse_word(inner, bound)
    except ValueError as exc:
        raise UsageError(f"cannot parse element {text!r}: {exc}") from exc
    elem = Poly.from_word(w)
    if part:
        return partial(n, elem)
    return duality(elem) if dual else elem


@contextmanager
def _writing(path: str, mode: str):
    """Open --out; an OSError in opening or writing is a usage error."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _check_out(path: str) -> None:
    """Fail before any work if --out cannot be opened for writing; an
    existing file is not truncated and a new one is not left behind."""
    existed = os.path.lexists(path)
    with _writing(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _emit(text: str, out_path: str | None):
    if out_path:
        with _writing(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _finish(args, payload, text, verdict: bool = True, skipped=()) -> int:
    """Write ``payload()`` as JSON, or else ``text()``, print each skipped
    item to stderr and return the exit status: 0 when verified, 1 when
    falsified or when --strict is set and something was skipped."""
    _emit(json.dumps(payload(), indent=2) if args.format == "json"
          else text(), args.out)
    for item in skipped:
        print(f"skipped: {item}", file=sys.stderr)
    strict = getattr(args, "strict", False)
    return 0 if verdict and not (skipped and strict) else 1


def worker_count(requested: int, weights: int, cpus: int | None) -> int:
    """Table worker processes: at most the number asked for, the number
    of weights (one column each) and the number of CPUs; at least 1."""
    return max(1, min(requested, weights, cpus or 1))


def cmd_table(args) -> int:
    threads = worker_count(args.threads, args.max_weight - 2, os.cpu_count())
    report = build_table(args.max_weight, args.cell_budget, threads)
    return _finish(
        args, report.to_json,
        report.to_csv if args.format == "csv" else report.to_markdown,
        skipped=[f"row {row} ({ROW_LABELS[row]}) at weight {wt}"
                 for row, wt in report.skipped_cells()])


def cmd_rank(args) -> int:
    print(family_matrix(args.family, args.weight).rank())
    return 0


def cmd_member(args) -> int:
    elem = parse_element(args.element, args.weight)
    # a zero element builds no span, so check the family and weight here
    FamilySpec.parse(args.family)
    if args.weight < 3:
        raise UsageError(f"weight must be >= 3, got {args.weight}")
    params = {"weight": args.weight, "family": args.family,
              "element": args.element}
    report = membership("membership", params, elem,
                        lambda: family_matrix(args.family, args.weight))
    return _finish(args, report.to_json,
                   lambda: "true" if report.verdict else "false",
                   report.verdict)


def cmd_verify_theorem(args) -> int:
    check = verify_theorem_i if args.part == "i" else verify_theorem_ii
    report = check(args.param, args.cutoff)

    def text():
        status = "verified" if report.verdict else "FALSIFIED"
        return (f"theorem ({args.part}) param={args.param} "
                f"cutoff={args.cutoff}: {status} "
                f"[{report.elapsed_ms:.0f} ms]"
                + ("" if report.verdict else f"\nresidual: {report.residual}"))

    return _finish(args, report.to_json, text, report.verdict)


def cmd_conjecture(args) -> int:
    reports, skipped = conjecture_scan(args.max_weight, args.cell_budget)
    ok = all(r.verdict for r in reports)

    def payload():
        return {"max_weight": args.max_weight,
                "cases": [r.to_json() for r in reports],
                "skipped_weights": skipped, "all_verified": ok}

    def text():
        lines = [f"m={r.params['m']} n={r.params['n']} "
                 f"weight={r.params['weight']}: "
                 f"{'in span' if r.verdict else 'NOT IN SPAN'}"
                 for r in reports]
        lines.append(f"{len(reports)} cases, "
                     f"{'all verified' if ok else 'FALSIFIED'}"
                     + (f", skipped weights {skipped}" if skipped else ""))
        return "\n".join(lines)

    return _finish(args, payload, text, ok,
                   [f"weight {wt} over budget" for wt in skipped])


def cmd_numeric(args) -> int:
    elem = parse_element(args.element)
    value, bound = residual_with_bound(elem, args.terms)
    payload = {"element": args.element, "terms_used": args.terms,
               "value": value, "tail_bound": bound}
    text = f"value={value!r} terms={args.terms} tail_bound={bound:.3e}"
    if not (len(elem.terms) == 1 and set(elem.terms.values()) == {1}):
        # a relation: the value must be numerically indistinguishable from 0
        payload.update(claim="kernel-residual", verdict=abs(value) <= bound)
        text += f" kernel={'yes' if payload['verdict'] else 'NO'}"
    return _finish(args, lambda: payload, lambda: text,
                   payload.get("verdict", True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzv",
        description="Exact relation engine for multiple zeta values.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "md"),
                       default="md")
        p.add_argument("--out", metavar="PATH",
                       help="write the report to a file instead of stdout")

    p = sub.add_parser("table", help="rank table of relation families")
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--cell-budget", type=float, default=60.0,
                   metavar="SECONDS",
                   help="per-cell time budget (0 disables, default 60)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero if any cell was skipped")
    common(p)
    p.set_defaults(fn=cmd_table)

    families = " | ".join([*_ROW_GENERATORS, "union:KIND,KIND"])
    p = sub.add_parser("rank", help="rank of one family at one weight")
    p.add_argument("--family", required=True, help=families)
    p.add_argument("--weight", type=int, required=True)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("member", help="span membership of an element")
    p.add_argument("--element", required=True)
    p.add_argument("--family", required=True, help=families)
    p.add_argument("--weight", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("verify-theorem", help="truncated identity check")
    p.add_argument("--part", choices=("i", "ii"), required=True)
    p.add_argument("--param", type=int, required=True,
                   help="m for part i, n for part ii")
    p.add_argument("--cutoff", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_verify_theorem)

    p = sub.add_parser("conjecture", help="class-sum membership sweep")
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--cell-budget", type=float, default=60.0,
                   metavar="SECONDS",
                   help="per-weight time budget (0 disables, default 60)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero if any weight was skipped")
    common(p)
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser("numeric", help="floating evaluation of an element")
    p.add_argument("--element", required=True)
    p.add_argument("--terms", type=int, default=10**6,
                   help="truncation M: indices <= M are summed, the tail "
                        "beyond M is added from its integral bracket; "
                        "tail_bound is the error bound of the reported "
                        "value (default 10^6, at most 10^7)")
    common(p)
    p.set_defaults(fn=cmd_numeric)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        budget = getattr(args, "cell_budget", None)
        if budget is not None and not budget >= 0:
            raise UsageError(f"--cell-budget must be >= 0, got {budget}")
        for name, cap in (("max_weight", MAX_WEIGHT), ("weight", MAX_WEIGHT),
                          ("cutoff", MAX_WEIGHT), ("terms", MAX_TERMS)):
            size = getattr(args, name, None)
            if size is not None and size > cap:
                raise UsageError(f"--{name.replace('_', '-')} must be <= "
                                 f"{cap}, got {size}")
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
