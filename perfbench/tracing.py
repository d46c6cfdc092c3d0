"""Per-layer tracing of mzv from outside the engine.

``Tracer.install`` wraps each layer's public functions by replacing the
name where the caller looks it up (``mzv.linalg.combine_primitive``,
``mzv.series.theta`` and ``mzv.verify.theta``, ``mzv.relations.partial``,
...), so the engine itself carries no instrumentation.  Every wrapped
call records a span: name, start, end, parent and operation id, kept in
memory until ``layer_metrics`` reduces them at the end of the run.

The two hot leaves, the row kernel and ``Poly`` addition/subtraction,
are too frequent for one span per call; they are aggregated as a call
count, time and output size on the enclosing span instead.

A boundary the engine no longer has (renamed, inlined) makes ``install``
raise ``MissingBoundary``: the traced run fails rather than report its
layer as 0.
"""

from __future__ import annotations

import functools
import json
import time
from time import perf_counter

from stats import self_times, union_length

# name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "relations.gen_s": ("s", "lower"),
    "relations.polys": ("count", "lower"),
    "linalg.coord_s": ("s", "lower"),
    "linalg.row_nnz": ("count", "lower"),
    "linalg.elim_s": ("s", "lower"),
    "linalg.rows_in": ("count", "lower"),
    "linalg.useful_ratio": ("ratio", "higher"),
    "linalg.pivot_nnz": ("count", "lower"),
    "linalg.max_coeff_bits": ("bits", "lower"),
    "linalg.query_s": ("s", "lower"),
    "linalg.query_reduce_steps": ("count", "lower"),
    "rowops.calls": ("count", "lower"),
    "rowops.s": ("s", "lower"),
    "rowops.out_nnz": ("count", "lower"),
    "operators.partial_calls": ("count", "lower"),
    "operators.partial_self_s": ("s", "lower"),
    "operators.theta_calls": ("count", "lower"),
    "operators.theta_self_s": ("s", "lower"),
    "operators.duality_s": ("s", "lower"),
    "poly.add_calls": ("count", "lower"),
    "poly.add_terms_out": ("count", "lower"),
    "series.mul_calls": ("count", "lower"),
    "series.mul_s": ("s", "lower"),
    "series.theta_minus_one_s": ("s", "lower"),
    "verify.sides_s": ("s", "lower"),
    "verify.residual_s": ("s", "lower"),
    "cli.report_s": ("s", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "items",
                 "kernel_calls", "kernel_s", "kernel_nnz",
                 "add_calls", "add_s", "add_terms")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.items = 0  # size of the span's result, where it has one
        self.kernel_calls = self.kernel_nnz = 0
        self.add_calls = self.add_terms = 0
        self.kernel_s = self.add_s = 0.0


class MissingBoundary(LookupError):
    """A layer boundary the tracer patches is not in the engine: its
    metrics would silently read 0, so the traced run stops instead."""


def _lookup(owner, name: str):
    found = (owner.get(name) if isinstance(owner, dict)
             else getattr(owner, name, None))
    if found is None:
        raise MissingBoundary(
            f"{getattr(owner, '__name__', type(owner).__name__)}.{name}")
    return found


class _JsonProxy:
    """Stands in for the ``json`` module inside ``mzv.cli`` so that the
    report serialization it performs is timed."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = 0
        self.pivot_nnz = 0
        self.max_coeff_bits = 0
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = self._cpu0 = 0.0

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, self.stack[-1] if self.stack else -1,
                               self.op))
        self.stack.append(idx)
        self.spans[idx].start = perf_counter()
        return idx

    def end(self, idx: int):
        self.spans[idx].end = perf_counter()
        self.stack.pop()

    def spanned(self, fn, name: str, on_result=None):
        """Wrap ``fn`` so each call is a span; ``on_result(span, args,
        result)`` runs after the span closes."""
        begin, end, spans = self.begin, self.end, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if on_result is not None:
                on_result(spans[idx], args, result)
            return result
        return wrapper

    def kernel_leaf(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args):
            t = perf_counter()
            out = fn(*args)
            s = spans[stack[-1]]
            s.kernel_s += perf_counter() - t
            s.kernel_calls += 1
            s.kernel_nnz += len(out[0])
            return out
        return wrapper

    def poly_leaf(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(a, b):
            t = perf_counter()
            out = fn(a, b)
            s = spans[stack[-1]]
            s.add_s += perf_counter() - t
            s.add_calls += 1
            s.add_terms += len(out.terms)
            return out
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, name: str, new):
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = new
        else:
            self._patches.append((owner, name, getattr(owner, name)))
            setattr(owner, name, new)

    def _wrap(self, owner, name: str, span: str, on_result=None):
        """Wrap ``owner.name`` (or ``owner[name]``) in a span."""
        self._patch(owner, name, self.spanned(_lookup(owner, name), span,
                                              on_result))

    def install(self):
        """Patch every layer boundary and open the root span."""
        import mzv
        import mzv.cli as cli
        import mzv.linalg as linalg
        import mzv.operators as operators
        import mzv.relations as relations
        import mzv.series as series
        import mzv.verify as verify
        from mzv.poly import Poly

        def count_items(span, args, result):
            span.items = len(result)

        def row_nnz(span, args, result):
            span.items = len(result[0])

        def new_pivot(span, args, raised):
            span.items = int(raised)
            if raised:
                ech = args[0]
                cols, vals = ech.pivots[next(reversed(ech.pivots))]
                self.pivot_nnz += len(cols)
                bits = max(abs(v).bit_length() for v in vals)
                self.max_coeff_bits = max(self.max_coeff_bits, bits)

        self._patch(linalg, "combine_primitive",
                    self.kernel_leaf(_lookup(linalg, "combine_primitive")))
        self._wrap(linalg, "poly_to_row", "linalg.coord", row_nnz)
        self._wrap(linalg.Echelon, "add", "linalg.elim", new_pivot)
        self._wrap(linalg.Echelon, "contains", "linalg.query")
        for owner in (mzv, verify):
            for name in ("duality_all", "derivation_all", "duality_ht_sum",
                         "duality_k1_sum"):
                self._wrap(owner, name, "relations.gen", count_items)
        generators = _lookup(verify, "_FAMILY_GENERATORS")
        for kind in list(generators):
            self._wrap(generators, kind, "relations.gen", count_items)
        for mod in (operators, relations, cli):
            self._wrap(mod, "partial", "operators.partial")
        for mod in (series, verify):
            self._wrap(mod, "theta", "operators.theta")
        for mod in (relations, verify, cli):
            self._wrap(mod, "duality", "operators.duality")
        for name in ("__add__", "__sub__"):
            self._patch(Poly, name, self.poly_leaf(getattr(Poly, name)))
        self._wrap(series.GradedSeries, "__mul__", "series.mul")
        self._wrap(verify, "theta_minus_one", "series.theta_minus_one")
        self._wrap(verify, "theorem_i_sides", "verify.sides")
        self._wrap(verify, "theorem_ii_sides", "verify.sides")
        self._wrap(verify, "_residual_report", "verify.residual")
        self._wrap(verify.TableReport, "to_json", "cli.report")
        self._wrap(verify.VerdictReport, "to_json", "cli.report")
        self._wrap(cli, "_emit", "cli.report")
        self._patch(cli, "json",
                    _JsonProxy(self.spanned(json.dumps, "cli.report")))
        self._t0 = perf_counter()
        self._cpu0 = time.process_time()
        self.begin("run")

    def uninstall(self):
        while self._patches:
            owner, name, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self, overhead_per_span: float,
                      overhead_per_leaf: float) -> dict[str, float]:
        """Reduce the recorded spans to the ``LAYER_METRICS`` values.

        ``*_s`` is the time covered by spans of that layer (nested spans
        of one name counted once); ``*_self_s`` subtracts child spans.
        """
        while self.stack:
            self.end(self.stack[-1])
        spans = self.spans
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s.name, []).append(i)
        selfs = self_times(spans)

        def covered(name):
            return union_length((spans[i].start, spans[i].end)
                                for i in by_name.get(name, ()))

        def total(name, attr):
            return sum(getattr(spans[i], attr) for i in by_name.get(name, ()))

        def count(name):
            return len(by_name.get(name, ()))

        rows_in = count("linalg.elim")
        leaves = sum(s.kernel_calls + s.add_calls for s in spans)
        elapsed = perf_counter() - self._t0
        return {
            "relations.gen_s": covered("relations.gen"),
            "relations.polys": total("relations.gen", "items"),
            "linalg.coord_s": covered("linalg.coord"),
            "linalg.row_nnz": total("linalg.coord", "items"),
            "linalg.elim_s": covered("linalg.elim"),
            "linalg.rows_in": rows_in,
            "linalg.useful_ratio": (total("linalg.elim", "items") / rows_in
                                    if rows_in else 0.0),
            "linalg.pivot_nnz": self.pivot_nnz,
            "linalg.max_coeff_bits": self.max_coeff_bits,
            "linalg.query_s": covered("linalg.query"),
            "linalg.query_reduce_steps": total("linalg.query",
                                               "kernel_calls"),
            "rowops.calls": sum(s.kernel_calls for s in spans),
            "rowops.s": sum(s.kernel_s for s in spans),
            "rowops.out_nnz": sum(s.kernel_nnz for s in spans),
            "operators.partial_calls": count("operators.partial"),
            "operators.partial_self_s": sum(
                selfs[i] for i in by_name.get("operators.partial", ())),
            "operators.theta_calls": count("operators.theta"),
            "operators.theta_self_s": sum(
                selfs[i] for i in by_name.get("operators.theta", ())),
            "operators.duality_s": covered("operators.duality"),
            "poly.add_calls": sum(s.add_calls for s in spans),
            "poly.add_terms_out": sum(s.add_terms for s in spans),
            "series.mul_calls": count("series.mul"),
            "series.mul_s": covered("series.mul"),
            "series.theta_minus_one_s": covered("series.theta_minus_one"),
            "verify.sides_s": covered("verify.sides"),
            "verify.residual_s": covered("verify.residual"),
            "cli.report_s": covered("cli.report"),
            "proc.cpu_s": time.process_time() - self._cpu0,
            "trace.overhead_frac": ((len(spans) * overhead_per_span
                                     + leaves * overhead_per_leaf) / elapsed),
        }


def calibrate(repeats: int = 20000) -> tuple[float, float]:
    """Added cost, in seconds per call, of a span and of a leaf wrapper,
    measured on a trivial function (best of three)."""
    def noop(a, b):
        return ((), ())

    tracer = Tracer()
    tracer.begin("calibrate")
    span_fn = tracer.spanned(noop, "calibrate")
    leaf_fn = tracer.kernel_leaf(noop)

    def best(fn):
        times = []
        for _ in range(3):
            t = perf_counter()
            for _ in range(repeats):
                fn(1, 2)
            times.append(perf_counter() - t)
            del tracer.spans[1:]
        return min(times) / repeats

    base = best(noop)
    return max(best(span_fn) - base, 0.0), max(best(leaf_fn) - base, 0.0)
