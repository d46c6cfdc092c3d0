"""The benchmark (``perfbench/``) relies on the engine from outside it.

The per-layer trace (``tracing.py``) patches engine names: a name it
patches that the engine no longer has makes every traced run fail, so
this checks that ``Tracer.install`` finds each one and that
``uninstall`` puts back what it replaced.  A patched name that the
engine keeps but no longer calls makes its layer read 0 instead, so
this checks that the trace wraps the registry every span is built from.
The workloads start cold from ``workloads.cold_caches()``: a memo it
does not empty would carry work from one operation into the next, so
this checks that it empties every one a table or the identities fill."""

import importlib
import sys
from pathlib import Path

import pytest

import mzv.cli as cli
import mzv.linalg as linalg
import mzv.relations as relations
import mzv.verify as verify
from mzv.poly import Poly

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
SAMPLED = {"mzv.cli.json": (cli, "json"),
           "linalg.combine_primitive": (linalg, "combine_primitive"),
           "verify.theta": (verify, "theta"),
           "TableReport.to_json": (verify.TableReport, "to_json"),
           "VerdictReport.to_json": (verify.VerdictReport, "to_json"),
           "Poly.__add__": (Poly, "__add__")}


def current() -> dict:
    return {name: getattr(owner, attr, None)
            for name, (owner, attr) in SAMPLED.items()}


def perfbench(module: str):
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(PERFBENCH)


def test_tracer_finds_and_restores_every_boundary():
    tracing = perfbench("tracing")
    before = current()
    tracer = tracing.Tracer()
    try:
        try:
            tracer.install()
        except tracing.MissingBoundary as exc:
            raise AssertionError(f"tracer boundary gone: {exc}") from None
        patched = current()
    finally:
        tracer.uninstall()
    restored = current()
    for name in SAMPLED:
        assert patched[name] is not before[name], name
        assert restored[name] is before[name], name


def test_traced_registry_is_the_one_every_span_is_built_from():
    assert verify._FAMILY_GENERATORS is relations._ROW_GENERATORS
    registry = relations._ROW_GENERATORS
    before = registry["derivation"]
    expected = [len(before(8))]
    tracer = perfbench("tracing").Tracer()
    try:
        tracer.install()
        wrapper = verify._FAMILY_GENERATORS["derivation"]
        assert wrapper is not before and wrapper.__wrapped__ is before
        start = len(tracer.spans)
        assert verify.table_column(8)[5] == 44
        # rows 1-4 are counted from classes, so S is the one span the
        # column generates, counting its coordinate rows
        assert [s.items for s in tracer.spans[start:]
                if s.name == "relations.gen"] == expected
    finally:
        tracer.uninstall()
    assert registry["derivation"] is before


def memo_sizes() -> dict[str, int]:
    """The size of every module-level dict and ``lru_cache`` of mzv."""
    sizes = {}
    for name, mod in list(sys.modules.items()):
        if name != "mzv" and not name.startswith("mzv."):
            continue
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)):
                sizes[f"{name}.{attr}"] = obj.cache_info().currsize
            elif isinstance(obj, dict):
                sizes[f"{name}.{attr}"] = len(obj)
    return sizes


def table() -> None:
    assert verify.build_table(10).values[10][5] == 181


def identities() -> None:
    # the ten identities of identities-c11, at a smaller cutoff
    for n in range(1, 6):
        assert verify.verify_theorem_i(n, 8).verdict
        assert verify.verify_theorem_ii(n, 8).verdict


@pytest.mark.parametrize("run", [table, identities],
                         ids=["table", "identities"])
def test_cold_caches_empties_every_memo_a_workload_fills(run):
    cold_caches = perfbench("workloads").cold_caches
    cold_caches()
    cold = memo_sizes()
    run()
    assert memo_sizes() != cold  # the run filled some memo
    cold_caches()
    assert memo_sizes() == cold
