"""The benchmark (``perfbench/``) relies on the engine from outside it.

The per-layer trace (``tracing.py``) patches engine names: a name it
patches that the engine no longer has makes every traced run fail, so
this checks that ``Tracer.install`` finds each one and that
``uninstall`` puts back what it replaced.  The workloads start cold
from ``workloads.cold_caches()``: a memo it does not empty would carry
work from one operation into the next, so this checks that it empties
every one a table builds."""

import sys
from pathlib import Path

import mzv.cli as cli
import mzv.linalg as linalg
import mzv.verify as verify
from mzv.poly import Poly

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
SAMPLED = {"mzv.cli.json": (cli, "json"),
           "linalg.combine_primitive": (linalg, "combine_primitive"),
           "verify.theta": (verify, "theta"),
           "Poly.__add__": (Poly, "__add__")}


def current() -> dict:
    return {name: getattr(owner, attr, None)
            for name, (owner, attr) in SAMPLED.items()}


def test_tracer_finds_and_restores_every_boundary():
    sys.path.insert(0, PERFBENCH)
    try:
        from tracing import MissingBoundary, Tracer
    finally:
        sys.path.remove(PERFBENCH)
    before = current()
    tracer = Tracer()
    try:
        try:
            tracer.install()
        except MissingBoundary as exc:
            raise AssertionError(f"tracer boundary gone: {exc}") from None
        patched = current()
    finally:
        tracer.uninstall()
    restored = current()
    for name in SAMPLED:
        assert patched[name] is not before[name], name
        assert restored[name] is before[name], name


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


def test_cold_caches_empties_every_memo_a_table_fills():
    sys.path.insert(0, PERFBENCH)
    try:
        from workloads import cold_caches
    finally:
        sys.path.remove(PERFBENCH)
    cold_caches()
    cold = memo_sizes()
    assert verify.build_table(10).values[10][5] == 181
    assert memo_sizes() != cold  # the table filled some memo
    cold_caches()
    assert memo_sizes() == cold
