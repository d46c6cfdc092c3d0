"""The per-layer benchmark trace (``perfbench/tracing.py``) patches
engine names from outside the engine.  A name it patches that the
engine no longer has makes every traced run fail, so this checks that
``Tracer.install`` finds each one and that ``uninstall`` puts back what
it replaced."""

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
