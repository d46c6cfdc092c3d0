"""The three benchmark workloads: rank table, series identities, span
membership.  Each is a closed loop with one caller: the next operation
starts when the previous one has returned and been checked.

A workload provides

* ``inputs(seed)``  benchmark-side input generation (untimed),
* ``setup()``       program set-up before the first timed operation,
                    from cold caches; it returns correctness problems
                    and is timed,
* ``before(i)``     untimed preparation of operation i,
* ``call(i)``       the timed operation; returns its outcome,
* ``check(i, outcome)``  the problems found in one outcome,
* ``repeat_ops``    operations that make up one repeat of the same work;
                    operation i does the same work, from the same cache
                    state, as operation i + repeat_ops.

Operations are kept short (under a second) so that the reference
times the runner takes around each one describe the host speed it ran
at (see ``reference.py``).

``smoke`` is a small known-answer check that touches each layer once;
the runner makes it, untimed, before the set-up, so a traced run
reports every layer.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import mzv
import mzv.cli
from checks import schema_problems, table_problems, verdict_problems
from queries import known_answer_queries


def cold_caches():
    """Empty every memo table of the engine: ``lru_cache`` functions and
    module-level ``*_CACHE`` dicts."""
    for name, mod in list(sys.modules.items()):
        if name != "mzv" and not name.startswith("mzv."):
            continue
        for attr, obj in list(vars(mod).items()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
            elif attr.endswith("_CACHE") and isinstance(obj, dict):
                obj.clear()


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = mzv.cli.main(argv)
    return code, buf.getvalue()


def cli_table_problems(code: int, text: str, max_weight: int,
                       validators) -> list[str]:
    if code != 0:
        return [f"table exited with {code}"]
    doc = json.loads(text)
    return (schema_problems(validators["table.schema.json"], doc)
            + table_problems(doc, max_weight))


def smoke(validators) -> list[str]:
    """Known answers at small weight: the table to weight 7, one
    identity of each kind, one corollary membership."""
    code, text = run_cli(["table", "--max-weight", "7", "--format", "json",
                          "--threads", "1"])
    problems = cli_table_problems(code, text, 7, validators)
    verdict = validators["verdict.schema.json"]
    for report in (mzv.verify_theorem_i(2, 8),
                   mzv.verify_theorem_ii(3, 8),
                   mzv.check_corollary("i", 2, 3)):
        problems += verdict_problems(report.to_json(), verdict)
    return problems


class Workload:
    name = ""
    latency_name = None  # set where per-call latency percentiles matter

    def __init__(self, validators):
        self.validators = validators

    def inputs(self, seed: int):
        pass

    def setup(self) -> list[str]:
        cold_caches()
        return []

    def before(self, i: int):
        cold_caches()

    @property
    def repeat_ops(self) -> int:
        return 1


class TableW10(Workload):
    """``mzv table --max-weight 10``: the elimination write path
    (``Echelon.add`` and the row kernel) takes most of the time."""

    name = "table-w10"
    MAX_WEIGHT = 10
    ARGV = ["table", "--max-weight", str(MAX_WEIGHT), "--format", "json",
            "--threads", "1"]

    def call(self, i):
        return run_cli(self.ARGV)

    def check(self, i, outcome):
        return cli_table_problems(*outcome, self.MAX_WEIGHT, self.validators)


class IdentitiesC11(Workload):
    """Identities (i) for m = 1..5, then (ii) for n = 1..5, at cutoff 11,
    one identity per operation; operator caches are cold at the start of
    each round of ten and shared across it: all the time is in operators,
    poly and series."""

    name = "identities-c11"
    CUTOFF = 11
    PARAMS = [("i", m) for m in range(1, 6)] + [("ii", n) for n in range(1, 6)]

    def before(self, i):
        if i % len(self.PARAMS) == 0:
            cold_caches()

    @property
    def repeat_ops(self):
        return len(self.PARAMS)

    def call(self, i):
        part, p = self.PARAMS[i % len(self.PARAMS)]
        fn = mzv.verify_theorem_i if part == "i" else mzv.verify_theorem_ii
        return fn(p, self.CUTOFF).to_json()

    def check(self, i, outcome):
        return verdict_problems(outcome,
                                self.validators["verdict.schema.json"])


class MemberW11(Workload):
    """Seeded known-answer ``in_span`` queries against the weight-11
    derivation span built in set-up: the read path (``poly_to_row``,
    ``Echelon.reduce`` against fixed pivots), the opposite of table-w10.
    One repeat is a pass over the 208 seeded queries (three groups of 60
    plus the 28 conjecture sums); a run cycles through the passes."""

    name = "member-w11"
    WEIGHT = 11
    PER_GROUP = 60
    DERIVATION_RANK = 363  # published table, row 5 at weight 11
    latency_name = "query"

    def inputs(self, seed):
        self.queries = known_answer_queries(self.WEIGHT, seed,
                                            self.PER_GROUP)
        cold_caches()

    def setup(self):
        problems = super().setup()
        self.matrix = mzv.RelationMatrix.from_polys(
            self.WEIGHT, mzv.derivation_all(self.WEIGHT))
        got = mzv.rank(self.matrix)
        if got != self.DERIVATION_RANK:
            problems.append(f"derivation rank at weight {self.WEIGHT}: "
                            f"got {got}, published {self.DERIVATION_RANK}")
        return problems

    def before(self, i):
        pass

    @property
    def repeat_ops(self):
        return len(self.queries)

    def call(self, i):
        p, _ = self.queries[i % len(self.queries)]
        return mzv.in_span(p, self.matrix)

    def check(self, i, outcome):
        want = self.queries[i % len(self.queries)][1]
        if outcome is not want:
            return [f"query {i % len(self.queries)}: in_span gave "
                    f"{outcome}, known answer {want}"]
        return []


WORKLOADS = {w.name: w for w in (TableW10, IdentitiesC11, MemberW11)}
