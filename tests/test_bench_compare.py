import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench",
                                              ROOT / "benchmarks/bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def run_compare(capsys, old: str, new: str) -> tuple[int, str]:
    code = bench.main(["--compare", str(ROOT / old), str(ROOT / new)])
    return code, capsys.readouterr().out


# lines that the comparison of each recorded pair BENCH_<n>_parent.json
# -> BENCH_<n>.json prints; a pair not listed is checked for flags only
PINNED_LINES = {
    9: ["  wall_ref          269.2 -> 76.2       x0.283",
        "  traced linalg.query_reduce_steps: 57104 -> 22472"],
    11: ["  wall_ref          77.58 -> 78.62      x1.013",
         "  traced rowops.calls: 24209 -> 3713"],
    13: ["  peak_rss_mb       39.88 -> 42.16      x1.057",
         "  traced linalg.query_reduce_steps: 22470 -> 303"],
    14: ["  wall_ref          12.73 -> 12.5       x0.982",
         "  traced linalg.rows_in: 1318 -> 782"],
    15: ["  wall_ref          12.28 -> 8.612      x0.701",
         "  traced linalg.rows_in: 782 -> 703"],
    # the table's derivation rows now pass through linalg.poly_to_row
    16: ["  setup_s          0.4235 -> 0.2013     x0.475",
         "  traced linalg.row_nnz: 2198 -> 8550"],
    # row 3's union re-added the duality-ht pivot rows at each table weight
    17: ["  wall_ref          7.605 -> 7.494      x0.985",
         "  traced linalg.rows_in: 1018 -> 1072"],
    # row 3 adds every duality-ht row, where it added their pivot rows
    18: ["  wall_ref          7.459 -> 7.223      x0.968",
         "  traced linalg.rows_in: 1072 -> 1126"],
    # the derivation span is built in packed integers: no sparse kernel
    # call is left, and the derivation rows skip poly_to_row
    19: ["  wall_ref          7.307 -> 4.589      x0.628",
         "  traced rowops.calls: 1343 -> 0"],
    # one slot width per packed pivot row: no traced count changed
    20: ["  wall_ref           4.83 -> 4.801      x0.994"],
    # every span is built from column-space rows: the table generates no
    # polynomial, which is all the tracer's relations.gen counts
    21: ["  wall_ref          4.715 -> 3.953      x0.838",
         "  traced relations.polys: 295 -> 0"],
    # the tracer wraps the row registry every span is built from, so
    # relations.polys counts the table's rows again
    22: ["  wall_ref          3.848 -> 3.765      x0.978",
         "  traced relations.polys: 0 -> 858"],
    # the derivation rows are summed in a dict: no traced count changed
    23: ["  wall_ref          3.886 -> 4.003      x1.030"],
    # combine_primitive and the class-sum rows add through accumulate: no
    # traced count changed
    24: ["  wall_ref          3.727 -> 3.684      x0.988"],
    # packed rows are decoded by scanning their slot array: no traced
    # count changed
    25: ["  wall_ref           3.58 -> 3.47       x0.969"],
    # Echelon.add makes its new pivot exact with _exact: no traced count
    # changed
    26: ["  wall_ref          3.445 -> 3.641      x1.057"],
    # no span outlives its reader: no traced count changed
    27: ["  wall_ref          21.42 -> 20.34      x0.950"],
    # Theta - 1 is one recursion over a series' left quotients, which no
    # longer calls the theta boundary (theta_shift still does)
    28: ["  wall_ref           4.74 -> 2.967      x0.626",
         "  traced operators.theta_calls: 111 -> 18"],
    # Theta - 1 images one-word quotients itself, calling no traced name:
    # no traced count changed
    29: ["  wall_ref          2.964 -> 2.865      x0.967"],
    # series sums work on per-weight dicts of packed bits and no longer
    # go through Poly.__add__/__sub__
    30: ["  wall_ref          2.877 -> 2.153      x0.748",
         "  traced poly.add_calls: 273 -> 13"],
    # the derivation rows skip partial_n, n >= 2, of the words with
    # k_1 >= 3, and row 1 is counted, so the table builds no duality-ht
    # echelon; both trees recorded in one call, taking turns per seed
    31: ["  wall_ref          3.597 -> 3.065      x0.852",
         "  traced relations.polys: 858 -> 720",
         "  traced linalg.rows_in: 1126 -> 880"],
    # rows 2 and 3 are counted from the classes, so the table generates no
    # duality-ht or duality-k1 rows, and row 3 eliminates one row per
    # distinct class-space column in place of both families' rows
    32: ["  wall_ref          3.089 -> 2.387      x0.773",
         "  traced relations.polys: 720 -> 452",
         "  traced linalg.rows_in: 880 -> 636"],
    # row 3 is row 2's forest plus the rank of its distinct nonzero cycle
    # labels: 10 rows at weights 3-10, where it eliminated 157 class-space
    # columns, and 1 in the smoke check's table to weight 7, where 27
    33: ["  wall_ref          2.332 -> 1.947      x0.835",
         "  traced linalg.rows_in: 636 -> 463"],
    # geom of a one-term series multiplies no series, and the identity
    # sides build gx y and y (1 - gx y) once: identities-c11 (smoke
    # check and one round) makes 89 products where it made 304
    34: ["  wall_ref          2.213 -> 1.804      x0.815",
         "  traced series.mul_calls: 304 -> 89"],
}
# the flags a recorded pair is known to raise, each with its cause
KNOWN_FLAGS = {
    # import noise: in ten alternated pairs of runs the change's table-w10
    # setup_s was the lower in 8
    14: ["FLAG table-w10: setup_s 0.04019 -> 0.06143, worse by 52.9%, "
         "bound 25%"],
    # import noise: 39 alternated pairs of fresh-interpreter imports of
    # the two trees took a median 0.0317 s (quartiles 0.0258-0.0367) at
    # the parent and 0.0325 s (0.0248-0.0368) at the change
    18: ["FLAG table-w10: setup_s 0.02425 -> 0.03106, worse by 28.1%, "
         "bound 25%"],
    # import noise: in 12 alternated pairs of 1 s table-w10 runs the
    # setup_s median was 0.0273 s (quartiles 0.0218-0.0329) at the parent
    # and 0.0291 s (0.0228-0.0322) at the change
    23: ["FLAG table-w10: setup_s 0.02257 -> 0.03219, worse by 42.6%, "
         "bound 25%"],
    # import noise, in a workload that runs no linalg code: in 12
    # alternated pairs of 1 s identities-c11 runs the setup_s median was
    # 0.0219 s (quartiles 0.0197-0.0304) at the parent and 0.0212 s
    # (0.0195-0.0292) at the change, which was the lower in 7
    25: ["FLAG identities-c11: setup_s 0.0254 -> 0.0318, worse by 25.2%, "
         "bound 25%"],
    # import noise: in 12 alternated pairs of 1 s table-w10 runs the
    # setup_s median was 0.0506 s (quartiles 0.0408-0.0569) at the parent
    # and 0.0482 s (0.0400-0.0534) at the change, which was the lower in 9
    26: ["FLAG table-w10: setup_s 0.02141 -> 0.03323, worse by 55.2%, "
         "bound 25%"],
    # import noise, in a workload whose set-up reaches no changed code: in
    # 12 alternated pairs of 1 s member-w11 runs the setup_s median was
    # 0.0700 s (quartiles 0.0679-0.0728) at the parent and 0.0718 s
    # (0.0691-0.0768) at the change; 30 alternated fresh-interpreter
    # imports took a median 0.0313 s at the parent and 0.0309 s at the
    # change, which was the lower in 20
    29: ["FLAG member-w11: setup_s 0.0557 -> 0.07329, worse by 31.6%, "
         "bound 25%"],
    # import noise: set-up is the import and cold_caches(), which the
    # change does not make slower; in 12 alternated pairs of 1 s
    # identities-c11 runs the setup_s median was 0.0412 s (quartiles
    # 0.0376-0.0575) at the parent and 0.0410 s (0.0380-0.0563) at the
    # change, which was the lower in 8, and in 10 alternated pairs of
    # 30 s runs 0.0370 s (0.0347-0.0457) and 0.0364 s (0.0343-0.0384)
    30: ["FLAG identities-c11: setup_s 0.01584 -> 0.02009, worse by 26.8%, "
         "bound 25%"],
}


def recorded_pairs() -> list[int]:
    """The n of every BENCH_<n>_parent.json with a matching BENCH_<n>.json."""
    return sorted(int(p.name[len("BENCH_"):-len("_parent.json")])
                  for p in ROOT.glob("BENCH_*_parent.json")
                  if (ROOT / p.name.replace("_parent", "")).exists())


@pytest.mark.parametrize("n", recorded_pairs())
def test_recorded_pair_flags_only_its_known_flags(capsys, n):
    assert {*PINNED_LINES, *KNOWN_FLAGS} <= set(recorded_pairs())
    code, out = run_compare(capsys, f"BENCH_{n}_parent.json",
                            f"BENCH_{n}.json")
    lines = out.splitlines()
    flags = [line for line in lines if line.startswith("FLAG")]
    assert flags == KNOWN_FLAGS.get(n, [])
    assert code == (1 if flags else 0)
    for line in PINNED_LINES.get(n, []):
        assert line in lines


def test_compare_flags_a_regression_beyond_the_bound(capsys):
    # the records of the change that sped member-w11 up, read backwards
    code, out = run_compare(capsys, "BENCH_9.json", "BENCH_9_parent.json")
    assert code == 1
    flags = [line for line in out.splitlines() if line.startswith("FLAG")]
    assert flags == [
        "FLAG identities-c11: setup_s 0.04396 -> 0.05556, worse by 26.4%, "
        "bound 25%",
        "FLAG member-w11: wall_ref 76.2 -> 269.2, worse by 253.4%, "
        "bound 20%"]


def test_compare_flags_failures_and_missing_workloads():
    old = {"workloads": {
        "a": {"median": {"t": 1.0}, "correct": True, "attempted": 10,
              "failed": 0, "traced_counts": {"n": 3}},
        "b": {"median": {"t": 1.0}, "correct": True, "attempted": 10,
              "failed": 0, "traced_counts": {}}}}
    new = {"workloads": {
        "a": {"median": {"t": 0.5}, "correct": False, "attempted": 10,
              "failed": 1, "traced_counts": {"n": 4}}}}
    metrics = [{"name": "t", "better": "lower", "bound": 0.1}]
    lines, flags = bench.compare(old, new, metrics)
    assert "  traced n: 3 -> 4" in lines
    assert flags == ["a: not correct in the new record",
                     "a: failed share 0.00% -> 10.00%",
                     "b: missing from the new record"]


def test_record_gives_each_tree_a_fresh_bytecode_cache(monkeypatch):
    # the runner processes inherit PYTHONPYCACHEPREFIX, so a tree's own
    # __pycache__ is neither read nor written
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # restored after
    import report
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    caches = []

    def run_once(workload, seed, seconds, trace):
        cache = os.environ["PYTHONPYCACHEPREFIX"]
        assert os.listdir(cache) == []
        assert "PYTHONDONTWRITEBYTECODE" not in os.environ
        caches.append(cache)
        env = dict.fromkeys(("python", "numpy", "nproc", "platform",
                             "git_revision"))
        return {"detail": {"env": env},
                "result": {"metrics": {"t": {"value": 1.0, "unit": "s"}},
                           "correct": True, "attempted": 1, "failed": 0}}

    monkeypatch.setattr(report, "run_once", run_once)
    bench.record(ROOT)
    bench.record(ROOT)
    half = len(caches) // 2
    first, second = set(caches[:half]), set(caches[half:])
    assert len(first) == len(second) == 1 and first != second
    assert not any(ROOT in Path(c).parents for c in caches)
    assert "PYTHONPYCACHEPREFIX" not in os.environ
    assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"
    assert not any(map(os.path.exists, caches))


def test_pair_takes_turns_and_pools_every_setup_repeat(monkeypatch):
    # one tree on both sides, told apart by their bytecode caches.  Side 1
    # runs 10 s slower.  The set-up repeats of seeds 1, 2 and 3 have the
    # medians 5, 4 and 6, whose median is 5; the lower quartile of the
    # fifteen, pooled, is 4, and two of them are below it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # restored after
    import report
    repeats = {1: [5, 2, 5, 5, 5], 2: [4, 4, 4, 4, 3], 3: [6, 6, 6, 6, 6]}
    sides: dict[str, int] = {}
    order = []

    def run_once(workload, seed, seconds, trace):
        side = sides.setdefault(os.environ["PYTHONPYCACHEPREFIX"], len(sides))
        order.append((workload, seed, trace, side))
        sums = [v + 10 * side for v in repeats[seed]]
        detail = {"env": dict.fromkeys(("python", "numpy", "nproc",
                                        "platform", "git_revision")),
                  "import_probe_s": [0.5] * 5,
                  "setup_repeats_s": [v - 0.5 for v in sums]}
        metrics = ({"rows_in": {"value": 7 + side, "unit": "count"}}
                   if trace else
                   {"setup_s": {"value": sorted(sums)[2], "unit": "s"},
                    "wall_ref": {"value": seed + 10 * side, "unit": "ref"}})
        return {"detail": detail,
                "result": {"metrics": metrics, "correct": True,
                           "attempted": 2, "failed": 0}}

    monkeypatch.setattr(report, "run_once", run_once)
    records = bench.record(ROOT, ROOT)
    workloads = [w["name"] for w in report.BENCHMARK["workloads"]]
    assert order == [(wl, seed, trace, side) for wl in workloads
                     for seed, trace, side in [
                         (1, 0, 0), (1, 0, 1), (2, 0, 1), (2, 0, 0),
                         (3, 0, 0), (3, 0, 1), (1, 1, 0), (1, 1, 1)]]
    for side, rec in enumerate(records):
        assert list(rec["workloads"]) == workloads
        for w in rec["workloads"].values():
            assert w["median"] == {"setup_s": 4 + 10 * side,
                                   "wall_ref": 2 + 10 * side}
            assert w["runs"]["setup_s"] == [5 + 10 * side, 4 + 10 * side,
                                            6 + 10 * side]
            assert sorted(w["setup_s_samples"]) == sorted(
                v + 10 * side for vs in repeats.values() for v in vs)
            assert w["traced_counts"] == {"rows_in": 7 + side}
            assert (w["attempted"], w["failed"], w["correct"]) == (6, 0, True)
    lines, flags = bench.compare(*records, [
        {"name": "setup_s", "better": "lower", "bound": 0.25}])
    assert "  traced rows_in: 7 -> 8" in lines
    assert flags == [f"{wl}: setup_s 4 -> 14, worse by 250.0%, bound 25%"
                     for wl in workloads]
