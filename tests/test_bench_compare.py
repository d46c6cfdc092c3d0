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
