import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench",
                                              ROOT / "benchmarks/bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def run_compare(capsys, old: str, new: str) -> tuple[int, str]:
    code = bench.main(["--compare", str(ROOT / old), str(ROOT / new)])
    return code, capsys.readouterr().out


def test_compare_flags_nothing_from_11_parent_to_11(capsys):
    code, out = run_compare(capsys, "BENCH_11_parent.json", "BENCH_11.json")
    assert code == 0 and "FLAG" not in out
    assert "  wall_ref          77.58 -> 78.62      x1.013" in out.splitlines()
    assert "  traced rowops.calls: 24209 -> 3713" in out.splitlines()


def test_compare_flags_nothing_from_13_parent_to_13(capsys):
    code, out = run_compare(capsys, "BENCH_13_parent.json", "BENCH_13.json")
    assert code == 0 and "FLAG" not in out
    assert "  peak_rss_mb       39.88 -> 42.16      x1.057" in out.splitlines()
    assert "  traced linalg.query_reduce_steps: 22470 -> 303" \
        in out.splitlines()


def test_compare_flags_nothing_from_15_parent_to_15(capsys):
    code, out = run_compare(capsys, "BENCH_15_parent.json", "BENCH_15.json")
    assert code == 0 and "FLAG" not in out
    assert "  wall_ref          12.28 -> 8.612      x0.701" in out.splitlines()
    assert "  traced linalg.rows_in: 782 -> 703" in out.splitlines()


def test_compare_flags_nothing_from_16_parent_to_16(capsys):
    code, out = run_compare(capsys, "BENCH_16_parent.json", "BENCH_16.json")
    assert code == 0 and "FLAG" not in out
    assert "  setup_s          0.4235 -> 0.2013     x0.475" in out.splitlines()
    # the table's derivation rows now pass through linalg.poly_to_row
    assert "  traced linalg.row_nnz: 2198 -> 8550" in out.splitlines()


def test_compare_flags_nothing_from_17_parent_to_17(capsys):
    code, out = run_compare(capsys, "BENCH_17_parent.json", "BENCH_17.json")
    assert code == 0 and "FLAG" not in out
    assert "  wall_ref          7.605 -> 7.494      x0.985" in out.splitlines()
    # rank_union re-adds the duality-ht pivot rows at each table weight
    assert "  traced linalg.rows_in: 1018 -> 1072" in out.splitlines()


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
