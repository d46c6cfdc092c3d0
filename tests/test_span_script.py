import importlib.util
import json
from pathlib import Path

import pytest

from mzv import verify
from mzv.cli import MAX_WEIGHT

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("span",
                                              ROOT / "benchmarks/span.py")
span = importlib.util.module_from_spec(spec)
spec.loader.exec_module(span)


@pytest.mark.parametrize("args", [["--pairs", "0"], ["--pairs", "-1"],
                                  ["--weight", "2"],
                                  ["--weight", str(MAX_WEIGHT + 1)]])
def test_refuses_a_bad_count_or_weight_before_any_run(args, capsys,
                                                      monkeypatch):
    def no_run(tree, k):
        raise AssertionError("a run started")

    monkeypatch.setattr(span, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        span.main([*args, str(ROOT), str(ROOT)])
    assert exc.value.code == 2
    assert args[0] in capsys.readouterr().err


def test_quartiles_of_one_run_are_the_run():
    assert span.quartiles([2.0]) == (2.0, 2.0)
    assert span.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 3.75)


def test_child_reports_the_rss_rise_of_the_column(capsys, monkeypatch):
    # the child replaces verify.family_matrix; monkeypatch undoes that
    monkeypatch.setattr(verify, "family_matrix", verify.family_matrix)
    span.child(5)
    r = json.loads(capsys.readouterr().out)
    assert set(span.METRICS) <= r.keys()
    assert 0 <= r["rss_rise_mb"] <= r["peak_rss_mb"]
    assert r["column"] == [3, 4, 4, 4, 5, 5, 4]
