import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "identities", ROOT / "benchmarks/identities.py")
identities = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identities)


@pytest.mark.parametrize("args", [
    ["--pairs", "0"], ["--pairs", "-1"], ["--cutoff", "2"],
    ["--cutoff", str(identities.MAX_CUTOFF + 1)], ["--params", "0"],
    ["--params", "5-3"], ["--params", "x"],
    ["--params", "9", "--part", "i", "--cutoff", "10"]])
def test_refuses_bad_arguments_before_any_run(args, capsys, monkeypatch):
    def no_run(tree, cutoff, cases):
        raise AssertionError("a run started")

    monkeypatch.setattr(identities, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        identities.main([*args, str(ROOT), str(ROOT)])
    assert exc.value.code == 2
    assert args[0] in capsys.readouterr().err


def test_selects_the_identities_the_cutoff_admits():
    # (i) needs a cutoff of at least m + 2, (ii) of at least n + 1
    assert identities.admitted(5, ["i", "ii"], 1, 5) == [
        ["i", 1], ["i", 2], ["i", 3],
        ["ii", 1], ["ii", 2], ["ii", 3], ["ii", 4]]
    assert identities.admitted(11, ["ii"], 2, 3) == [["ii", 2], ["ii", 3]]
    assert identities.admitted(10, ["i"], 9, 9) == []


def test_child_reports_the_checks(capsys):
    identities.child(6, [["i", 2], ["ii", 3]])
    r = json.loads(capsys.readouterr().out)
    assert set(identities.METRICS) <= r.keys()
    assert r["verified"] == 2 and r["memo"] > 0
    assert 0 <= r["rss_rise_mb"] <= r["peak_rss_mb"]


def test_exit_status_is_one_when_the_digests_differ(capsys, monkeypatch):
    digests = iter(["a", "b"])

    def fake_run(tree, cutoff, cases):
        return dict.fromkeys(identities.METRICS, 1) | {"digest": next(digests)}

    monkeypatch.setattr(identities, "run", fake_run)
    assert identities.main(["--cutoff", "4", "--pairs", "1",
                            str(ROOT), str(ROOT)]) == 1
    assert "outputs differ" in capsys.readouterr().out
