import csv
import io
import json
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import mzv.cli as cli
from mzv.cli import main, parse_element, worker_count
from mzv.operators import duality, partial
from mzv.poly import Poly
from mzv.relations import _ROW_GENERATORS
from mzv.verify import VerdictReport
from mzv.words import word_from_letters

DOCS = Path(__file__).resolve().parent.parent / "docs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_element_forms():
    assert parse_element("xxy") == Poly.from_word(word_from_letters("xxy"))
    assert parse_element("(2,1)") == Poly.from_word(word_from_letters("xyy"))
    assert parse_element("(1-tau)(xxy)") == \
        duality(Poly.from_word(word_from_letters("xxy")))
    assert parse_element("partial(2)(xy)") == \
        partial(2, Poly.from_word(word_from_letters("xy")))
    assert parse_element("(1-tau)((2,3))") == \
        duality(Poly.from_word(word_from_letters("xyxxy")))
    with pytest.raises(Exception):
        parse_element("shuffle(xy)")


def test_table_csv_weight8_column(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-weight", "8",
                           "--format", "csv")
    assert code == 0
    rows = [row for row in csv.reader(io.StringIO(out)) if row]
    assert rows[0] == ["row", "3", "4", "5", "6", "7", "8"]
    wt8 = [row[-1] for row in rows[1:]]
    assert wt8 == ["6", "15", "16", "28", "44", "46", "26"]


def test_table_json_schema_and_values(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run_cli(capsys, "table", "--max-weight", "6",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    schema = json.loads((DOCS / "table.schema.json").read_text())
    jsonschema.validate(payload, schema)
    row4 = next(r for r in payload["rows"] if r["id"] == 4)
    assert row4["values"] == {"3": 1, "4": 1, "5": 4, "6": 6}


def test_table_markdown_default(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-weight", "4")
    assert code == 0
    assert out.splitlines()[0].startswith("| wt |")


def test_member_true(capsys):
    code, out, _ = run_cli(capsys, "member",
                           "--element", "(1-tau)(xxyxy)",
                           "--family", "derivation", "--weight", "5")
    assert code == 0
    assert out.strip() == "true"


def test_member_false_sets_exit_code(capsys):
    code, out, _ = run_cli(capsys, "member", "--element", "xxy",
                           "--family", "derivation", "--weight", "3")
    assert code == 1
    assert out.strip() == "false"


def test_member_unbalanced_composition_usage_error(capsys):
    # "(2,1" is no word at all, so it must not read as a falsified (2,1)
    code, out, err = run_cli(capsys, "member", "--element", "(2,1",
                             "--family", "derivation", "--weight", "3")
    assert code == 2
    assert out == "" and "error" in err


def test_member_json(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run_cli(capsys, "member",
                           "--element", "(1-tau)(xxy)",
                           "--family", "duality", "--weight", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    schema = json.loads((DOCS / "verdict.schema.json").read_text())
    jsonschema.validate(payload, schema)


def test_member_weight_mismatch_usage_error(capsys):
    code, _, err = run_cli(capsys, "member", "--element", "xxy",
                           "--family", "duality", "--weight", "4")
    assert code == 2
    assert "error" in err
    # elements that expand to zero are checked against --weight too
    for element, weight in (("(1-tau)(xxyy)", "9"), ("partial(1)(1)", "3")):
        code, out, err = run_cli(capsys, "member", "--element", element,
                                 "--family", "derivation", "--weight", weight)
        assert (code, out) == (2, "")
        assert f"element is not homogeneous of weight {weight}" in err
    code, out, _ = run_cli(capsys, "member", "--element", "(1-tau)(xxyy)",
                           "--family", "derivation", "--weight", "4")
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(capsys, "numeric", "--element", "1",
                           "--format", "json")
    assert code == 0 and json.loads(out)["value"] == 1.0


def test_member_json_reports_elapsed_time(capsys):
    code, out, _ = run_cli(capsys, "member",
                           "--element", "(1-tau)(xxyxy)",
                           "--family", "derivation", "--weight", "5",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["elapsed_ms"] > 0


def test_member_partial_weight_checked_before_expansion(capsys):
    # partial(40)(xy) would expand to 2^39 words before any weight check
    code, out, err = run_cli(capsys, "member",
                             "--element", "partial(40)(xy)",
                             "--family", "derivation", "--weight", "5")
    assert code == 2
    assert out == "" and "not homogeneous of weight 5" in err


def test_rank_command(capsys):
    code, out, _ = run_cli(capsys, "rank", "--family", "duality",
                           "--weight", "7")
    assert code == 0 and out.strip() == "16"
    code, out, _ = run_cli(capsys, "rank",
                           "--family", "union:duality,derivation",
                           "--weight", "8")
    assert code == 0 and out.strip() == "46"
    # the packed derivation rows, alone and in a union (table rows 5, 6)
    for family, want in (("derivation", "363"),
                         ("union:duality,derivation", "411")):
        code, out, _ = run_cli(capsys, "rank", "--family", family,
                               "--weight", "11")
        assert code == 0 and out.strip() == want


def test_rank_unknown_family(capsys):
    code, _, err = run_cli(capsys, "rank", "--family", "stuffle",
                           "--weight", "5")
    assert code == 2


def test_verify_theorem_command(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--part", "i",
                           "--param", "1", "--cutoff", "6")
    assert code == 0
    assert "verified" in out


def test_verify_theorem_json_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run_cli(capsys, "verify-theorem", "--part", "ii",
                           "--param", "2", "--cutoff", "7",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True and payload["residual_terms"] == []
    schema = json.loads((DOCS / "verdict.schema.json").read_text())
    jsonschema.validate(payload, schema)


def test_every_identity_the_cli_admits_at_cutoff_12_holds(capsys):
    # part (i) needs a cutoff of at least m + 2 and part (ii) of n + 1, so
    # at cutoff 12 the command admits m = 1..10 and n = 1..11: 21 verdicts
    verdicts = []
    for part, top in (("i", 10), ("ii", 11)):
        for param in range(1, top + 2):
            code, out, _ = run_cli(capsys, "verify-theorem", "--part", part,
                                   "--param", str(param), "--cutoff", "12",
                                   "--format", "json")
            if param > top:
                assert code == 2, (part, param)
                continue
            assert code == 0, (part, param)
            verdicts.append(json.loads(out)["verdict"])
    assert verdicts == [True] * 21


def test_conjecture_command_json(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    code, out, _ = run_cli(capsys, "conjecture", "--max-weight", "7",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_verified"] is True
    schema = json.loads((DOCS / "conjecture.schema.json").read_text())
    verdict = json.loads((DOCS / "verdict.schema.json").read_text())
    registry = referencing.Registry().with_resource(
        "verdict.schema.json",
        referencing.Resource.from_contents(
            verdict, default_specification=referencing.jsonschema.DRAFT7))
    jsonschema.validators.Draft7Validator(
        schema, registry=registry).validate(payload)


def test_numeric_relation(capsys):
    code, out, _ = run_cli(capsys, "numeric", "--element", "partial(1)(xy)",
                           "--terms", "100000", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"]) <= payload["tail_bound"]
    assert payload["verdict"] is True


def test_numeric_single_value(capsys):
    code, out, _ = run_cli(capsys, "numeric", "--element", "(2)",
                           "--terms", "10000", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.6449, abs=1e-3)
    assert "verdict" not in payload


def test_numeric_bad_element(capsys):
    code, _, err = run_cli(capsys, "numeric", "--element", "(1,2)",
                           "--terms", "1000")
    assert code == 2 and "error" in err


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "table", "--max-weight", "4",
                           "--format", "json", "--out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["max_weight"] == 4


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "table", "--max-weight", "5",
                             "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_table_budget_skip_and_strict(capsys):
    code, out, err = run_cli(capsys, "table", "--max-weight", "9",
                             "--cell-budget", "1e-9", "--format", "csv")
    assert code == 0
    assert "skipped" in err
    code, _, _ = run_cli(capsys, "table", "--max-weight", "9",
                         "--cell-budget", "1e-9", "--strict")
    assert code == 1


@pytest.mark.parametrize("command", ["table", "conjecture"])
def test_zero_cell_budget_means_no_budget(command, capsys):
    code, out, err = run_cli(capsys, command, "--max-weight", "7",
                             "--cell-budget", "0", "--strict")
    assert code == 0
    assert "skipped" not in out + err


def test_threads_flag_matches_serial(capsys):
    code1, out1, _ = run_cli(capsys, "table", "--max-weight", "6",
                             "--format", "csv")
    code2, out2, _ = run_cli(capsys, "table", "--max-weight", "6",
                             "--format", "csv", "--threads", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_environment_does_not_set_threads(capsys, monkeypatch):
    # --threads is the one worker-count knob; no variable is read
    monkeypatch.setenv("MZV_THREADS", "abc")
    code, out, _ = run_cli(capsys, "rank", "--family", "duality",
                           "--weight", "5")
    assert code == 0 and out == "4\n"


def test_numeric_terms_cap_checked_before_evaluation(capsys, monkeypatch,
                                                     tmp_path):
    # --terms is a size like --max-weight: rejected before --out is opened
    def unreachable(*args):
        raise AssertionError("evaluated over the --terms cap")

    monkeypatch.setattr(cli, "residual_with_bound", unreachable)
    code, out, err = run_cli(capsys, "numeric", "--element", "(2)",
                             "--terms", str(cli.MAX_TERMS + 1),
                             "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 2 and out == ""
    assert f"--terms must be <= {cli.MAX_TERMS}, got {cli.MAX_TERMS + 1}" \
        in err and "cannot write" not in err


def test_composition_weight_bounded_before_its_bits_are_built(capsys):
    # the last part would shift a 400-million-bit word into being
    tracemalloc.start()
    try:
        with pytest.raises(cli.UsageError,
                           match=f"element weight must be <= {cli.MAX_WEIGHT}"
                                 ", got 400000002"):
            parse_element("(2,400000000)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    code, out, err = run_cli(capsys, "numeric", "--element", "(2,400000000)")
    assert code == 2 and out == ""
    assert f"element weight must be <= {cli.MAX_WEIGHT}, got 400000002" in err


OVERSIZED = [
    (["table", "--max-weight", "40"], "--max-weight"),
    (["conjecture", "--max-weight", "40"], "--max-weight"),
    (["rank", "--family", "derivation", "--weight", "40"], "--weight"),
    (["member", "--element", "partial(38)(xy)", "--family", "derivation",
      "--weight", "40"], "--weight"),
    (["verify-theorem", "--part", "i", "--param", "1", "--cutoff", "40"],
     "--cutoff"),
    (["numeric", "--element", "partial(20)(xy)"], "element weight"),
]


@pytest.mark.parametrize("argv,name", OVERSIZED,
                         ids=[argv[0] for argv, _ in OVERSIZED])
def test_sizes_above_max_weight_rejected_before_any_work(argv, name, capsys,
                                                         monkeypatch):
    # each of these would expand 2^20 or more basis words before a check
    def unreachable(*args, **kwargs):
        raise AssertionError("engine reached above MAX_WEIGHT")

    for engine in ("build_table", "conjecture_scan", "family_matrix",
                   "membership", "partial", "verify_theorem_i",
                   "residual_with_bound"):
        monkeypatch.setattr(cli, engine, unreachable)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert name in err and f"<= {cli.MAX_WEIGHT}" in err


ELEMENT_FORMS = {
    "word": lambda k: "x" * (k - 1) + "y",
    "composition": lambda k: f"({k - 1},1)",
    "duality": lambda k: "(1-tau)(" + "x" * (k - 2) + "yy)",
    "partial": lambda k: "partial(2)(" + "x" * (k - 3) + "y)",
}


@pytest.mark.parametrize("form", ELEMENT_FORMS)
def test_every_element_form_is_bounded_by_max_weight(form, capsys,
                                                     monkeypatch):
    # numeric's cost grows with the depth of every word, so an element of
    # weight above MAX_WEIGHT is a usage error before any evaluation
    evaluated = []
    monkeypatch.setattr(cli, "residual_with_bound",
                        lambda elem, terms: evaluated.append(elem) or
                        (0.0, 1.0))
    element = ELEMENT_FORMS[form]
    code, out, err = run_cli(capsys, "numeric", "--element",
                             element(cli.MAX_WEIGHT + 1))
    assert code == 2 and out == "" and evaluated == []
    assert f"element weight must be <= {cli.MAX_WEIGHT}, got " \
           f"{cli.MAX_WEIGHT + 1}" in err
    code, _, _ = run_cli(capsys, "numeric", "--element",
                         element(cli.MAX_WEIGHT))
    assert code == 0 and len(evaluated) == 1
    assert evaluated[0].is_homogeneous(cli.MAX_WEIGHT)


def test_max_weight_itself_is_accepted(capsys, monkeypatch):
    class Span:
        def rank(self):
            return 0

    monkeypatch.setattr(cli, "family_matrix", lambda spec, k: Span())
    code, out, _ = run_cli(capsys, "rank", "--family", "derivation",
                           "--weight", str(cli.MAX_WEIGHT))
    assert code == 0 and out == "0\n"


def test_negative_cell_budget_is_usage_error(capsys):
    for command in ("table", "conjecture"):
        code, out, err = run_cli(capsys, command, "--max-weight", "6",
                                 "--cell-budget", "-1")
        assert code == 2 and "--cell-budget" in err
        assert out == ""


def test_worker_count_is_capped():
    assert worker_count(8, 3, 16) == 3      # one worker per weight
    assert worker_count(8, 10, 2) == 2      # no more than the CPUs
    assert worker_count(2, 10, 16) == 2     # no more than asked for
    assert worker_count(4, 10, None) == 1   # CPU count unknown
    assert worker_count(0, 10, 4) == 1      # serial at the least
    assert worker_count(-3, 10, 4) == 1


def test_internal_error_is_not_falsified(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(cli, "cmd_rank", boom)
    code, out, err = run_cli(capsys, "rank", "--family", "duality",
                             "--weight", "5")
    assert code == 3
    assert out == ""
    assert "Traceback" in err
    assert err.splitlines()[-1] == \
        "internal error: RuntimeError: kernel exploded"


@pytest.mark.parametrize("broken", ["print_exc", "import"])
def test_internal_error_exits_3_when_its_traceback_fails(capsys, monkeypatch,
                                                         broken):
    import traceback

    def boom(args):
        raise RuntimeError("kernel exploded")

    def no_traceback():
        raise OSError("stderr is gone")

    monkeypatch.setattr(cli, "cmd_rank", boom)
    if broken == "import":
        monkeypatch.setitem(sys.modules, "traceback", None)
    else:
        monkeypatch.setattr(traceback, "print_exc", no_traceback)
    code, out, err = run_cli(capsys, "rank", "--family", "duality",
                             "--weight", "5")
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines() == [
        "internal error: RuntimeError: kernel exploded"]


def test_internal_error_exits_3_when_its_message_fails(capsys, monkeypatch):
    class Unprintable(RuntimeError):
        def __str__(self):
            raise ValueError("no text")

    def boom(args):
        raise Unprintable()

    monkeypatch.setattr(cli, "cmd_rank", boom)
    code, out, _ = run_cli(capsys, "rank", "--family", "duality",
                           "--weight", "5")
    assert code == 3
    assert out == ""


def test_repeated_derivation_row_leaves_the_table_unchanged(capsys,
                                                          monkeypatch):
    import mzv.verify as verify
    want = run_cli(capsys, "table", "--max-weight", "6")
    real = verify._ROW_GENERATORS["derivation"]
    # a repeated first row: the echelon carries no structural precondition
    monkeypatch.setitem(verify._ROW_GENERATORS, "derivation",
                        lambda k: [real(k)[0], *real(k)])
    assert run_cli(capsys, "table", "--max-weight", "6") == want
    assert want[0] == 0


def test_quotient_tau_does_not_preserve_is_an_internal_error(capsys,
                                                             monkeypatch):
    import mzv.verify as verify
    real = verify._ROW_GENERATORS["derivation"]
    # the partial_1 block and the first partial_2 row alone: at weight 7
    # they span 17 dimensions on which tau has trace -4, not a tau-stable
    # span
    monkeypatch.setitem(verify._ROW_GENERATORS, "derivation",
                        lambda k: real(k)[:(1 << (k - 3)) + 1])
    code, out, err = run_cli(capsys, "table", "--max-weight", "7")
    assert code == 3
    assert out == ""
    assert "internal error: NotTriangular" in err
    assert "trace -4 at rank 17" in err


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "mzv.cli", "rank",
                          "--family", "derivation", "--weight", "6"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "10"


def test_missing_subcommand_is_usage_error():
    out = subprocess.run([sys.executable, "-m", "mzv.cli"],
                         capture_output=True, text=True)
    assert out.returncode == 2


# every subcommand that takes --out, with the engine call it would make
OUT_COMMANDS = [
    ("build_table", ["table", "--max-weight", "5"]),
    ("membership", ["member", "--element", "xxy", "--family", "derivation",
                    "--weight", "3"]),
    ("verify_theorem_i", ["verify-theorem", "--part", "i", "--param", "1",
                          "--cutoff", "6"]),
    ("conjecture_scan", ["conjecture", "--max-weight", "6"]),
    ("residual_with_bound", ["numeric", "--element", "(2)"]),
]


@pytest.mark.parametrize("engine,argv", OUT_COMMANDS,
                         ids=[argv[0] for _, argv in OUT_COMMANDS])
def test_unwritable_out_checked_before_any_work(engine, argv, tmp_path,
                                                capsys, monkeypatch):
    calls = []

    def stub(*args, **kwargs):
        calls.append(engine)
        raise RuntimeError("engine ran before --out was checked")

    for name, _ in OUT_COMMANDS:
        monkeypatch.setattr(cli, name, stub)
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert calls == []


def test_out_check_leaves_files_as_found(tmp_path, capsys):
    # both runs pass the --out check and then fail on the element
    argv = ["member", "--element", "xxy", "--family", "duality",
            "--weight", "4", "--out"]
    existing = tmp_path / "existing.txt"
    existing.write_text("keep\n")
    code, _, _ = run_cli(capsys, *argv, str(existing))
    assert code == 2 and existing.read_text() == "keep\n"
    fresh = tmp_path / "fresh.txt"
    code, _, _ = run_cli(capsys, *argv, str(fresh))
    assert code == 2 and not fresh.exists()


def _falsified(claim, params):
    residual = Poly.from_word(word_from_letters("xxy"))
    return VerdictReport(claim, params, None, False, residual)


FALSIFIED_CASES = [
    ("verify_theorem_i",
     lambda m, cutoff: _falsified("theorem-i", {"m": m}),
     ["verify-theorem", "--part", "i", "--param", "1", "--cutoff", "6"],
     "FALSIFIED"),
    ("conjecture_scan",
     lambda max_weight, budget: (
         [_falsified("conjecture", {"m": 3, "n": 3, "weight": 6})], []),
     ["conjecture", "--max-weight", "6"],
     "NOT IN SPAN"),
    ("residual_with_bound",
     lambda elem, terms: (0.5, 1e-9),
     ["numeric", "--element", "partial(1)(xy)"],
     "kernel=NO"),
]


@pytest.mark.parametrize("engine,stub,argv,marker", FALSIFIED_CASES,
                         ids=[argv[0] for _, _, argv, _ in FALSIFIED_CASES])
def test_falsified_claim_exits_1(engine, stub, argv, marker, capsys,
                                 monkeypatch):
    monkeypatch.setattr(cli, engine, stub)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1 and marker in out
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 1 and json.loads(out)


@pytest.mark.parametrize("strict,expected", [(False, 0), (True, 1)])
def test_conjecture_skipped_weight_exit_code(strict, expected, capsys,
                                             monkeypatch):
    verified = VerdictReport("conjecture", {"m": 3, "n": 3, "weight": 6},
                             None, True)
    monkeypatch.setattr(cli, "conjecture_scan",
                        lambda max_weight, budget: ([verified], [9]))
    argv = ["conjecture", "--max-weight", "9"] + (["--strict"] if strict
                                                   else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    assert "skipped: weight 9 over budget" in err.splitlines()
    assert "all verified, skipped weights [9]" in out


def test_readme_cli_examples_parse():
    readme = (DOCS.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    examples = [line for line in block.splitlines()
                if line.startswith("mzv ")]
    assert len(examples) >= 8
    parser = cli.build_parser()
    for line in examples:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == shlex.split(line)[1]


def test_member_refuses_a_weight_below_3(capsys):
    code, out, err = run_cli(capsys, "member", "--element", "xy",
                             "--family", "derivation", "--weight", "2")
    assert (code, out) == (2, "")
    assert "weight must be >= 3" in err


@pytest.mark.parametrize("command", ["rank", "member"])
def test_family_help_names_every_registry_kind(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    words = capsys.readouterr().out.split()
    for kind in [*_ROW_GENERATORS, "union:KIND,KIND"]:
        assert kind in words, kind
