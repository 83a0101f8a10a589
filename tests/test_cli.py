import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thd.output
from thd import Hypersurface, diamond, hh_dim_pushforward, kernel_dim
from thd.ainfty import (
    FormatError,
    format_category,
    format_cochain,
    parse_category,
    parse_cochain,
    tensor_with_algebra,
)
from thd.ainfty.examples import a2_path_category, dual_numbers, matrix_algebra, square_zero_cocycle
from thd.cli import build_parser, main
from thd.errors import PreconditionViolation

EX1_PRETTY = """\
                                    0
                              0          0
                       0            0       0
                0             0          0     0
         0             0            0       0     0
2996        20993         15267        917     0     0
      1575             0            0       0     0
             5775             0          0     0
                   10395            0       0
                           9002          0
                                 2996"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_diamond_pretty_golden(capsys):
    code, out, _ = run(capsys, "diamond", "--n", "5", "--d", "7", "--twist", "8")
    assert code == 0
    assert out.rstrip("\n") == EX1_PRETTY


def test_diamond_p1(capsys):
    code, out, _ = run(capsys, "diamond", "--n", "1", "--d", "1", "--twist", "0")
    assert code == 0
    assert out.split("\n")[0].strip() == "1"
    assert out.split("\n")[1].split() == ["0", "0"]


def test_diamond_json_round_trip(capsys):
    code, out, _ = run(capsys, "diamond", "--n", "5", "--d", "7", "--twist", "8",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "diamond"
    assert (doc["n"], doc["d"], doc["twist"]) == ("5", "7", "8")
    header, *rows = doc["entries"]
    assert header == ["i", "j", "value"]
    dd = diamond(Hypersurface(5, 7), 8)
    parsed = {(int(i), int(j)): int(v) for i, j, v in rows}
    assert parsed == {(i, j): v for (i, j, v) in dd.nonzero_entries()}
    assert all(int(v) > 0 for v in parsed.values())


def run_command(*argv):
    """Run ``python -m thd.cli`` on ``argv`` in a fresh interpreter, without ``THD_BUDGET``."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("THD_BUDGET", None)
    return subprocess.run([sys.executable, "-m", "thd.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_diamond_of_dimension_500_runs_as_a_command():
    # the edges once recursed about n frames deep and ended in a traceback
    proc = run_command("diamond", "--n", "500", "--d", "5", "--twist", "-7", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    parsed = {(int(i), int(j)): int(v) for i, j, v in doc["entries"][1:]}
    assert parsed == {(i, j): v for (i, j, v) in diamond(Hypersurface(500, 5), -7).nonzero_entries()}


def test_diamond_csv(capsys):
    code, out, _ = run(capsys, "diamond", "--n", "5", "--d", "7", "--twist", "8",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert "n,5" in lines[0] or lines[0] == "kind,diamond" or lines[0].startswith("n,")
    assert "i,j,value" in lines
    assert "2,3,917" in lines


def test_kernel_table(capsys):
    code, out, _ = run(capsys, "kernel", "--n", "5", "--d", "7", "--p", "-8",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    table = {int(m): int(v) for m, v in doc["entries"][1:]}
    assert table[4] == 917 and table[6] == 15267 and table[8] == 20993
    assert table[10] == kernel_dim(Hypersurface(5, 7), -8, 10)
    assert all(table[m] == 0 for m in range(1, 11, 2))


def test_kernel_single_degree(capsys):
    code, out, _ = run(capsys, "kernel", "--n", "9", "--d", "5", "--p", "-30", "--m", "12")
    assert code == 0
    assert out.strip().endswith("= 1")


def test_kernel_verify_les(capsys):
    code, out, _ = run(capsys, "kernel", "--n", "5", "--d", "7", "--p", "-8",
                       "--verify-les", "--format", "json")
    assert code == 0
    assert json.loads(out)["verified_against_ledger"] == "true"


def test_kernel_precondition_exit_code(capsys):
    code, _, err = run(capsys, "kernel", "--n", "5", "--d", "7", "--p", "0")
    assert code == 3
    assert "t - p" in err


def test_oracle_disagreement_exit_code(capsys, monkeypatch):
    import thd.cli as cli_mod

    class BogusLedger:
        kernel_of_fstar = {m: 1 for m in range(0, 11)}

    monkeypatch.setattr(cli_mod, "les_ledger", lambda X, p: BogusLedger())
    code, _, err = run(capsys, "kernel", "--n", "5", "--d", "7", "--p", "-8", "--verify-les")
    assert code == 4
    assert "disagree" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diamond", "--n", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["diamond", "--n", "5", "--d", "7", "--twist", "x"])
    assert exc.value.code == 2


def test_nonpositive_parameters_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diamond", "--n", "0", "--d", "7", "--twist", "8"])
    assert exc.value.code == 2


def test_hh_profile(capsys):
    code, out, _ = run(capsys, "hh", "--n", "5", "--d", "7", "--p", "-8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    dims = {int(m): int(v) for m, v in doc["entries"][1:]}
    assert dims[8] == 26768 and dims[11] == 0


def test_hh_single_value(capsys):
    code, out, _ = run(capsys, "hh", "--n", "5", "--d", "7", "--p", "-8", "--m", "8")
    assert code == 0
    assert out.strip().endswith("= 26768")


def test_pushforward_command(capsys):
    code, out, _ = run(capsys, "pushforward", "--n", "5", "--d", "7", "--p", "-8",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    dims = {int(m): int(v) for m, v in doc["entries"][1:]}
    assert dims[11] == 7  # h^{5,0}_1 of the degree-7 fivefold
    assert dims[0] == 0


@pytest.mark.parametrize("n,d,p,want", [(2, 1, -4, [0, 0, 3, 3, 0, 0]), (2, 1, -3, [0, 0, 3, 3, 0, 0]),
                                          (2, 2, -4, [0, 0, 9, 9, 0, 0]), (2, 2, -2, [0, 0, 9, 9, 0, 0])],
                         ids=["2-1--4", "2-1--3", "2-2--4", "2-2--2"])
def test_pushforward_answers_degenerate_twists(capsys, n, d, p, want):
    # at t - p in {0, d} the old case table dropped Kronecker deltas and read -1;
    # Bott's table carries them
    X = Hypersurface(n, d)
    assert [hh_dim_pushforward(X, p, m) for m in range(2 * n + 2)] == want
    code, out, err = run(capsys, "pushforward", "--n", str(n), "--d", str(d), "--p", str(p),
                         "--format", "json")
    assert code == 0 and err == ""
    assert [int(v) for _, v in json.loads(out)["entries"][1:]] == want


def test_json_and_csv_never_render_the_pretty_diamond(monkeypatch):
    def refuse(dd):
        raise AssertionError("the pretty grid was rendered")

    monkeypatch.setattr(thd.output, "render_diamond", refuse)
    doc = thd.output.diamond_document(diamond(Hypersurface(5, 7), 8))
    assert json.loads(doc.render("json"))["entries"][0] == ["i", "j", "value"]
    assert doc.render("csv").startswith("n,5\n")
    with pytest.raises(AssertionError, match="pretty grid"):
        doc.render("pretty")


def test_search(capsys):
    code, out, _ = run(capsys, "search", "--n", "5..5", "--d", "7..7", "--p", "-8..-8",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = doc["entries"][1:]
    assert rows == [["5", "7", "-8", "8", "20993", ""]]


@pytest.mark.parametrize("text", ["a..b", "..3", "1..x", "3.."])
def test_malformed_search_ranges_are_usage_errors(capsys, text):
    # each once ended in a ValueError traceback and exit code 1
    code, out, err = run(capsys, "search", "--n", "5", "--d", text, "--p", "-8")
    assert code == 2 and out == ""
    assert err == f"error: --d takes a range a..b or a single integer, not {text!r}\n"


# exit code 4 needs a disagreeing ledger: test_oracle_disagreement_exit_code
@pytest.mark.parametrize("code,argv", [
    (0, ("diamond", "--n", "3", "--d", "4", "--twist", "1")),
    (2, ("search", "--n", "3..", "--d", "7", "--p", "-8")),
    (3, ("kernel", "--n", "5", "--d", "7", "--p", "0")),
    (5, ("ainfty", "verify", "--example", "dual-deformed", "--budget", "10")),
])
def test_documented_exit_codes_as_a_command(code, argv):
    proc = run_command(*argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") if code else proc.stderr == ""


def test_search_flags_degenerate_rows(capsys):
    code, out, _ = run(capsys, "search", "--n", "5", "--d", "7", "--p", "-7..0",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["entries"][1:]
    notes = {r[2]: r[5] for r in rows}
    assert "degenerate" in notes["-7"] and "degenerate" in notes["0"]
    assert notes["-5"] == ""


def test_quadric(capsys):
    code, out, _ = run(capsys, "quadric", "--k", "3", "--d", "2")
    assert code == 0
    assert out.strip().endswith("1")
    code, out, _ = run(capsys, "quadric", "--k", "3", "--d", "2", "--format", "json")
    assert json.loads(out)["entries"][1] == ["8", "1"]


def test_ainfty_verify_examples(capsys):
    code, out, _ = run(capsys, "ainfty", "verify", "--example", "a2-deformed")
    assert code == 0 and "PASS through k=7" in out
    code, out, _ = run(capsys, "ainfty", "verify", "--example", "dual-deformed")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "ainfty", "verify", "--example", "dual-perturbed")
    assert code == 0 and "FAIL at k=4" in out


def test_ainfty_verify_seeded_random(capsys):
    code1, out1, _ = run(capsys, "ainfty", "verify", "--example", "random-cocycle",
                         "--seed", "5", "--format", "json")
    code2, out2, _ = run(capsys, "ainfty", "verify", "--example", "random-cocycle",
                         "--seed", "5", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2  # deterministic under a fixed seed
    assert json.loads(out1)["passed"] == "true"
    code, out, _ = run(capsys, "ainfty", "verify", "--example", "random-noncocycle",
                       "--seed", "5", "--format", "json")
    assert code == 0 and json.loads(out)["passed"] == "false"


def test_ainfty_hhdim(capsys):
    code, out, _ = run(capsys, "ainfty", "hhdim", "--example", "dual-numbers",
                       "--up-to", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"][1:] == [["0", "2"], ["1", "1"], ["2", "1"], ["3", "1"]]


def test_ainfty_budget_exit_code(capsys):
    code, _, err = run(capsys, "ainfty", "verify", "--example", "dual-deformed",
                       "--budget", "10")
    assert code == 5 and "budget" in err.lower()


def test_hhdim_runs_out_of_budget_one_unit_below_the_library_spend(capsys):
    # the differential charges a key's terms together; the threshold is unchanged
    from thd.ainfty import Budget, build_example, hh_dimensions

    entry = build_example("dual-numbers-x-k2")
    budget = Budget()
    hh_dimensions(entry["category"], entry["bimodule"], 3, budget)
    argv = ("ainfty", "hhdim", "--example", "dual-numbers-x-k2", "--up-to", "3", "--budget")
    code, out, _ = run(capsys, *argv, str(budget.spent))
    assert code == 0 and out
    code, out, err = run(capsys, *argv, str(budget.spent - 1))
    assert code == 5 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "budget" in err


def test_ainfty_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("THD_BUDGET", "10")
    code, _, _ = run(capsys, "ainfty", "verify", "--example", "dual-deformed")
    assert code == 5


def test_the_budget_flag_beats_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("THD_BUDGET", "10")
    code, out, _ = run(capsys, "ainfty", "verify", "--example", "dual-deformed", "--budget", "100000")
    assert code == 0 and out
    monkeypatch.setenv("THD_BUDGET", "100000")
    code, _, err = run(capsys, "ainfty", "verify", "--example", "dual-deformed", "--budget", "10")
    assert code == 5 and "(11 > 10)" in err


def test_ainfty_unknown_example(capsys):
    code, _, err = run(capsys, "ainfty", "verify", "--example", "nope")
    assert code == 3 and "unknown example" in err


# ------------------------------------------------------------- text format
CATEGORY_TEXT = """\
# dual numbers over Q
field Q
objects a
hom a a 2
id a 0
compose a a a 0 0 0 1
compose a a a 1 0 1 1
compose a a a 1 1 0 1
"""

COCHAIN_TEXT = """\
cochain 3
component a a a a : 1 1 1 : 1 : 1
"""

BAD_COCHAIN_TEXT = """\
cochain 3
component a a a a : 1 1 1 : 0 : 1
component a a a a : 1 1 1 : 1 : 1
"""


def test_parse_category_and_cochain():
    cat = parse_category(CATEGORY_TEXT)
    assert cat.dim("a", "a") == 2
    eta = parse_cochain(COCHAIN_TEXT, cat)
    from thd.ainfty import hochschild_differential

    assert hochschild_differential(eta).is_zero()


def test_parse_category_solves_identity():
    text = CATEGORY_TEXT.replace("id a 0\n", "")
    cat = parse_category(text)
    assert cat.id_basis_index("a") == 0


def test_parse_category_solves_the_identities_left_out():
    # object 1 keeps its id line; the identity of object 2 is solved for
    text = format_category(a2_path_category())
    assert "id 1 0\n" in text and "id 2 0\n" in text
    cat = parse_category(text.replace("id 2 0\n", ""))
    assert cat.identities == {"1": {0: 1}, "2": {0: 1}}


def test_format_round_trip():
    cat = dual_numbers()
    text = format_category(cat)
    cat2 = parse_category(text)
    assert cat2.dims == cat.dims and cat2.compose == cat.compose
    eta = square_zero_cocycle()
    eta2 = parse_cochain(format_cochain(eta), cat2)
    assert eta2.data == eta.data


def test_format_round_trip_of_a2_times_m2():
    # several objects and products that are not all symmetric in their arguments
    cat = tensor_with_algebra(a2_path_category(), matrix_algebra())
    text = format_category(cat)
    cat2 = parse_category(text)
    assert cat2.dims == cat.dims and cat2.compose == cat.compose
    assert format_category(cat2) == text


def test_parse_errors():
    with pytest.raises(PreconditionViolation):
        parse_category("hom a a 2\n")  # no objects
    with pytest.raises(PreconditionViolation):
        parse_category("objects a\nbogus record\n")
    cat = parse_category(CATEGORY_TEXT)
    with pytest.raises(PreconditionViolation):
        parse_cochain("component a a : 0 : 0 : 1\n", cat)  # degree missing


def test_cli_with_category_files(tmp_path, capsys):
    cat_file = tmp_path / "cat.txt"
    cat_file.write_text(CATEGORY_TEXT)
    eta_file = tmp_path / "eta.txt"
    eta_file.write_text(COCHAIN_TEXT)
    code, out, _ = run(capsys, "ainfty", "deform", "--category", str(cat_file),
                       "--cochain", str(eta_file))
    assert code == 0 and "PASS" in out

    bad_file = tmp_path / "bad.txt"
    bad_file.write_text(BAD_COCHAIN_TEXT)
    code, _, err = run(capsys, "ainfty", "deform", "--category", str(cat_file),
                       "--cochain", str(bad_file))
    assert code == 3 and "not closed" in err


def test_cli_hhdim_from_file(tmp_path, capsys):
    cat_file = tmp_path / "cat.txt"
    cat_file.write_text(CATEGORY_TEXT)
    code, out, _ = run(capsys, "ainfty", "hhdim", "--category", str(cat_file),
                       "--up-to", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["entries"][1:] == [["0", "2"], ["1", "1"], ["2", "1"]]


def test_missing_input_files_are_usage_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, "ainfty", "hhdim", "--category", missing)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "cannot read" in err and "missing.txt" in err
    cat_file = tmp_path / "cat.txt"
    cat_file.write_text(CATEGORY_TEXT)
    code, _, err = run(capsys, "ainfty", "deform", "--category", str(cat_file),
                       "--cochain", missing)
    assert code == 2 and err.count("\n") == 1 and "missing.txt" in err


def test_malformed_budget_variable_is_a_usage_error(capsys, monkeypatch):
    from thd.ainfty.budget import resolve_budget
    from thd.errors import UsageError

    monkeypatch.setenv("THD_BUDGET", "abc")
    with pytest.raises(UsageError):
        resolve_budget()
    code, out, err = run(capsys, "ainfty", "verify", "--example", "dual-deformed")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "THD_BUDGET" in err and "'abc'" in err


def test_composite_field_order_is_a_precondition_failure(tmp_path, capsys):
    cat_file = tmp_path / "cat.txt"
    cat_file.write_text(CATEGORY_TEXT.replace("field Q", "field F 4"))
    code, out, err = run(capsys, "ainfty", "hhdim", "--category", str(cat_file))
    assert code == 3 and out == ""
    assert "not prime" in err


def test_negative_up_to_is_a_usage_error(capsys):
    code, out, err = run(capsys, "ainfty", "hhdim", "--example", "k", "--up-to", "-1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "--up-to" in err


def test_negative_k_max_is_a_usage_error(capsys):
    code, out, err = run(capsys, "ainfty", "verify", "--example", "dual-deformed",
                         "--k-max", "-2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "--k-max" in err


def test_negative_budget_is_a_usage_error(capsys):
    code, out, err = run(capsys, "ainfty", "verify", "--example", "dual-deformed",
                         "--budget", "-1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "budget" in err


# Each malformed file used to exit 0 or fail later with a misleading message.
MALFORMED_CATEGORIES = {
    "compose-undeclared-object": ("compose a a a 0 0 0 1", "compose a a z 0 0 0 1", "undeclared object 'z'"),
    "compose-out-out-of-range": ("compose a a a 0 0 0 1", "compose a a a 2 0 0 1", "index 2 out of range"),
    "compose-in1-out-of-range": ("compose a a a 0 0 0 1", "compose a a a 0 3 0 1", "index 3 out of range"),
    "compose-in2-out-of-range": ("compose a a a 0 0 0 1", "compose a a a 0 0 -1 1", "index -1 out of range"),
    "id-undeclared-object": ("id a 0", "id z 0", "undeclared object 'z'"),
    "id-out-of-range": ("id a 0", "id a 2", "index 2 out of range"),
    "negative-hom-dimension": ("hom a a 2", "hom a a 2\nhom a b -1", "negative dimension -1"),
    # a second copy of an object used to double its homs in HH and pass verify
    "object-declared-twice": ("objects a", "objects a a", "line 3: object 'a' is declared twice"),
    "object-declared-again": ("objects a", "objects a\nobject a", "line 4: object 'a' is declared twice"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CATEGORIES))
def test_malformed_category_files_are_format_errors(tmp_path, capsys, case):
    old, new, message = MALFORMED_CATEGORIES[case]
    text = CATEGORY_TEXT.replace(old, new, 1)
    assert text != CATEGORY_TEXT
    with pytest.raises(FormatError, match=message):
        parse_category(text)
    cat_file = tmp_path / "cat.txt"
    cat_file.write_text(text)
    code, out, err = run(capsys, "ainfty", "hhdim", "--category", str(cat_file))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and message in err
    assert err.count("line ") <= 1  # a bad record is named by its line once


DATA = Path(__file__).resolve().parent / "data"


def test_verify_reports_a_failed_unit_law_in_its_unitality_field(capsys):
    # d phi for phi(1, 1) = 1 is closed, so the identities pass, but m_3(x, 1, 1) = x
    code, out, _ = run(capsys, "ainfty", "verify", "--category", str(DATA / "dual_numbers.cat"),
                       "--cochain", str(DATA / "unnormalized.cochain"), "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["passed"] == "false" and "first_failure_k" not in report
    assert report["unitality"] == "m_3 does not vanish on an identity argument at ('a', 'a', 'a', 'a')"
    code, out, _ = run(capsys, "ainfty", "verify", "--category", str(DATA / "dual_numbers.cat"),
                       "--cochain", str(DATA / "unnormalized.cochain"))
    assert code == 0 and out.splitlines()[-1] == "UNITALITY FAIL: " + report["unitality"]


def test_cochain_target_out_of_range_is_a_format_error(tmp_path, capsys):
    text = COCHAIN_TEXT.replace(": 1 : 1", ": 2 : 1")  # M(a, a) has dimension 2
    with pytest.raises(FormatError, match="target index 2 out of range"):
        parse_cochain(text, parse_category(CATEGORY_TEXT))
    cat_file = tmp_path / "cat.txt"
    cat_file.write_text(CATEGORY_TEXT)
    eta_file = tmp_path / "eta.txt"
    eta_file.write_text(text)
    code, out, err = run(capsys, "ainfty", "deform", "--category", str(cat_file),
                         "--cochain", str(eta_file))
    assert code == 3 and out == ""
    assert "target index 2 out of range" in err and "not closed" not in err


def _registered(parser):
    """The subcommands registered on ``parser``, each mapped to those registered on it."""
    return {name: _registered(sub)
            for action in parser._actions if isinstance(action, argparse._SubParsersAction)
            for name, sub in action.choices.items()}


AINFTY = {"verify": {}, "hhdim": {}, "deform": {}}
EVERY_COMMAND = {"diamond": {}, "hh": {}, "pushforward": {}, "kernel": {}, "search": {},
                 "quadric": {}, "ainfty": AINFTY}


@pytest.mark.parametrize("words", [
    ["diamond", "--n", "5", "--d", "7", "--twist", "8"], ["hh"], ["pushforward", "--help"],
    ["kernel", "--n", "5"], ["search"], ["quadric", "--k", "3"], ["ainfty", "verify"],
    ["ainfty", "hhdim", "--up-to", "2"], ["ainfty", "deform", "--help"],
], ids=" ".join)
def test_the_parser_holds_only_the_named_command(words):
    # one subparser at each level the words name: the others are never built
    expected = {words[0]: {words[1]: {}} if words[0] == "ainfty" else {}}
    assert _registered(build_parser(words)) == expected


@pytest.mark.parametrize("words", [None, [], ["--help"], ["-h"], ["bogus"], ["bogus", "diamond"],
                                   ["--format", "json", "diamond"]], ids=str)
def test_words_that_name_no_command_get_the_whole_tree(words):
    parser = build_parser() if words is None else build_parser(words)
    assert _registered(parser) == EVERY_COMMAND


@pytest.mark.parametrize("words", [["ainfty"], ["ainfty", "--help"], ["ainfty", "bogus"],
                                   ["ainfty", "--budget", "3", "verify"]], ids=" ".join)
def test_ainfty_without_a_named_subcommand_gets_all_three(words):
    assert _registered(build_parser(words)) == {"ainfty": AINFTY}


def test_importing_the_cli_leaves_the_deformation_engine_unloaded():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = "import sys, thd.cli; print('thd.ainfty' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
