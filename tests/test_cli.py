"""CLI surface: formats, exit codes, determinism, round trips."""

import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import clear_memos
from pgpairs.cli import (
    MAX_NK,
    _pair_csv,
    console_main,
    main,
    run_grid,
    run_pair,
)
from pgpairs import pairs as pairs_module
from pgpairs.errors import (
    InconsistentEuler,
    InvalidParameter,
    NegativeCoefficient,
    NonExactDivision,
    NonIntegralGenus,
    PGError,
)
from pgpairs.pairs import CHECK_NAMES
from pgpairs.ring import LPoly
from pgpairs.schubert import ENGINES, lefschetz_shift


_UNUSED_AT_IMPORT = (
    "dataclasses",
    "inspect",
    "ast",
    "dis",
    "tokenize",
    "fractions",
    "decimal",
    "numbers",
    "argparse",
    "gettext",
)


def test_cli_import_loads_no_unused_standard_module():
    # a fresh interpreter without site: the modules `import pgpairs.cli` adds
    probe = (
        "import json, sys; before = set(sys.modules); import pgpairs.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    added = json.loads(done.stdout)
    assert "pgpairs.cli" in added
    assert sorted(set(_UNUSED_AT_IMPORT) & set(added)) == []


def test_run_pair_json_fields():
    # the JSON layer only: the (7,7) values themselves are criterion 5's
    text, code = run_pair(7, 7)
    assert code == 0
    assert json.loads(text) == pairs_module.build_pair_report(7, 7)


def test_run_pair_markdown_contains_key_values():
    text, code = run_pair(8, 4, "markdown")
    assert code == 0
    assert "| P(Y) | [1, 0, 22, 0, 1] |" in text
    assert "middle Betti b_8(X) | 24" in text
    assert "| middle_betti_link | pass |" in text


def test_run_pair_csv_round_trip_keys():
    text, code = run_pair(6, 5, "csv")
    assert code == 0
    assert text.startswith("key,value\n")
    assert "pair.dim_x,3" in text
    assert "variable_betti,10" in text


def test_pair_csv_quotes_a_value_that_holds_commas_and_quotes():
    finding = 'a finding, with "quotes" and commas'
    report = {**pairs_module.build_pair_report(6, 6), "findings": [finding]}
    rows = dict(csv.reader(io.StringIO(_pair_csv(report))))
    assert rows["findings"] == finding


def _ints(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, int):
        yield obj
    elif isinstance(obj, list):
        for x in obj:
            yield from _ints(x)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _ints(x)


def test_every_int_in_the_cli_domain_is_exact_in_a_double():
    # json.dumps writes every int exactly, but a reader that takes JSON numbers
    # as doubles rounds past 2^53: every report of the domain |n|, |k| <= MAX_NK
    # must stay below it, so raising MAX_NK past the safe range fails here
    grid = json.loads(run_grid(-MAX_NK, MAX_NK, -MAX_NK, MAX_NK)[0])
    reports = [json.loads(run_pair(row["n"], row["k"])[0]) for row in grid["rows"]]
    assert len(reports) == grid["summary"]["pass"] + grid["summary"]["fail"] > 0
    assert max(abs(v) for v in _ints([grid, reports])) < 2**53


def test_exit_codes_via_main(capsys):
    assert main(["pair", "--n", "7", "--k", "7"]) == 0
    capsys.readouterr()
    assert main(["pair", "--n", "6", "--k", "7"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "OutOfSmoothRange"
    assert main(["pair", "--n", "4", "--k", "1"]) == 2
    capsys.readouterr()
    assert main(["eval", "Gr(2,4) == Gr(2,5)"]) == 1
    assert capsys.readouterr().out.strip() == "false"
    assert main(["eval", "(1 + L) div (1 + L*L)"]) == 1
    capsys.readouterr()
    assert main(["eval", "1 ++"]) == 2
    capsys.readouterr()
    assert main(["eval", "P(3) * P(2)"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "1 + 2*L + 3*L^2 + 3*L^3 + 2*L^4 + L^5"
    assert main(["pair", "--n", "7", "--k", "7", "--checks", "nope"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_grid_small_sweep_passes():
    text, code = run_grid(4, 6, 1, 10, ())
    assert code == 0
    payload = json.loads(text)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] == len(payload["rows"])
    pairs = [(r["n"], r["k"]) for r in payload["rows"]]
    assert pairs == sorted(pairs)
    assert (6, 6) in pairs and (4, 1) not in pairs


def test_grid_empty_intersection():
    text, code = run_grid(4, 4, 7, 10, ())
    assert code == 0
    payload = json.loads(text)
    assert payload["rows"] == []
    assert payload["summary"] == {"pass": 0, "fail": 0, "skip": 4}


def test_grid_check_subset_l_equivalence():
    text, code = run_grid(5, 9, 4, 10, ("l_equivalence",))
    assert code == 0
    payload = json.loads(text)
    for row in payload["rows"]:
        if row["n"] % 2 == 1:
            assert row["checks"]["l_equivalence"] == "pass"


def test_grid_unknown_check_rejected():
    with pytest.raises(PGError):
        run_grid(4, 5, 1, 2, ("bogus",))


def test_grid_deterministic_across_runs():
    first, code1 = run_grid(4, 7, 1, 10, ())
    second, code2 = run_grid(4, 7, 1, 10, ())
    assert first == second
    assert code1 == code2 == 0


def test_far_grid_passes_under_both_engines_with_the_same_rows(cold_memos):
    # n 4..24, k 1..12, past the golden range: each engine, from memos as
    # cold as a fresh process's, fills its own rows across every n
    rows = []
    for engine in ENGINES:
        clear_memos()
        text, code = run_grid(4, 24, 1, 12, engine=engine)
        assert code == 0, engine
        rows.append(json.loads(text)["rows"])
    assert rows[0] == rows[1]


def test_grid_markdown_and_csv_render():
    text, _ = run_grid(4, 6, 2, 6, (), output_format="markdown")
    assert "| n | k | status |" in text
    text, _ = run_grid(4, 6, 2, 6, (), output_format="csv")
    assert text.splitlines()[0].startswith("n,k,status")


def test_grid_via_main(capsys):
    code = main(
        ["grid", "--n-min", "4", "--n-max", "5", "--k-min", "1", "--k-max", "6"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0


def test_stderr_is_one_json_object_per_pgerror_and_argparse_text_for_a_malformed_command_line(capsys):
    # a PGError, here an unknown check name, is one JSON object on stderr
    assert main(["pair", "--n", "7", "--k", "7", "--checks", "nope"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "PGError"
    # argparse refuses a non-integer n and an unknown format in its own words
    for argv in (["pair", "--n", "x", "--k", "2"], ["pair", "--n", "7", "--k", "7", "--format", "xml"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pgpairs pair ") and "error: argument --" in err
        with pytest.raises(json.JSONDecodeError):
            json.loads(err)


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--cache-dir", "x"]])
def test_grid_removed_flags_are_usage_errors(flag, capsys):
    argv = ["grid", "--n-min", "4", "--n-max", "5", "--k-min", "1", "--k-max", "6"]
    assert main(argv + flag) == 2
    assert capsys.readouterr().out == ""


def test_run_pair_unknown_check_rejected():
    with pytest.raises(PGError, match="no_such_check"):
        run_pair(7, 7, checks=("no_such_check",))


@pytest.mark.parametrize("n,k", [(7, 7), (8, 4)])
def test_full_report_check_names_match_check_names(n, k):
    report = json.loads(run_pair(n, k)[0])
    assert tuple(c["name"] for c in report["checks"]) == CHECK_NAMES


def test_unknown_format_rejected_before_any_report(monkeypatch):
    def no_report(*args):
        raise AssertionError("a report was built for an unknown format")

    monkeypatch.setattr("pgpairs.cli.build_pair_report", no_report)
    with pytest.raises(PGError, match="unknown format 'xml'"):
        run_pair(8, 4, output_format="xml")
    with pytest.raises(PGError, match="unknown format 'xml'"):
        run_grid(4, 7, 1, 10, (), output_format="xml")


def test_unknown_engine_rejected_before_any_report(monkeypatch):
    def no_report(*args):
        raise AssertionError("a report was built for an unknown engine")

    monkeypatch.setattr("pgpairs.cli.build_pair_report", no_report)
    with pytest.raises(InvalidParameter, match="unknown engine 'bad'"):
        run_pair(7, 7, engine="bad")
    with pytest.raises(InvalidParameter, match="unknown engine 'bad'"):
        run_grid(4, 5, 1, 3, (), engine="bad")


def test_n_and_k_past_the_bound_rejected_before_any_report(monkeypatch, capsys):
    def no_report(*args):
        raise AssertionError("a report was built for a request past the bound")

    monkeypatch.setattr("pgpairs.cli.build_pair_report", no_report)
    past = MAX_NK + 1
    for n, k in ((past, 4), (8, past), (-past, 4)):
        with pytest.raises(InvalidParameter, match=f"outside -{MAX_NK}..{MAX_NK}"):
            run_pair(n, k)
    for request in ((4, past, 1, 4), (4, 5, 1, past), (-past, 5, 1, 4)):
        with pytest.raises(InvalidParameter, match=f"outside -{MAX_NK}..{MAX_NK}"):
            run_grid(*request)
    assert main(["pair", "--n", str(past), "--k", "4"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidParameter"
    assert main(["grid", "--n-min", "4", "--n-max", "5", "--k-min", "1", "--k-max", str(past)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidParameter"
    # on the bound every pair here is invalid, so the grid is all skip rows
    text, code = run_grid(MAX_NK - 1, MAX_NK, -MAX_NK, -MAX_NK + 1, ())
    assert code == 0
    assert json.loads(text)["summary"] == {"pass": 0, "fail": 0, "skip": 4}


def test_eval_zero_divisor_is_an_eval_error(capsys):
    assert main(["eval", "1 div 0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "EvalError", "message": "division by zero: (1 div 0)"}


@pytest.mark.parametrize(
    "source", ["+".join(["1"] * 1000), "(" * 300 + "1" + ")" * 300], ids=["long_sum", "deep_parens"]
)
def test_eval_too_deep_is_a_parse_error(source, capsys):
    assert main(["eval", source]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "source", ["1" * 5000, "P(1001)", "Gr(2,1001) == Gr(2,1001)"], ids=["long_literal", "P", "Gr"]
)
def test_eval_out_of_bounds_is_a_parse_error(source, capsys):
    assert main(["eval", source]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ParseError"


@pytest.mark.parametrize("source", ["1 + ²", "P(٣)"], ids=["superscript_two", "arabic_indic_three"])
def test_eval_non_ascii_digit_is_a_parse_error(source, capsys):
    assert main(["eval", source]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ParseError"


def test_eval_result_too_long_to_print_is_a_typed_error(capsys):
    # five 1,000-digit literals, each within the DSL bound, multiply to a
    # 5,000-digit coefficient, past Python's bound on int-to-text conversion
    assert main(["eval", "*".join(["9" * 1000] * 5)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InvalidParameter"


def test_eval_past_the_work_budget_is_a_typed_error(capsys):
    assert main(["eval", "*".join(["P(1000)"] * 100)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "InvalidParameter"
    assert error["message"].endswith("units: ((P(1000) * P(1000)) * P(1000))")


@pytest.mark.parametrize(
    "source, code, out",
    [
        ("Gr(2,1000) == P(998)*SumEven(1000)", 0, "true"),
        ("Gr(2,700) div P(698) == SumEven(700)", 0, "true"),
        ("P(1000)*P(1000)*P(1000)", 2, ""),  # past the work budget
    ],
    ids=["gr_class", "div", "cube"],
)
def test_eval_at_the_largest_constructor_argument_exits_with_its_code(source, code, out, capsys):
    assert main(["eval", source]) == code
    assert capsys.readouterr().out.strip() == out


def test_eval_value_of_no_known_type_is_an_eval_error(monkeypatch, capsys):
    monkeypatch.setattr("pgpairs.cli.eval_dsl", lambda source: 3)
    assert main(["eval", "1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "EvalError"


def test_grid_reports_an_inconsistent_pair_as_an_error_row(monkeypatch):
    # a pair outside the domain is a skip row; an internal inconsistency in
    # make_pair is an error row and fails the sweep
    monkeypatch.setattr("pgpairs.pairs.lefschetz_shift", lambda n: lefschetz_shift(n) + 1)
    text, code = run_grid(7, 8, 6, 7)
    assert code == 1
    payload = json.loads(text)
    # (8,7) is past the smooth bound for even n
    assert payload["summary"] == {"pass": 0, "fail": 3, "skip": 1}
    assert {row["error"] for row in payload["rows"]} == {"InconsistentEuler"}


@pytest.mark.parametrize(
    "output_format, error_row",
    [("markdown", "| 7 | 6 | error | | | | | | | |"), ("csv", "7,6,error,,,,,,,")],
)
def test_grid_error_row_leaves_the_cells_after_its_status_empty(monkeypatch, output_format, error_row):
    monkeypatch.setattr("pgpairs.pairs.lefschetz_shift", lambda n: lefschetz_shift(n) + 1)
    text, code = run_grid(7, 8, 6, 7, output_format=output_format)
    assert code == 1
    assert error_row in text.splitlines()


def test_pair_markdown_ends_with_the_finding():
    text, _ = run_pair(6, 6, output_format="markdown")
    assert text.splitlines()[-1].startswith("finding: dual of dimension 4: ")


def test_grid_empty_parameter_range_rejected():
    with pytest.raises(PGError, match="^empty parameter ranges$"):
        run_grid(5, 4, 1, 2)


def test_internal_inconsistency_exits_3(monkeypatch, capsys):
    def inconsistent(n, k, engine):
        raise InconsistentEuler("forced")

    monkeypatch.setattr("pgpairs.cli.build_pair_report", inconsistent)
    assert main(["pair", "--n", "7", "--k", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "InconsistentEuler", "message": "forced"}


# the other report errors that exit 3, as internal inconsistencies
@pytest.mark.parametrize("error", [NonIntegralGenus, NonExactDivision, NegativeCoefficient], ids=lambda e: e.__name__)
def test_internal_errors_exit_3(monkeypatch, capsys, error):
    def raising(n, k, engine):
        raise error("forced")

    monkeypatch.setattr("pgpairs.cli.build_pair_report", raising)
    assert main(["pair", "--n", "7", "--k", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": error.__name__, "message": "forced"}


def test_a_relation_that_fails_exits_3(monkeypatch, capsys, cold_memos):
    # a wrong [H(2,n)] breaks the cut-and-paste relation of (8,4): the
    # division of its decomposable difference into the Tate remainder
    # leaves a remainder
    h = pairs_module.hyperplane_section_class
    monkeypatch.setattr(pairs_module, "hyperplane_section_class", lambda n: h(n) + LPoly.monomial(1))
    assert main(["pair", "--n", "8", "--k", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "NonExactDivision",
        "message": "remainder of degree 4 left by division of the decomposable difference of (8,4) by t^6",
    }


@pytest.mark.parametrize("argv, code", [(["eval", "1"], 0), (["eval", "1 div 0"], 1), (["eval", "1 ++"], 2)])
def test_console_main_exits_with_the_code_of_main(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["pgpairs", *argv])
    with pytest.raises(SystemExit) as exc:
        console_main()
    assert exc.value.code == code


def _readme_blocks(language):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    fenced = re.findall(r"^```(\w*)\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    return [body for lang, body in fenced if lang == language]


def test_readme_python_example_runs_as_written(capsys):
    (block,) = _readme_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(0, 0, 0, 1, 22, 1, 0, 0, 0)\n"


def test_readme_quick_start_commands_succeed_and_print_what_it_shows(capsys):
    quick_start = next(block for block in _readme_blocks("") if block.startswith("$ pgpairs"))
    commands = re.findall(r"^\$ pgpairs (.*)\n((?:[^$].*\n)*)", quick_start, flags=re.MULTILINE)
    for command, shown in commands:
        assert main(shlex.split(command)) == 0, command
        out = capsys.readouterr().out
        if shown:
            assert out == shown, command
    assert [shown for command, shown in commands if command.startswith("eval")] == ["true\n", "true\n"]


_EMPTY = "e3b0c44298fc1c14"  # the sha256 of no output
# (command, under the lefschetz_shift mutant, sha256 prefixes of stdout and
# stderr, exit code); pinned on the report layer as it was before the checks
# came from one loop over CHECK_NAMES, so a rewrite must keep every byte
_PINNED_OUTPUTS = [
    ("pair --n 4 --k 2 --format json", False, "22c50c5c1a6fa205", _EMPTY, 0),
    ("pair --n 4 --k 2 --format markdown", False, "1756680fcceb360d", _EMPTY, 0),
    ("pair --n 4 --k 2 --format csv", False, "51c89541137436e6", _EMPTY, 0),
    ("pair --n 5 --k 4 --format json", False, "dcd7c5a4e500a552", _EMPTY, 0),
    ("pair --n 5 --k 4 --format markdown", False, "ece8808bf50839c4", _EMPTY, 0),
    ("pair --n 5 --k 4 --format csv", False, "f34338009ba5a52d", _EMPTY, 0),
    ("pair --n 6 --k 6 --format json", False, "a23fec640ffb8dd7", _EMPTY, 0),
    ("pair --n 6 --k 6 --format markdown", False, "7dda33adb5caae3d", _EMPTY, 0),
    ("pair --n 6 --k 6 --format csv", False, "2a02b01167c242ca", _EMPTY, 0),
    ("pair --n 7 --k 7 --format json", False, "b852f7a74755ee9d", _EMPTY, 0),
    ("pair --n 7 --k 7 --format markdown", False, "9581c33436bf7ec8", _EMPTY, 0),
    ("pair --n 7 --k 7 --format csv", False, "cbb91322c242ba06", _EMPTY, 0),
    ("pair --n 8 --k 4 --format json", False, "5eb897179d793079", _EMPTY, 0),
    ("pair --n 8 --k 4 --format markdown", False, "e0ef80c27d73c1bf", _EMPTY, 0),
    ("pair --n 8 --k 4 --format csv", False, "cef805d084d45374", _EMPTY, 0),
    ("pair --n 9 --k 4 --format json", False, "1aa164d740a16b79", _EMPTY, 0),
    ("pair --n 9 --k 4 --format markdown", False, "827af121f0315c8e", _EMPTY, 0),
    ("pair --n 9 --k 4 --format csv", False, "2b4ccc20ec95f3c5", _EMPTY, 0),
    ("pair --n 7 --k 7 --engine lr --checks fiber_shift,dual_shape", False, "0292a52e5632372d", _EMPTY, 0),
    ("grid --n-min 4 --n-max 12 --k-min 0 --k-max 11 --format json", False, "4980b240f3b028ce", _EMPTY, 0),
    ("grid --n-min 4 --n-max 12 --k-min 0 --k-max 11 --format markdown", False, "7629f8555fb137b5", _EMPTY, 0),
    ("grid --n-min 4 --n-max 12 --k-min 0 --k-max 11 --format csv", False, "31a7e2ed333ece5e", _EMPTY, 0),
    ("grid --n-min 4 --n-max 12 --k-min 1 --k-max 10 --format json", False, "9024fa57e06f3fbd", _EMPTY, 0),
    ("grid --n-min 4 --n-max 12 --k-min 1 --k-max 10 --format markdown", False, "0bbbe1011d82c97c", _EMPTY, 0),
    ("grid --n-min 4 --n-max 12 --k-min 1 --k-max 10 --format csv", False, "31a7e2ed333ece5e", _EMPTY, 0),
    (
        "grid --n-min 13 --n-max 16 --k-min 1 --k-max 10 --engine lr --checks hodge_consistency",
        False, "8fe932c01cbf97de", _EMPTY, 0,
    ),
    # the far grid, pinned at the list-in-y chi_y before it was packed into ints
    ("grid --n-min 13 --n-max 24 --k-min 1 --k-max 12 --format json", False, "2971fcd4780ff2b4", _EMPTY, 0),
    ("pair --n 3 --k 1", False, _EMPTY, "b6216ab852f1630d", 2),
    ("pair --n 8 --k 7", False, _EMPTY, "1b3db4fd8a76be26", 2),
    ("pair --n 25 --k 1", False, _EMPTY, "cdc2978c75688a50", 2),
    ("grid --n-min 4 --n-max 9 --k-min 1 --k-max 8 --format markdown", True, "f0a9ddd7ec1c7bde", _EMPTY, 1),
    ("grid --n-min 4 --n-max 9 --k-min 1 --k-max 8 --format csv", True, "0d6966f56177c4d4", _EMPTY, 1),
]


@pytest.mark.parametrize("command, mutant, out_sha, err_sha, code", _PINNED_OUTPUTS, ids=[c[0] for c in _PINNED_OUTPUTS])
def test_report_bytes_and_exit_code_are_pinned(monkeypatch, capsys, command, mutant, out_sha, err_sha, code):
    if mutant:
        monkeypatch.setattr("pgpairs.pairs.lefschetz_shift", lambda n: lefschetz_shift(n) + 1)
    assert main(command.split()) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == out_sha
    assert hashlib.sha256(captured.err.encode()).hexdigest()[:16] == err_sha


# the whole CLI domain at MAX_NK = 24: every `pair` with n 4..24 and k 1..12, accepted or
# rejected, and the grid over the same ranges, in each format under each
# engine; one sha256 over each command's stdout, stderr and exit code
_DOMAIN_SHA = "84d7d6a203b41ed8"


def _domain_commands():
    for engine in ENGINES:
        for fmt in ("json", "markdown", "csv"):
            yield f"grid --n-min 4 --n-max 24 --k-min 1 --k-max 12 --format {fmt} --engine {engine}"
            for n in range(4, 25):
                for k in range(1, 13):
                    yield f"pair --n {n} --k {k} --format {fmt} --engine {engine}"


def test_cli_domain_bytes_and_exit_codes_are_pinned(capsys):
    digest = hashlib.sha256()
    for command in _domain_commands():
        code = main(command.split())
        captured = capsys.readouterr()
        digest.update(f"{command}\0{captured.out}\0{captured.err}\0{code}\n".encode())
    assert digest.hexdigest()[:16] == _DOMAIN_SHA
