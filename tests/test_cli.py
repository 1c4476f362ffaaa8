"""CLI surface: formats, exit codes, determinism, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgpairs.cli import (
    MAX_NK,
    decode_ints,
    main,
    run_grid,
    run_pair,
    _dump_json,
    _encode,
)
from pgpairs.errors import InvalidParameter, PGError
from pgpairs.pairs import CHECK_NAMES
from pgpairs.schubert import lefschetz_shift


_UNUSED_AT_IMPORT = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "numbers")


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
    text, code = run_pair(7, 7)
    assert code == 0
    rep = json.loads(text)
    assert rep["schema_version"] == 1
    assert rep["euler"] == -98
    assert rep["hodge"]["middle_hodge"] == [1, 50, 50, 1]
    assert rep["poincare_x"] == rep["poincare_y"]
    assert rep["motivic_equivalence"]["status"] == "applies"


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


def test_json_round_trip_is_lossless():
    from pgpairs.pairs import build_pair_report

    report = build_pair_report(8, 4)
    assert decode_ints(json.loads(_dump_json(report))) == report
    huge = 2**80
    payload = {"value": huge, "nested": [1, huge, -huge]}
    rendered = _dump_json(payload)
    assert f'"{huge}"' in rendered
    assert decode_ints(json.loads(rendered)) == payload


_json_ints = st.recursive(
    st.integers() | st.integers(2**53 - 2, 2**70) | st.integers(-(2**70), -(2**53) + 2),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_json_ints)
def test_encode_decode_round_trip_on_nested_ints(obj):
    assert decode_ints(_encode(obj)) == obj
    assert decode_ints(json.loads(_dump_json(obj))) == obj


def test_json_round_trip_keeps_digit_strings():
    payload = {"s": "12", "neg": "-7", "padded": "007", "big": str(2**80), "n": 2**80}
    assert decode_ints(json.loads(_dump_json(payload))) == {**payload, "big": 2**80}


def test_exit_codes_via_main(capsys):
    assert main(["pair", "--n", "7", "--k", "7"]) == 0
    capsys.readouterr()
    assert main(["pair", "--n", "6", "--k", "7"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "OutOfSmoothRange"
    assert main(["pair", "--n", "4", "--k", "1"]) == 2
    capsys.readouterr()
    assert main(["eval", "Gr(2,5) == P(4) * SumEven(5)"]) == 0
    assert capsys.readouterr().out.strip() == "true"
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
