"""The class expression language: grammar, evaluation, error positions."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgpairs.cli import main
from pgpairs.dsl import MAX_ARG, MAX_DEPTH, MAX_DIGITS, eval_dsl
from pgpairs.errors import EvalError, ParseError
from pgpairs.ring import LPoly, projective_class
from pgpairs.schubert import grassmannian_class, hyperplane_section_class


def test_grassmannian_product_identity():
    assert eval_dsl("Gr(2,5) == P(4) * SumEven(5)") is True


def test_decomposable_identity():
    assert eval_dsl("P(6)*H(2,7) == P(5)*Gr(2,7)") is True


def test_non_exact_division_raises():
    with pytest.raises(EvalError) as exc:
        eval_dsl("(1 + L) div (1 + L*L)")
    assert "non-exact" in str(exc.value)


def test_atoms_and_precedence():
    assert eval_dsl("L") == LPoly.monomial(1)
    assert eval_dsl("7") == LPoly({0: 7})
    assert eval_dsl("1 + 2 * 3") == LPoly({0: 7})
    assert eval_dsl("(1 + 2) * 3") == LPoly({0: 9})
    assert eval_dsl("1 + L + L*L") == LPoly.from_coeffs([1, 1, 1])
    assert eval_dsl("Gr(2,4) - H(2,4)") == grassmannian_class(4) - hyperplane_section_class(4)


def test_constructors():
    assert eval_dsl("P(3)") == projective_class(3)
    assert eval_dsl("F2(4) - F1(4)") == LPoly.monomial(2)
    assert eval_dsl("SumEven(6)") == LPoly.from_coeffs([1, 0, 1, 0, 1])


def test_exact_division():
    assert eval_dsl("Gr(2,4) div P(2)") == LPoly.from_coeffs([1, 0, 1])
    assert eval_dsl("(L*L*L + L*L*L*L) div (L*L*L)") == LPoly.from_coeffs([1, 1])


@pytest.mark.parametrize("source, fragment", [("1 div 0", "(1 div 0)"), ("L div (L-L)", "(L div (L - L))")])
def test_zero_divisor_is_an_eval_error(source, fragment):
    with pytest.raises(EvalError) as exc:
        eval_dsl(source)
    assert exc.value.fragment == fragment
    assert "division by zero" in str(exc.value)


def test_comparison_false():
    assert eval_dsl("Gr(2,4) == Gr(2,5)") is False


def test_whitespace_and_newlines():
    assert eval_dsl("  Gr(2,5)\n  ==\n  P(4)*SumEven(5)  ") is True


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        eval_dsl("Gr(2,,5)")
    assert exc.value.line == 1
    assert exc.value.column == 6

    with pytest.raises(ParseError) as exc:
        eval_dsl("1 +\n* 2")
    assert exc.value.line == 2
    assert exc.value.column == 1

    with pytest.raises(ParseError) as exc:
        eval_dsl("Blah(3)")
    assert exc.value.column == 1


def test_parse_error_cases():
    for bad in ("", "1 +", "(1", "Gr(2)(3)", "1 2", "P(x)", "Gr 2", "1 @ 2"):
        with pytest.raises(ParseError):
            eval_dsl(bad)


def test_eval_error_ranges():
    with pytest.raises(EvalError):
        eval_dsl("Gr(3,6)")
    with pytest.raises(EvalError):
        eval_dsl("Gr(2,3)")
    with pytest.raises(EvalError):
        eval_dsl("H(2,2)")
    with pytest.raises(EvalError):
        eval_dsl("F1(3)")
    with pytest.raises(EvalError):
        eval_dsl("SumEven(1)")
    with pytest.raises(EvalError):
        eval_dsl("P(1,2)")


def test_comparison_cannot_feed_arithmetic():
    with pytest.raises(EvalError):
        eval_dsl("(Gr(2,4) == Gr(2,4)) + 1")


def test_nesting_up_to_the_bound_evaluates():
    assert eval_dsl("+".join(["1"] * (MAX_DEPTH + 1))) == LPoly({0: MAX_DEPTH + 1})
    assert eval_dsl("(" * MAX_DEPTH + "L" + ")" * MAX_DEPTH) == LPoly.monomial(1)
    assert eval_dsl("(" * (MAX_DEPTH - 1) + "1 + L" + ")" * (MAX_DEPTH - 1)) == LPoly.from_coeffs([1, 1])


@pytest.mark.parametrize(
    "source, column",
    [
        ("+".join(["1"] * 1000), 2 * (MAX_DEPTH + 1)),  # the first "+" past the bound
        ("*".join(["L"] * 1000), 2 * (MAX_DEPTH + 1)),
        ("(" * 300 + "1" + ")" * 300, MAX_DEPTH + 1),  # the first "(" past the bound
        ("(" * MAX_DEPTH + "1 + 1" + ")" * MAX_DEPTH, MAX_DEPTH + 3),
    ],
    ids=["long_sum", "long_product", "deep_parens", "sum_in_deep_parens"],
)
def test_nesting_past_the_bound_is_a_parse_error(source, column):
    with pytest.raises(ParseError) as exc:
        eval_dsl(source)
    assert (exc.value.line, exc.value.column) == (1, column)
    assert f"deeper than {MAX_DEPTH}" in str(exc.value)


def test_literal_up_to_the_digit_bound_evaluates():
    assert eval_dsl("9" * MAX_DIGITS + " + 1") == LPoly({0: 10**MAX_DIGITS})


@pytest.mark.parametrize(
    "source, position",
    [
        ("1" * (MAX_DIGITS + 1), (1, 1)),
        ("1" * 5000, (1, 1)),  # past the interpreter's own 4300-digit conversion limit
        ("L +\n  " + "7" * (MAX_DIGITS + 1) + " * L", (2, 3)),
    ],
    ids=["one_past", "5000_digits", "second_line"],
)
def test_literal_past_the_digit_bound_is_a_parse_error(source, position):
    with pytest.raises(ParseError) as exc:
        eval_dsl(source)
    assert (exc.value.line, exc.value.column) == position
    assert f"longer than {MAX_DIGITS} digits" in str(exc.value)


def test_constructor_argument_up_to_the_bound_evaluates():
    assert eval_dsl(f"P({MAX_ARG})") == projective_class(MAX_ARG)
    assert eval_dsl(f"SumEven({MAX_ARG})") == LPoly({2 * k: 1 for k in range(MAX_ARG // 2)})


@pytest.mark.parametrize(
    "source, column",
    [("P(1001)", 3), ("Gr(2,1001)", 6), ("Gr(1001,4)", 4), ("F1(1001)", 4), ("H(2, 5) * SumEven(1001)", 19)],
    ids=["P", "Gr_n", "Gr_first", "F1", "SumEven_in_product"],
)
def test_constructor_argument_past_the_bound_is_a_parse_error(source, column):
    assert MAX_ARG == 1000
    with pytest.raises(ParseError) as exc:
        eval_dsl(source)
    assert (exc.value.line, exc.value.column) == (1, column)
    assert f"exceeds {MAX_ARG}" in str(exc.value)


@pytest.mark.parametrize(
    "source, position",
    [("1 + ²", (1, 5)), ("P(٣)", (1, 3)), ("1 +\n 2٣", (2, 3))],
    ids=["superscript_two", "arabic_indic_three", "after_ascii_digit"],
)
def test_non_ascii_digits_are_parse_errors(source, position):
    # only 0-9 are digits: P(٣) must not evaluate as P(3)
    with pytest.raises(ParseError) as exc:
        eval_dsl(source)
    assert (exc.value.line, exc.value.column) == position


# ---------------------------------------------------------------------------
# fuzzing: only ParseError and EvalError escape, and `eval` maps them to 2 and 1

_CTOR_NAMES = ("P", "Gr", "H", "F1", "F2", "SumEven")
_ctor = st.builds(
    lambda name, args: f"{name}({','.join(map(str, args))})",
    st.sampled_from(_CTOR_NAMES),
    st.lists(st.integers(0, 8), min_size=1, max_size=2),
)
_atom = st.one_of(st.integers(0, 12).map(str), st.just("L"), st.just("(L - L)"), _ctor)
_well_formed = st.recursive(
    _atom,
    lambda inner: st.builds(
        lambda lhs, op, rhs: f"({lhs} {op} {rhs})", inner, st.sampled_from(["+", "-", "*", "div", "=="]), inner
    ),
    max_leaves=8,
)
_TOKENS = ("0", "1", "7", "L", *_CTOR_NAMES, "(", ")", ",", "+", "-", "*", "div", "==", "=", "x", "@", "\n", "²")
_token_soup = st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join)
_spliced = st.builds(lambda src, i, tok: src[:i] + tok + src[i:], _well_formed, st.integers(0, 60), st.sampled_from(_TOKENS))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_well_formed, _token_soup, _spliced))
def test_fuzzed_expressions_raise_only_typed_errors(source):
    error = None
    try:
        result = eval_dsl(source)
    except ParseError as exc:
        error, expected = exc, 2
        lines = source.split("\n")
        assert 1 <= exc.line <= len(lines)
        assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1
    except EvalError as exc:
        error, expected = exc, 1
    else:
        expected = 1 if result is False else 0
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(["eval", source]) == expected, source
    if error is not None:
        assert json.loads(err.getvalue())["error"] == type(error).__name__
