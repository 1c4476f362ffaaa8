"""The class expression language: grammar, evaluation, error positions."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgpairs.cli import MAX_NK, main
from pgpairs import dsl, pairs
from pgpairs.dsl import MAX_ARG, MAX_DEPTH, MAX_DIGITS, MAX_WORK, eval_dsl
from pgpairs.errors import EvalError, InvalidParameter, ParseError
from pgpairs.ring import MAX_DEGREE, LPoly, projective_class
from pgpairs.schubert import grassmannian_class, hyperplane_section_class


def check_grassmannian_product_identity():
    assert eval_dsl("Gr(2,5) == P(4) * SumEven(5)") is True


def test_grassmannian_product_identity():
    check_grassmannian_product_identity()


def check_decomposable_identity():
    assert eval_dsl("P(6)*H(2,7) == P(5)*Gr(2,7)") is True


def test_decomposable_identity():
    check_decomposable_identity()


def check_non_exact_division_raises():
    with pytest.raises(EvalError) as exc:
        eval_dsl("(1 + L) div (1 + L*L)")
    assert "non-exact" in str(exc.value)


def test_non_exact_division_raises():
    check_non_exact_division_raises()


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


@pytest.mark.parametrize(
    "source, message, position",
    [
        ("1 == 2 == 3", "unexpected trailing '=='", (1, 8)),
        ("", "unexpected end of input", (1, 1)),
        ("P(3", "expected ')', found end of input", (1, 4)),
        ("Gr 2", "expected '(', found 2", (1, 4)),
        ("P()", "constructor arguments must be integer literals, found ')'", (1, 3)),
        ("P(", "constructor arguments must be integer literals, found end of input", (1, 3)),
        ("1 +\n\t* 2", "unexpected '*'", (2, 2)),
    ],
    ids=[
        "second_comparison", "empty", "unclosed_call", "call_without_parenthesis", "no_arguments", "cut_after_the_call",
        "tab_column",
    ],
)
def test_parse_error_message_and_position(source, message, position):
    with pytest.raises(ParseError) as exc:
        eval_dsl(source)
    assert (exc.value.line, exc.value.column) == position
    assert str(exc.value) == f"{message} (line {position[0]}, column {position[1]})"


@pytest.mark.parametrize(
    "source, message, fragment",
    [
        ("P(1,2)", "P takes one nonnegative integer", "P(1, 2)"),
        ("Gr(3,6)", "Gr takes arguments (2, n) with n >= 4", "Gr(3, 6)"),
        ("H(2,2)", "H takes arguments (2, n) with n >= 4", "H(2, 2)"),
        ("F1(3)", "F1 takes one integer n >= 4", "F1(3)"),
        ("F2(4,5)", "F2 takes one integer n >= 4", "F2(4, 5)"),
        ("SumEven(1)", "SumEven takes one integer n >= 2", "SumEven(1)"),
        ("Gr( 2 )", "Gr takes arguments (2, n) with n >= 4", "Gr(2)"),
    ],
    ids=["P", "Gr", "H", "F1", "F2", "SumEven", "Gr_one_argument"],
)
def test_constructor_eval_error_message_and_fragment(source, message, fragment):
    with pytest.raises(EvalError) as exc:
        eval_dsl(source)
    assert exc.value.fragment == fragment
    assert str(exc.value) == f"{message}: {fragment}"


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


def test_sibling_chains_count_their_nesting_once():
    # a chain's operators stop counting where the chain ends, so the levels
    # of sibling chains do not add up past the bound
    assert eval_dsl("+".join(["L*L"] * 60)) == LPoly({2: 60})
    assert eval_dsl("*".join(["(1 + L)"] * 60)) == LPoly.from_coeffs([comb(60, i) for i in range(61)])


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
    "source, work, fragment",
    [
        # P 3 + 4, the product 4 * 5, SumEven 6, the sum 8 + 5, Gr 2 * 5 - 3,
        # the comparison 8 + 7
        ("P(3)*P(4) + SumEven(6) == Gr(2,5)", 68, "(((P(3) * P(4)) + SumEven(6)) == Gr(2, 5))"),
        # a 601-bit coefficient counts two units and a 1201-bit one three:
        # 2 * 2 for the product and 3 + 3 for the comparison
        (f"{2**600} * {2**600} == {2**1200}", 4 + 6, f"(({2**600} * {2**600}) == {2**1200})"),
        # each of the 2 steps of long division by L - 1 may grow a remainder
        # by a bit, so the dividend counts 3 * 1 units, times the divisor's
        # 2, after 2 * 2 for L * L, 3 + 1 for L * L - 1 and 2 + 1 for L - 1
        ("(L*L - 1) div (L - 1)", 4 + 4 + 3 + 6, "(((L * L) - 1) div (L - 1))"),
        # each constructor at its lower bound and at MAX_ARG, where its class builder never raises:
        # P and SumEven cost n, Gr 2n - 3, and H, F1 and F2 n^2
        ("P(0)", 0, "P(0)"),
        (f"P({MAX_ARG})", MAX_ARG, f"P({MAX_ARG})"),
        ("Gr(2,4)", 5, "Gr(2, 4)"),
        (f"Gr(2,{MAX_ARG})", 2 * MAX_ARG - 3, f"Gr(2, {MAX_ARG})"),
        ("H(2,4)", 16, "H(2, 4)"),
        (f"H(2,{MAX_ARG})", MAX_ARG**2, f"H(2, {MAX_ARG})"),
        ("F1(4)", 16, "F1(4)"),
        (f"F1({MAX_ARG})", MAX_ARG**2, f"F1({MAX_ARG})"),
        ("F2(4)", 16, "F2(4)"),
        (f"F2({MAX_ARG})", MAX_ARG**2, f"F2({MAX_ARG})"),
        ("SumEven(2)", 2, "SumEven(2)"),
        (f"SumEven({MAX_ARG})", MAX_ARG, f"SumEven({MAX_ARG})"),
    ],
    ids=[
        "constructors_and_operators", "coefficient_bits", "division",
        *(f"{name}_{bound}" for name in ("P", "Gr", "H", "F1", "F2", "SumEven") for bound in ("low", "max_arg")),
    ],
)
def test_work_is_charged_step_by_step(monkeypatch, source, work, fragment):
    monkeypatch.setattr(dsl, "MAX_WORK", work)
    eval_dsl(source)
    monkeypatch.setattr(dsl, "MAX_WORK", work - 1)
    with pytest.raises(InvalidParameter) as exc:
        eval_dsl(source)
    assert str(exc.value) == f"more work than MAX_WORK = {work - 1} units: {fragment}"


def test_work_up_to_the_budget_evaluates():
    assert MAX_WORK == 3_000_000
    # 1000 + 1000 + 1001^2 units, and 1000^2 for H(2,1000)
    assert eval_dsl("P(1000)*P(1000)") == projective_class(1000) * projective_class(1000)
    assert eval_dsl("H(2,1000) == H(2,1000)") is True


def test_grassmannian_is_charged_the_size_of_its_class():
    # Gr(2,n) costs 2n - 3, its degree plus one: 1997 + 1995 + 1993 units,
    # then 1997 + 1995 and 1997 + 1993 for the sums.  Charged n^2, the three
    # classes alone would cost 2,994,005 units and the sums pass MAX_WORK
    expected = grassmannian_class(1000) + grassmannian_class(999) + grassmannian_class(998)
    assert eval_dsl("Gr(2,1000)+Gr(2,999)+Gr(2,998)") == expected


def test_every_class_the_budget_admits_is_within_the_degree_bound():
    # each step is charged at least the degree of its result, so a class of
    # an admitted expression has degree below MAX_WORK
    assert MAX_WORK <= MAX_DEGREE
    assert eval_dsl("P(1000)*P(1000)").degree == 2000


def test_fiber_classes_past_the_cli_domain_keep_a_bounded_memo():
    # F1(n) reaches the ambient memo of pairs for every n up to MAX_ARG; it
    # keeps each n of the CLI domain 4..MAX_NK and never more entries
    assert pairs._ambient.cache_info().maxsize == MAX_NK
    for n in chain(range(4, MAX_NK + 1), range(MAX_ARG - 19, MAX_ARG + 1)):
        eval_dsl(f"F1({n})")
        assert pairs._ambient.cache_info().currsize <= MAX_NK


@pytest.mark.parametrize("n_max", [199, pytest.param(999, marks=pytest.mark.slow)])
def test_l_equivalence_past_the_cli_domain_keeps_no_decomposable_terms(n_max):
    # check_l_equivalence reads the window sums past the decomposables memo:
    # memoized, the odd n 5..999 left 498 entries holding 70 MiB
    before = pairs._decomposables.cache_info().currsize
    for n in range(5, n_max + 1, 2):
        assert pairs.check_l_equivalence(n)
    assert pairs._decomposables.cache_info().currsize == before
    assert pairs._ambient.cache_info().currsize <= MAX_NK


_BIG = "*".join(["9" * 1000] * 5)


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("*".join(["P(1000)"] * 100), "((P(1000) * P(1000)) * P(1000))"),
        ("+".join(["H(2,1000)"] * 100), "H(2, 1000)"),
        (f"(P(100)*{_BIG})*(P(100)*{_BIG})", None),
        (f"(P(1000)*(L - 1)) div (L - {'9' * 1000})", None),
    ],
    ids=["100_factors", "100_summands", "16600_bit_coefficients", "growing_remainder"],
)
def test_work_past_the_budget_is_refused_early(source, fragment):
    # each of these runs for seconds or longer unbounded: 100 factors of
    # P(1000) for hours, the square of a class with 16,600-bit coefficients
    # for 3 s, and a division whose remainder grows by 3,300 bits a step for
    # 10 s
    start = time.perf_counter()
    with pytest.raises(InvalidParameter) as exc:
        eval_dsl(source)
    assert time.perf_counter() - start < 1
    assert str(exc.value).startswith(f"more work than MAX_WORK = {MAX_WORK} units: ")
    if fragment is not None:
        assert str(exc.value).endswith(f": {fragment}")


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
