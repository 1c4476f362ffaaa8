"""Property tests for the exact polynomial types LPoly and TPoly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgpairs.errors import NegativeCoefficient, NonExactDivision
from pgpairs.ring import LPoly, TPoly

# derandomized so that a run is repeatable; no example database is written
checked = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def polys(cls=LPoly, min_value=-50, max_value=50, max_degree=40):
    coeffs = st.dictionaries(
        st.integers(0, max_degree), st.integers(min_value, max_value), max_size=8
    )
    return coeffs.map(cls)


tpolys = polys(TPoly, min_value=0)


def check_ring_axioms(a, b, c):
    zero, one = LPoly(), LPoly.from_coeffs([1])
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a
    assert a + (zero - a) == zero
    assert a - b == a + (zero - b)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a
    assert a * (b + c) == a * b + a * c


@checked
@given(polys(), polys(), polys())
def test_lpoly_ring_axioms(a, b, c):
    check_ring_axioms(a, b, c)


def check_degree_of_product(a, b):
    assert (a * b).degree == (-1 if a.is_zero() or b.is_zero() else a.degree + b.degree)


@checked
@given(polys(), polys(), st.integers(-9, 9))
def test_lpoly_int_scaling_and_shift(a, b, m):
    # c * p is p * LPoly({0: c}), and L^-j * p is p.div_exact(L^j)
    assert a * LPoly({0: m}) == LPoly.from_coeffs([m * v for v in a.coeffs_dense()])
    assert a.shift(3) == a * LPoly.monomial(3)
    assert a.shift(3).div_exact(LPoly.monomial(3)) == a
    check_degree_of_product(a, b)


def check_div_exact(a, b):
    if b.is_zero():
        return
    assert (a * b).div_exact(b) == a
    try:
        q = a.div_exact(b)
    except NonExactDivision:
        return
    assert q * b == a


@checked
@given(polys(), polys())
def test_div_exact_round_trips_or_raises(a, b):
    check_div_exact(a, b)


@checked
@given(tpolys, tpolys, st.integers(0, 5))
def test_tpoly_closed_under_nonnegative_operations(a, b, j):
    for value in (a + b, a * b, a.shift(j)):
        assert type(value) is TPoly
        assert min(value.coeffs_dense()) >= 0
    lpoly = LPoly.from_coeffs
    assert lpoly(a.coeffs_dense()) * lpoly(b.coeffs_dense()) == lpoly((a * b).coeffs_dense())


@checked
@given(tpolys, tpolys)
def test_tpoly_negative_result_raises(a, b):
    diff = LPoly.from_coeffs(a.coeffs_dense()) - LPoly.from_coeffs(b.coeffs_dense())
    if min(diff.coeffs_dense()) < 0:
        with pytest.raises(NegativeCoefficient):
            a - b
    else:
        assert a - b == TPoly.from_coeffs(diff.coeffs_dense())


@checked
@given(polys(min_value=0), polys(min_value=0))
def test_to_poincare_is_multiplicative(a, b):
    assert (a * b).to_poincare() == a.to_poincare() * b.to_poincare()
    assert (a + b).to_poincare() == a.to_poincare() + b.to_poincare()


@checked
@given(polys(max_degree=16), st.integers(-2, 9))
def test_is_palindromic_matches_its_definition(a, d):
    if d < 0:
        expected = a.is_zero()
    else:
        mirrored = all(a.coefficient(j) == a.coefficient(2 * d - j) for j in range(d + 1))
        expected = a.degree <= 2 * d and mirrored
    assert a.is_palindromic(d) == expected
    # a palindrome built from a's low half is recognized (zero when d < 0)
    low = {j: v for j, v in enumerate(a.coeffs_dense()) if j <= d}
    assert LPoly({**low, **{2 * d - j: v for j, v in low.items()}}).is_palindromic(d)
