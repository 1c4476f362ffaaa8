"""Exact polynomial arithmetic: examples and algebraic properties."""

import random
import time
from fractions import Fraction

import pytest

from pgpairs.errors import InvalidParameter, NegativeCoefficient, NonExactDivision
from pgpairs.ring import MAX_DEGREE, LPoly, TPoly, projective_class


def L(coeffs):
    return LPoly.from_coeffs(coeffs)


def test_mul_binomial_square():
    one_plus = L([1, 1])
    assert one_plus * one_plus == L([1, 2, 1])


def test_mul_projective_times_even_sum_is_gr24():
    # the class of Gr(2,4) via its product structure
    assert projective_class(2) * L([1, 0, 1]) == L([1, 1, 2, 1, 1])


def test_mul_projective_times_even_sum_is_gr25():
    # oracle: enumerate the partitions (a, b) in the 2 x 3 box by size
    counts = {}
    for a in range(4):
        for b in range(a + 1):
            counts[a + b] = counts.get(a + b, 0) + 1
    assert projective_class(4) * L([1, 0, 1]) == LPoly(counts)


def test_div_exact_monomial_shift():
    assert L([0, 0, 0, 1, 1]).div_exact(LPoly.monomial(3)) == L([1, 1])


def test_div_exact_gr24_by_plane():
    assert L([1, 1, 2, 1, 1]).div_exact(projective_class(2)) == L([1, 0, 1])


def test_div_exact_remainder_raises():
    with pytest.raises(NonExactDivision):
        L([1, 1]).div_exact(L([1, 0, 1]))


def test_div_by_zero_raises():
    with pytest.raises(InvalidParameter):
        L([1, 1]).div_exact(LPoly.zero())


def test_projective_class_values():
    assert projective_class(0) == LPoly.one()
    assert projective_class(2) == L([1, 1, 1])
    assert projective_class(4) == L([1, 1, 1, 1, 1])
    assert projective_class(-1) == LPoly.zero()
    with pytest.raises(InvalidParameter):
        projective_class(-2)


def test_to_poincare_examples():
    assert L([1, 1]).to_poincare() == TPoly.from_coeffs([1, 0, 1])
    assert L([1, 1, 2, 1, 1]).to_poincare() == TPoly.from_coeffs([1, 0, 1, 0, 2, 0, 1, 0, 1])
    with pytest.raises(NegativeCoefficient):
        L([-1, 1]).to_poincare()


def test_is_palindromic_examples():
    assert TPoly.from_coeffs([1, 0, 1, 0, 2, 0, 1, 0, 1]).is_palindromic(4)
    assert not TPoly.from_coeffs([1, 0, 1]).is_palindromic(2)
    assert TPoly.from_coeffs([1]).is_palindromic(0)
    assert not TPoly.from_coeffs([1, 0, 1]).is_palindromic(0)  # support above 2d


def test_tpoly_rejects_negative():
    with pytest.raises(NegativeCoefficient):
        TPoly({0: -1})


def _random_poly(rng, max_deg=40, max_terms=8):
    return LPoly(
        {rng.randrange(max_deg + 1): rng.randrange(-50, 51) for _ in range(rng.randrange(max_terms))}
    )


def test_ring_axioms_on_random_supports():
    rng = random.Random(20240611)
    for _ in range(120):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_div_mul_round_trip():
    rng = random.Random(987)
    for _ in range(80):
        a = _random_poly(rng)
        b = _random_poly(rng)
        if b.is_zero():
            b = LPoly.one()
        assert (a * b).div_exact(b) == a


def test_to_poincare_is_multiplicative():
    rng = random.Random(5555)
    for _ in range(60):
        a = LPoly({rng.randrange(20): rng.randrange(0, 9) for _ in range(6)})
        b = LPoly({rng.randrange(20): rng.randrange(0, 9) for _ in range(6)})
        assert (a * b).to_poincare() == a.to_poincare() * b.to_poincare()


def test_evaluate_at_one_is_coefficient_sum():
    rng = random.Random(31337)
    for _ in range(50):
        a = _random_poly(rng)
        assert a.evaluate(1) == sum(a.coeffs().values())
    for n in range(0, 12):
        assert projective_class(n).evaluate(1) == n + 1


def test_degree_of_product():
    a = L([3, 0, 2])
    b = L([0, 5])
    assert (a * b).degree == a.degree + b.degree


def test_pretty_printing():
    assert str(L([1, 1, 2, 1, 1])) == "1 + L + 2*L^2 + L^3 + L^4"
    assert str(LPoly.zero()) == "0"
    assert str(L([0, -1])) == "-L"


@pytest.mark.parametrize(
    "coeffs,cls",
    [
        ({0: Fraction(1, 2), 1: Fraction(7, 2)}, LPoly),
        ({0: Fraction(4, 2)}, LPoly),
        ({1.9: 1}, LPoly),
        ({"1": 1}, LPoly),
        ({0: 2.9}, TPoly),
        ({0: 1, 1: 2.0}, LPoly),
    ],
    ids=["fraction_coeffs", "integral_fraction", "float_exponent", "str_exponent", "float_tpoly", "float_coeff"],
)
def test_non_integer_exponents_and_coefficients_rejected(coeffs, cls):
    with pytest.raises(InvalidParameter):
        cls(coeffs)


@pytest.mark.parametrize(
    "coeffs", [[1, 2], 5, (1, 2), 0, [], ""], ids=["list", "int", "tuple", "zero_int", "empty_list", "empty_str"]
)
def test_constructor_takes_only_a_dict_or_none(coeffs):
    # a falsy argument such as 0 or [] is refused too, not read as zero
    for cls in (LPoly, TPoly):
        with pytest.raises(InvalidParameter, match=f"^{cls.__name__} takes a dict or None, not {type(coeffs).__name__}$"):
            cls(coeffs)
        assert cls(None) == cls({}) == cls.zero()


@pytest.mark.parametrize("other", [Fraction(1, 2), 0.5, "L", None], ids=["fraction", "float", "str", "none"])
def test_arithmetic_with_non_polynomial_is_type_error(other):
    p = LPoly.one()
    for op in (lambda: p * other, lambda: other * p, lambda: p + other, lambda: p - other):
        with pytest.raises(TypeError):
            op()


def test_tpoly_negative_scaling_type_and_repr():
    p = TPoly.from_coeffs([1, 0, 2])
    with pytest.raises(NegativeCoefficient):
        p * -1
    assert type(3 * p) is TPoly
    assert TPoly({0: 1}) != LPoly({0: 1})
    assert repr(p) == "TPoly(1 + 2*t^2)"


def test_exponents_past_the_bound_are_refused_at_once():
    # a dense value holds one slot per degree: {10**9: 1} would be 8 GB
    past = [
        lambda: LPoly({10**9: 1}),
        lambda: TPoly({MAX_DEGREE + 1: 0}),
        lambda: LPoly.monomial(10**12, 3),
        lambda: TPoly({0: 1, MAX_DEGREE + 1: 1}),
    ]
    for build in past:
        start = time.perf_counter()
        with pytest.raises(InvalidParameter, match=f"^exponent \\d+ exceeds MAX_DEGREE = {MAX_DEGREE}$"):
            build()
        assert time.perf_counter() - start < 0.1
    assert LPoly.monomial(MAX_DEGREE, 2).degree == MAX_DEGREE
