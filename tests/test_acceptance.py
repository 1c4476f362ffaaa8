"""Acceptance suite.

One test per acceptance criterion (run with -v for one line per criterion).
Two sub-criteria assert class identities that are mathematically false; they
are implemented faithfully, expected to fail, and marked strict xfail with the
corrected statement in the reason, so a regression in either direction is
loud.  Everything else must pass at exact (integer) tolerance within the
stated time budgets.
"""

import time

import pytest

from pgpairs.chern import chi_y_ci, euler_characteristic_ci, middle_hodge, tangent_chern
from pgpairs.dsl import eval_dsl
from pgpairs.errors import EvalError, NegativeDimension, ParseError
from pgpairs.pairs import (
    build_pair_report,
    cayley_hypersurface_class,
    check_l_equivalence,
    derive_poincare_y,
    hypersurface_poincare_oracle,
    make_pair,
    poincare_x,
)
from pgpairs.ring import LPoly, projective_class
from pgpairs.schubert import (
    betti,
    grassmannian_class,
    hyperplane_section_class,
    lefschetz_shift,
)


def _valid_pairs(n_lo, n_hi):
    out = []
    for n in range(n_lo, n_hi + 1):
        for k in range(1, 11):
            try:
                out.append(make_pair(n, k))
            except Exception:
                pass
    return out


def test_criterion_01_class_product_formulas():
    t0 = time.perf_counter()
    for n in range(4, 15):
        assert grassmannian_class(n, "cells") == grassmannian_class(n, "product_formula"), n
        # independent route to the hyperplane-section class: ambient Betti
        # numbers below the middle, zero middle, duality above
        d = 2 * (n - 2) - 1
        expected = {}
        for j in range(0, 2 * d + 1, 2):
            expected[j // 2] = betti(n, j) if j < d else betti(n, 2 * d - j)
        assert hyperplane_section_class(n) == LPoly(expected), n
    # the subtraction form of the hyperplane class holds for n = 4 and 5
    for n in (4, 5):
        s = lefschetz_shift(n)
        assert hyperplane_section_class(n) == grassmannian_class(n) - LPoly(
            {2 * n - 4: 1, s: 1}
        )
    assert time.perf_counter() - t0 < 1.0
    print("PASS criterion 1 (product formulas; subtraction form for n = 4, 5)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "this identity holds only for n = 4, 5: the true difference "
        "[Gr(2,n)] - [H(2,n)] is the full even tail L^s + L^(s+2) + ... + L^(2n-4), "
        "which collapses to two terms only there.  Equivalently, the singular fiber "
        "class is [H(2,n)] + L^s rather than [Gr(2,n)] - L^(2n-4): the sections "
        "parametrized by the smooth dual locus have corank 2 (n even) or 3 (n odd) "
        "and are not Schubert divisors once n >= 6.  The corrected identity passes "
        "in tests/test_schubert.py::test_difference_of_classes_is_even_tail; this "
        "test pins the failure of the two-term form."
    ),
)
def test_criterion_01_hyperplane_subtraction_form_all_n():
    for n in range(4, 15):
        s = lefschetz_shift(n)
        assert hyperplane_section_class(n) == grassmannian_class(n) - LPoly(
            {2 * n - 4: 1, s: 1}
        ), f"subtraction form fails at n = {n}"


def test_criterion_02_l_equivalence_identity():
    for n in range(5, 14, 2):
        lhs = projective_class(n - 1) * hyperplane_section_class(n)
        rhs = projective_class(n - 2) * grassmannian_class(n)
        assert lhs == rhs, n
        assert check_l_equivalence(n)
    for n in (5, 7, 9):
        pair = make_pair(n, n)
        p_x = poincare_x(n, n)
        assert derive_poincare_y(pair, p_x) == p_x, n
    print("PASS criterion 2 (L-equivalence identity and fixed-point duals)")


def test_criterion_03_middle_betti_link():
    import math

    for n in range(6, 15):
        for kp in (1, 2, 3):
            want = math.ceil(kp / 2) if n % 2 == 0 else kp // 2
            assert betti(n, 2 * n - 4) - betti(n, 2 * n - 4 - 2 * kp) == want, (n, kp)
    checked = []
    for n in range(6, 13):
        ks = (2, 4) if n % 2 == 0 else (2, 4, 6)
        for k in ks:
            if n % 2 == 1 and k == 2:
                # the dual would be empty (dimension -2): no such pair exists
                with pytest.raises(NegativeDimension):
                    make_pair(n, k)
                continue
            link = next(c for c in build_pair_report(n, k)["checks"] if c["name"] == "middle_betti_link")
            assert link["status"] == "pass", (n, k)
            checked.append((n, k))
    assert len(checked) == 14
    print("PASS criterion 3 (Betti difference identity and middle-link on 14 pairs)")


def test_criterion_04_hypersurface_cross_validation():
    t0 = time.perf_counter()
    # cubic threefold
    pair = make_pair(6, 5)
    p_x = poincare_x(6, 5)
    assert euler_characteristic_ci(6, 5) == -6
    p_y = derive_poincare_y(pair, p_x)
    assert p_y == hypersurface_poincare_oracle(3, 4)
    assert p_y.coefficient(3) == 10
    # cubic fourfold
    p_y = derive_poincare_y(make_pair(6, 6), poincare_x(6, 6))
    assert p_y == hypersurface_poincare_oracle(3, 5)
    assert p_y.coefficient(4) == 23
    assert p_y.evaluate(-1) == 27
    # quartic K3 behind the eightfold
    assert poincare_x(8, 4).coefficient(8) == 24
    assert euler_characteristic_ci(8, 4) == 36
    p_y = derive_poincare_y(make_pair(8, 4), poincare_x(8, 4))
    assert p_y == hypersurface_poincare_oracle(4, 3)
    assert p_y.coefficient(2) == 22
    # quintic threefold behind the elevenfold
    p_y = derive_poincare_y(make_pair(10, 5), poincare_x(10, 5))
    assert p_y == hypersurface_poincare_oracle(5, 4)
    assert p_y.coefficient(3) == 204
    assert p_y.evaluate(-1) == -200
    assert time.perf_counter() - t0 < 30.0
    print("PASS criterion 4 (four duals match the projective-space oracle)")


def test_criterion_05_calabi_yau_threefold_pair_dual_engines():
    results = {}
    for engine in ("pieri", "lr"):
        chi = euler_characteristic_ci(7, 7, engine)
        hodge = middle_hodge(7, 7, engine)
        p_x = poincare_x(7, 7, engine)
        p_y = derive_poincare_y(make_pair(7, 7), p_x)
        results[engine] = (chi, hodge, p_x, p_y)
    assert results["pieri"] == results["lr"]
    chi, hodge, p_x, p_y = results["pieri"]
    assert p_x == p_y
    assert chi == -98
    assert p_x.coefficient(3) == 102
    assert hodge.middle_hodge == (1, 50, 50, 1)
    assert hodge.chi_y[0] == 0
    assert build_pair_report(7, 7)["motivic_equivalence"]["status"] == "applies"
    print("PASS criterion 5 (Calabi-Yau threefold pair, both engines agree)")


def test_criterion_06_characteristic_class_sanity():
    for n in range(4, 11):
        assert tangent_chern(n).component(2 * (n - 2)).integrate() == n * (n - 1) // 2, n
    for n in range(4, 11):
        for k in range(0, 2 * (n - 2) + 1):
            chi_y = chi_y_ci(n, k)
            assert sum(c * (-1) ** p for p, c in enumerate(chi_y)) == euler_characteristic_ci(
                n, k
            ), (n, k)
            if k < n:
                assert chi_y[0] == 1, (n, k)
    assert chi_y_ci(7, 7)[0] == 0
    assert chi_y_ci(9, 9)[0] == 0
    assert chi_y_ci(6, 6)[0] == 2
    assert middle_hodge(6, 6).middle_hodge[0] >= 1
    assert middle_hodge(7, 8).middle_hodge[0] >= 1
    print("PASS criterion 6 (Chern integrals, chi_y grid, special chi(O) values)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "chi(O) of the (7,8) section is 14, not 2: the section is a degree-42 "
        "surface whose canonical class is the hyperplane class, so "
        "p_g = h^0(O(1)) = 13 and chi(O) = 1 + 13 = 14.  Noether's formula agrees "
        "(12 * 14 = K^2 + chi_top = 42 + 126), as does a Koszul resolution on "
        "Gr(2,7) (1 - 8 + 21 = 14).  Only h^{2,0} > 0 matters for the "
        "Noether-Lefschetz catalogue, and that holds (13 >= 1); the computed value "
        "is pinned in tests/test_chern.py::test_chi_zero_of_general_type_surface_section."
    ),
)
def test_criterion_06_chi_zero_value_for_pair_7_8():
    assert chi_y_ci(7, 8)[0] == 2


def test_criterion_07_dual_shape_sweep():
    t0 = time.perf_counter()
    pairs = _valid_pairs(4, 12)
    assert pairs
    for pair in pairs:
        p_y = derive_poincare_y(pair, poincare_x(pair.n, pair.k))
        assert p_y.degree == 2 * pair.dim_y, (pair.n, pair.k)
        assert p_y.is_palindromic(pair.dim_y), (pair.n, pair.k)
        assert min(p_y.coeffs_dense()) >= 0
        if pair.dim_y >= 1:
            assert p_y.constant_term == 1, (pair.n, pair.k)
            assert p_y.coefficient(2 * pair.dim_y) == 1, (pair.n, pair.k)
    assert time.perf_counter() - t0 < 60.0
    print(f"PASS criterion 7 (dual shape sweep over {len(pairs)} pairs)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the derived dual polynomial cannot have constant term 1 when dim Y = 0: "
        "the dual is then a finite set of points and the constant term counts "
        "them, e.g. (4,2) gives 2, (6,2) gives 3, (5,4) gives 5 (the degree of the "
        "Pfaffian locus cut down to dimension zero).  The positive-dimensional "
        "statement, constant and top coefficients 1, holds on the whole grid and "
        "is asserted in test_criterion_07_dual_shape_sweep; this test pins the "
        "zero-dimensional failure."
    ),
)
def test_criterion_07_constant_term_one_including_point_duals():
    for pair in _valid_pairs(4, 12):
        p_y = derive_poincare_y(pair, poincare_x(pair.n, pair.k))
        assert p_y.constant_term == 1, (
            f"({pair.n},{pair.k}) has dim Y = {pair.dim_y} and "
            f"constant term {p_y.constant_term}"
        )


def test_criterion_08_projectivized_bundle_divisor():
    u_class = grassmannian_class(10)
    p_s = poincare_x(10, 5)
    p_z = cayley_hypersurface_class(make_pair(10, 5), p_s)
    expected = p_s.shift(8) + u_class.to_poincare() * projective_class(3).to_poincare()
    assert p_z == expected
    assert p_z.is_palindromic(19)
    assert p_z.constant_term == 1
    assert p_z.degree == 38
    print("PASS criterion 8 (divisor in the projectivized bundle over Gr(2,10))")


def test_criterion_09_discrepancy_detection():
    rep = build_pair_report(6, 6)
    assert rep["poincare_y"][4] == 23  # the derived value is not altered
    assert rep["poincare_x"][2] == 22  # nor is the surface input
    assert len(rep["findings"]) == 1
    assert "22" in rep["findings"][0] and "23" in rep["findings"][0]
    assert rep["all_checks_pass"]
    print("PASS criterion 9 (degree-4 bookkeeping gap flagged, nothing repaired)")


def test_criterion_10_expression_language():
    assert eval_dsl("Gr(2,5) == P(4) * SumEven(5)") is True
    assert eval_dsl("P(6)*H(2,7) == P(5)*Gr(2,7)") is True
    with pytest.raises(EvalError) as exc:
        eval_dsl("(1 + L) div (1 + L*L)")
    assert "non-exact" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        eval_dsl("Gr(2,\n  !5)")
    assert exc.value.line == 2
    assert exc.value.column == 3
    print("PASS criterion 10 (expression language examples and error positions)")
