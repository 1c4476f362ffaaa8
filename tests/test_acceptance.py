"""Acceptance suite.

One test per acceptance criterion (run with -v for one line per criterion).
Each assertion is written once: where a criterion and a module test assert
the same thing, both call one `check_*` function of the module file, at the
wider of their two ranges.
Three sub-criteria are false as stated: two class identities and one value,
chi(O) of the (7,8) section.  They are implemented faithfully, expected to
fail, and marked strict xfail with the corrected statement in the reason, so
a regression in either direction is loud.  Everything else must pass at
exact (integer) tolerance within the stated time budgets.
"""

import time

import pytest

from conftest import valid_pairs
from pgpairs.chern import chi_y_ci, euler_characteristic_ci, middle_hodge
from pgpairs.dsl import eval_dsl
from pgpairs.errors import ParseError
from pgpairs.pairs import MAX_NK, check_l_equivalence, derive_poincare_y, make_pair, poincare_x
from pgpairs.ring import LPoly, TPoly, projective_class
from pgpairs.schubert import grassmannian_class, hyperplane_section_class, lefschetz_shift
from test_chern import (
    check_chi_y_known_sections,
    check_fano_chi_zero,
    check_middle_hodge_known_values,
    check_tangent_top_chern,
)
from test_dsl import check_decomposable_identity, check_grassmannian_product_identity, check_non_exact_division_raises
from test_pairs import (
    check_calabi_yau_threefold_report,
    check_cayley_trick_fano_nineteenfold,
    check_dual_shape_sweep,
    check_even_n_duals,
    check_fixed_point_duals,
    check_known_duals,
    check_link_on_verified_range,
    check_pfaffian_cubic_fourfold_report,
)
from test_schubert import (
    check_betti_middle_difference,
    check_decomposable_identity_for_odd_n,
    check_gr_class,
    check_hyperplane_class,
)


def test_criterion_01_class_product_formulas():
    t0 = time.perf_counter()
    # [Gr(2,n)] by the product formula, and [H(2,n)] by weak Lefschetz
    check_gr_class(4, 14)
    check_hyperplane_class(4, 14)
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


def _tate_defect(n, k):
    """D(n,k) = [P^(k-1)][H(2,n)] - [P^(k-2)][Gr(2,n)] in Z[L], [P^(-1)] = 0."""
    return projective_class(k - 1) * hyperplane_section_class(n) - projective_class(k - 2) * grassmannian_class(n)


def test_criterion_02_l_equivalence_identity():
    # the defect vanishes on exactly five pairs of the CLI domain; at n = k
    # odd it is the L-equivalence identity, which holds past the domain too
    zero = [(p.n, p.k) for p in valid_pairs(4, MAX_NK, MAX_NK) if _tate_defect(p.n, p.k).is_zero()]
    assert zero == [(4, 3), (5, 5), (6, 5), (7, 7), (9, 9)]
    check_decomposable_identity_for_odd_n()
    for n in range(5, 14, 2):
        assert check_l_equivalence(n)
    check_fixed_point_duals()
    print("PASS criterion 2 (Tate defect, L-equivalence identity and fixed-point duals)")


def test_criterion_03_middle_betti_link():
    check_betti_middle_difference()
    check_link_on_verified_range()
    print("PASS criterion 3 (Betti difference identity and middle-link on the CLI domain)")


def test_criterion_04_hypersurface_cross_validation():
    t0 = time.perf_counter()
    # every even-n dual of the 47-row grid against the hypersurface oracle,
    # and the pinned cubic threefold, cubic fourfold and quartic K3 duals
    p_y = check_even_n_duals()
    check_known_duals()
    # cubic threefold
    assert euler_characteristic_ci(6, 5) == -6
    # cubic fourfold
    assert p_y[6, 6].evaluate(-1) == 27
    # quartic K3 behind the eightfold
    assert poincare_x(8, 4).coefficient(8) == 24
    assert euler_characteristic_ci(8, 4) == 36
    # quintic threefold behind the elevenfold
    assert p_y[10, 5].coefficient(3) == 204
    assert p_y[10, 5].evaluate(-1) == -200
    assert time.perf_counter() - t0 < 30.0
    print(f"PASS criterion 4 ({len(p_y)} duals match the projective-space oracle)")


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
    assert p_x == p_y == TPoly.from_coeffs([1, 0, 1, 102, 1, 0, 1])
    assert chi == hodge.euler_char == -98
    assert hodge.middle_betti == 102
    assert hodge.middle_hodge == (1, 50, 50, 1)
    assert check_calabi_yau_threefold_report()["poincare_x"] == p_x.coeffs_dense()
    print("PASS criterion 5 (Calabi-Yau threefold pair, both engines agree)")


def test_criterion_06_characteristic_class_sanity():
    # chi_y(-1) = Euler on every section of n 4..24 under both engines is
    # tests/test_chern.py::test_chi_y_at_minus_one_matches_euler
    check_tangent_top_chern()
    check_fano_chi_zero()
    check_chi_y_known_sections()
    check_middle_hodge_known_values()
    print("PASS criterion 6 (Chern integrals, chi(O) of the Fano sections n 4..24, special values)")


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
    pairs = check_dual_shape_sweep()
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
    for pair in valid_pairs(4, 12):
        p_y = derive_poincare_y(pair, poincare_x(pair.n, pair.k))
        assert p_y.constant_term == 1, (
            f"({pair.n},{pair.k}) has dim Y = {pair.dim_y} and "
            f"constant term {p_y.constant_term}"
        )


def test_criterion_08_projectivized_bundle_divisor():
    check_cayley_trick_fano_nineteenfold()
    print("PASS criterion 8 (divisor in the projectivized bundle over Gr(2,10))")


def test_criterion_09_discrepancy_detection():
    check_pfaffian_cubic_fourfold_report()
    print("PASS criterion 9 (degree-4 bookkeeping gap flagged, nothing repaired)")


def test_criterion_10_expression_language():
    check_grassmannian_product_identity()
    check_decomposable_identity()
    check_non_exact_division_raises()
    with pytest.raises(ParseError) as exc:
        eval_dsl("Gr(2,\n  !5)")
    assert exc.value.line == 2
    assert exc.value.column == 3
    print("PASS criterion 10 (expression language examples and error positions)")
