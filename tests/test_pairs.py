"""Pair bookkeeping: the cut-and-paste relation, dual polynomials, catalogues."""

import pytest

import pgpairs.chern as chern_module
import pgpairs.pairs as pairs_module
from conftest import valid_pairs
from pgpairs.chern import HodgeSummary, middle_hodge
from pgpairs.errors import (
    InconsistentEuler,
    InvalidParameter,
    NegativeDimension,
    NonExactDivision,
    OutOfSmoothRange,
)
from pgpairs.pairs import (
    MAX_NK,
    PGPair,
    build_pair_report,
    cayley_hypersurface_class,
    cayley_hypersurface_class_dual,
    check_l_equivalence,
    chi_o_y,
    derive_poincare_y,
    fiber_classes,
    hypersurface_poincare_oracle,
    make_pair,
    nl_status,
    poincare_x,
    transcendental_proxy,
)
from pgpairs.ring import LPoly, TPoly, projective_class
from pgpairs.schubert import ENGINES, betti, grassmannian_class, hyperplane_section_class, lefschetz_shift
from test_mutants import MUTANTS


# -- parameters ---------------------------------------------------------------


def test_make_pair_examples():
    p = make_pair(7, 7)
    assert (p.dim_x, p.dim_y, p.s, p.m) == (3, 3, 6, 0)
    p = make_pair(8, 4)
    assert (p.dim_x, p.dim_y, p.s, p.m) == (8, 2, 6, 3)
    with pytest.raises(OutOfSmoothRange):
        make_pair(6, 7)
    with pytest.raises(OutOfSmoothRange):
        make_pair(7, 11)
    with pytest.raises(NegativeDimension):
        make_pair(4, 1)  # dual would have dimension -1
    with pytest.raises(NegativeDimension):
        make_pair(7, 2)  # dual would have dimension -2
    with pytest.raises(NegativeDimension):
        make_pair(4, 5)  # section itself would have dimension -1
    with pytest.raises(InvalidParameter):
        make_pair(3, 1)
    with pytest.raises(InvalidParameter):
        make_pair(5, 0)


def test_pair_and_hodge_records_are_immutable():
    records = (make_pair(7, 7), middle_hodge(7, 7))
    for record, field in zip(records, ("k", "euler_char")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0


def test_pair_and_hodge_records_compare_and_hash_by_value():
    p = make_pair(7, 7)
    same = PGPair(n=7, k=7, dim_x=3, dim_y=3, s=6, m=0, smooth_range=True)
    assert p == same and hash(p) == hash(same) and len({p, same}) == 1
    assert p != make_pair(8, 4) and p != PGPair(n=7, k=7, dim_x=3, dim_y=3, s=6, m=0, smooth_range=False)
    h = middle_hodge(7, 7)
    assert h == middle_hodge(7, 7, "lr") and hash(h) == hash(middle_hodge(7, 7, "lr"))
    assert h != middle_hodge(8, 4)
    fields = dict(dim=3, euler_char=-98, chi_y=(0, 49, -49, 0), middle_betti=102, middle_hodge=(1, 50, 50, 1))
    assert HodgeSummary(**fields) == h and hash(HodgeSummary(**fields)) == hash(h)


@pytest.mark.parametrize("engine", ENGINES)
def test_report_hodge_record_is_the_library_summary(engine):
    # on every pair of the 47-row grid, the report's lists give the
    # HodgeSummary of middle_hodge, hashable
    grid = valid_pairs(4, 12)
    assert len(grid) == 47
    for p in grid:
        summary = HodgeSummary(**build_pair_report(p.n, p.k, engine)["hodge"])
        assert summary == middle_hodge(p.n, p.k, engine) and hash(summary) == hash(middle_hodge(p.n, p.k, engine)), (p.n, p.k)


def test_pair_and_hodge_records_repr():
    assert repr(make_pair(7, 7)) == "PGPair(n=7, k=7, dim_x=3, dim_y=3, s=6, m=0, smooth_range=True)"
    assert repr(middle_hodge(7, 7)) == (
        "HodgeSummary(dim=3, euler_char=-98, chi_y=(0, 49, -49, 0), middle_betti=102, middle_hodge=(1, 50, 50, 1))"
    )


def test_shift_invariant():
    for p in valid_pairs(4, 12):
        assert p.m == p.s - p.k + 1
        assert p.smooth_range


# -- fiber classes ------------------------------------------------------------


def test_fiber_classes_small():
    f1, f2 = fiber_classes(4)
    assert f1 == LPoly.from_coeffs([1, 1, 1, 1])
    assert f2 == LPoly.from_coeffs([1, 1, 2, 1])
    assert f2 == grassmannian_class(4) - LPoly.monomial(4)  # collapses only for small n


def test_fiber_classes_shift():
    for n in range(4, 15):
        f1, f2 = fiber_classes(n)
        assert f1 == hyperplane_section_class(n)
        assert f2 - f1 == LPoly.monomial(n - 2 if n % 2 == 0 else n - 1)


# -- section polynomials --------------------------------------------------------


def test_poincare_x_quadric_threefold():
    assert poincare_x(4, 1) == TPoly.from_coeffs([1, 0, 1, 0, 1, 0, 1])


def test_poincare_x_known_middles():
    # (6,5) is check_known_duals, and (7,7) and b_8 of (8,4) acceptance
    # criteria 5 and 4
    assert poincare_x(5, 4) == TPoly.from_coeffs([1, 0, 5, 0, 1])  # quintic del Pezzo
    assert [poincare_x(8, 4).coefficient(2 * j) for j in range(4)] == [1, 1, 2, 2]


def test_poincare_x_smooth_range_enforced():
    with pytest.raises(OutOfSmoothRange):
        poincare_x(6, 7)
    with pytest.raises(NegativeDimension):
        poincare_x(4, 6)
    with pytest.raises(InvalidParameter, match="^negative number of hyperplanes: -1$"):
        poincare_x(7, -1)


def test_variable_betti_examples():
    assert build_pair_report(6, 5)["variable_betti"] == 10
    assert build_pair_report(8, 4)["variable_betti"] == 21
    # (4,1) has an empty dual, so no report: its v is b_3(X) - b_3(Gr(2,4))
    assert poincare_x(4, 1).coefficient(3) - betti(4, 3) == 0


# -- the relation ----------------------------------------------------------------


def check_fixed_point_duals():
    # at n = k odd the derived dual polynomial is the section's own
    for n in (5, 7, 9):
        p_x = poincare_x(n, n)
        assert derive_poincare_y(make_pair(n, n), p_x) == p_x, n


def test_derive_equal_parameters_returns_section_polynomial():
    check_fixed_point_duals()


def check_known_duals():
    # the cubic threefold has its section's polynomial; the cubic fourfold
    # and the quartic K3 surface
    p_y = {(n, k): derive_poincare_y(make_pair(n, k), poincare_x(n, k)) for n, k in ((6, 5), (6, 6), (8, 4))}
    assert p_y[6, 5] == poincare_x(6, 5) == TPoly.from_coeffs([1, 0, 1, 10, 1, 0, 1])
    assert p_y[6, 6] == TPoly.from_coeffs([1, 0, 1, 0, 23, 0, 1, 0, 1])
    assert p_y[8, 4] == TPoly.from_coeffs([1, 0, 22, 0, 1])


def test_derive_known_duals():
    check_known_duals()


def test_derive_zero_dimensional_duals_count_points():
    # every zero-dimensional dual of the CLI domain: the constant is the
    # number of points, chi(O_Y) from Y's free resolution on P^(k-1)
    points = {(n, 2): n // 2 for n in range(4, MAX_NK + 1, 2)}
    points.update(zip([(n, 4) for n in range(5, MAX_NK, 2)], [5, 14, 30, 55, 91, 140, 204, 285, 385, 506]))
    duals = [p for p in valid_pairs(4, MAX_NK, MAX_NK) if p.dim_y == 0]
    assert sorted((p.n, p.k) for p in duals) == sorted(points)
    for p in duals:
        assert chi_o_y(p.n, p.k) == points[p.n, p.k], (p.n, p.k)
        assert derive_poincare_y(p, poincare_x(p.n, p.k)) == TPoly({0: points[p.n, p.k]}), (p.n, p.k)


@pytest.mark.parametrize("n, k", [(4, 0), (3, 2), (2, 5), (6, -1)])
def test_chi_o_y_rejects_what_is_not_a_pair(n, k):
    # k = 0 would read chi on P^(-1), and Gr(2,n) for n < 4 has no pair
    with pytest.raises(InvalidParameter, match=rf"^chi\(O_Y\) needs n >= 4 and k >= 1, got \({n},{k}\)$"):
        chi_o_y(n, k)


def test_derive_rejects_non_palindromic_input():
    pair = make_pair(7, 7)
    with pytest.raises(InvalidParameter):
        derive_poincare_y(pair, TPoly.from_coeffs([1]))


def test_derive_rejects_disconnected_surgery():
    pair = make_pair(7, 7)
    doubled = poincare_x(7, 7) * TPoly({0: 2})
    with pytest.raises(InconsistentEuler):
        derive_poincare_y(pair, doubled)


def test_derive_wrong_twist_is_non_exact():
    # a deliberately wrong twist must be caught by the exactness assertion: the
    # true m of (6,3) is 2, so P(X) - T = t^4 P(Y) has a part of degree 5 below t^(2m) = t^6
    bad = PGPair(n=6, k=3, dim_x=5, dim_y=1, s=5, m=3, smooth_range=True)
    with pytest.raises(NonExactDivision, match="^remainder of degree 5 left by division$"):
        derive_poincare_y(bad, poincare_x(6, 3))


def test_cayley_hypersurface_two_fibrations_agree():
    for pair in valid_pairs(4, 10):
        p_x = poincare_x(pair.n, pair.k)
        p_y = derive_poincare_y(pair, p_x)
        easy = cayley_hypersurface_class(pair, p_x)
        hard = cayley_hypersurface_class_dual(pair, p_y)
        assert easy == hard, (pair.n, pair.k)
        assert easy.is_palindromic(2 * (pair.n - 2) + pair.k - 2)


def test_cayley_hypersurface_structure():
    pair = make_pair(7, 7)
    p_x = poincare_x(7, 7)
    expected = grassmannian_class(7).to_poincare() * projective_class(5).to_poincare() + p_x.shift(12)
    assert cayley_hypersurface_class(pair, p_x) == expected


def test_cayley_hypersurface_collapses_for_one_cut():
    # with a single hyperplane the ambient term has empty fiber class
    pair = PGPair(n=4, k=1, dim_x=3, dim_y=-1, s=2, m=2, smooth_range=True)
    p_x = poincare_x(4, 1)
    assert cayley_hypersurface_class(pair, p_x) == p_x


def check_dual_shape_sweep():
    # every dual of the 47-row grid has degree 2 dim Y, is palindromic with
    # nonnegative coefficients, has constant and top coefficient 1 when
    # positive-dimensional and counts at least two points otherwise;
    # returns the pairs swept
    pairs = valid_pairs(4, 12)
    assert pairs
    for pair in pairs:
        p_y = derive_poincare_y(pair, poincare_x(pair.n, pair.k))
        assert p_y.degree == 2 * pair.dim_y, (pair.n, pair.k)
        assert p_y.is_palindromic(pair.dim_y), (pair.n, pair.k)
        assert min(p_y.coeffs_dense()) >= 0
        if pair.dim_y >= 1:
            assert p_y.constant_term == 1, (pair.n, pair.k)
            assert p_y.coefficient(2 * pair.dim_y) == 1, (pair.n, pair.k)
        else:
            assert p_y.constant_term >= 2, (pair.n, pair.k)
    return pairs


def test_dual_shape_sweep():
    check_dual_shape_sweep()


# -- the Tate remainder ---------------------------------------------------------------


def _tate(n, k):
    return pairs_module._tate_remainder(make_pair(n, k)).coeffs_dense()


def test_tate_remainder_values():
    # coefficient lists in t; dim Y = 1 at (6,3) and (7,5), and (6,6) and
    # (7,8) have the same remainder with m = -1
    assert _tate(6, 3) == _tate(7, 5) == [1, 0] * 5 + [1]
    assert _tate(7, 4) == [1, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 1]
    assert _tate(6, 6) == _tate(7, 8) == [-1, 0, 0, 0, -1, 0, 0, 0, -1]
    assert _tate(7, 7) == [0]


def test_tate_remainder_has_one_sign_on_the_cli_domain():
    # T >= 0 on the pairs with m > 0, T <= 0 on those with m < 0 and T = 0 on
    # those with m = 0
    census = {}
    for pair in valid_pairs(4, MAX_NK):
        tate = _tate(pair.n, pair.k)
        sign = "zero" if tate == [0] else "nonneg" if min(tate) >= 0 else "nonpos"
        census.setdefault(sign, []).append(pair.m)
    assert {sign: len(ms) for sign, ms in census.items()} == {"nonneg": 107, "nonpos": 7, "zero": 5}
    assert min(census["nonneg"]) > 0 and max(census["nonpos"]) < 0 and set(census["zero"]) == {0}


def test_findings_come_from_the_middle_classes_of_the_tate_remainder():
    # three of the 7 pairs with m < 0 have b_mid(Y) > b_mid(X); no pair with n 25..48 has m < 0
    findings = {(p.n, p.k): build_pair_report(p.n, p.k)["findings"] for p in valid_pairs(4, MAX_NK) if p.m < 0}
    tail = (
        "Tate classes accounts for {} classes in degree {} but the derived Poincare polynomial has {}; "
        "1 middle Tate class is unaccounted for"
    )
    assert findings.pop((7, 8)) == ["dual of dimension 4: X moved by L^1 plus 2 " + tail.format(124, 4, 125)]
    assert findings.pop((7, 10)) == ["dual of dimension 6: X moved by L^3 plus 8 " + tail.format(42, 6, 43)]
    assert len(findings.pop((6, 6))) == 1  # criterion 9
    assert findings == dict.fromkeys([(4, 4), (5, 6), (7, 9), (9, 10)], [])
    assert [p for p in valid_pairs(MAX_NK + 1, 2 * MAX_NK) if p.m < 0] == []


# -- catalogues and statuses -------------------------------------------------------


def _link_status(n, k):
    return next(c["status"] for c in build_pair_report(n, k)["checks"] if c["name"] == "middle_betti_link")


def _link_established(pair):
    # the pairs where the link is established: n even with k in {2,4}, n odd
    # with k in {2,4,6}; n odd with k = 2 has no pair, as its dual would have
    # dimension -2
    return pair.k in ((2, 4) if pair.n % 2 == 0 else (2, 4, 6))


def _link_covered(pair):
    return pairs_module._link_covered(pair, pairs_module._tate_remainder(pair))


def check_link_on_verified_range():
    # the link passes on exactly the pairs where it is established, and is
    # skipped on every other report of the CLI domain
    pairs = valid_pairs(4, MAX_NK)
    assert len(pairs) == 119
    for pair in pairs:
        covered = _link_established(pair)
        assert _link_covered(pair) == covered, (pair.n, pair.k)
        assert _link_status(pair.n, pair.k) == ("pass" if covered else "skip"), (pair.n, pair.k)
    for n in range(5, MAX_NK + 1, 2):
        with pytest.raises(NegativeDimension):
            make_pair(n, 2)


def test_variable_betti_link_on_verified_range():
    check_link_on_verified_range()


def test_tate_remainder_decides_the_link_past_the_cli_domain():
    # T makes the literal's decision on every pair with n 25..48 as well
    pairs = valid_pairs(MAX_NK + 1, 2 * MAX_NK)
    assert len(pairs) == 144
    assert [p for p in pairs if _link_covered(p) != _link_established(p)] == []


def test_variable_betti_link_examples():
    assert _link_status(8, 4) == "pass"
    assert _link_status(7, 6) == "pass"
    assert _link_status(7, 7) == "skip"
    assert _link_status(6, 5) == "skip"


def test_l_equivalence_check():
    # the identity for odd n 5..13 is acceptance criterion 2; far past it the
    # window sums of `_decomposables` still hold it, with no recursion on k
    with pytest.raises(InvalidParameter):
        check_l_equivalence(6)
    with pytest.raises(InvalidParameter):
        check_l_equivalence(3)
    assert check_l_equivalence(601) and check_l_equivalence(999)
    gr, h = pairs_module._decomposables(601, 601)
    assert gr == h


def test_nl_status_catalogue():
    assert nl_status(9, 5) == "satisfied"  # odd k
    assert nl_status(8, 4) == "satisfied"
    assert nl_status(6, 4) == "unknown"  # below the (2m,4) threshold
    assert nl_status(7, 6) == "satisfied"
    assert nl_status(5, 6) == "unknown"  # below the (2m+1,6) threshold
    assert nl_status(6, 6) == "satisfied"
    assert nl_status(7, 8) == "satisfied"
    assert nl_status(10, 6) == "unknown"
    assert nl_status(8, 2) == "unknown"


def test_motivic_equivalence_status():
    # (7,7) "applies" is check_calabi_yau_threefold_report
    def status(n, k):
        return build_pair_report(n, k)["motivic_equivalence"]["status"]

    assert status(10, 5) == "applies"
    assert status(4, 3) == "hypothesis_fails"  # the one report of the domain with v = 0
    assert status(7, 8) == "not_covered"  # k > 6 and not (7,7)
    assert status(6, 4) == "not_covered"  # NL unknown


def test_transcendental_proxy_labels():
    assert "unconditional" in transcendental_proxy(5)
    assert "conditional" in transcendental_proxy(4)


# -- the projective-space oracle -----------------------------------------------------


def test_hypersurface_oracle_examples():
    # the cubic fourfold is check_even_n_duals and check_known_duals, and the
    # quintic threefold acceptance criterion 4
    assert hypersurface_poincare_oracle(1, 3) == TPoly.from_coeffs([1, 0, 1, 0, 1])
    assert hypersurface_poincare_oracle(2, 4) == TPoly.from_coeffs([1, 0, 1, 0, 1, 0, 1])
    with pytest.raises(InvalidParameter):
        hypersurface_poincare_oracle(0, 4)
    with pytest.raises(InvalidParameter):
        hypersurface_poincare_oracle(3, 1)


def check_even_n_duals():
    # every positive-dimensional dual with even n on the 47-row grid is a
    # hypersurface of degree n/2 in P^(k-1); returns them by (n, k)
    p_y = {}
    for pair in valid_pairs(4, 12):
        if pair.n % 2 == 0 and pair.dim_y >= 1:
            p_y[pair.n, pair.k] = derive_poincare_y(pair, poincare_x(pair.n, pair.k))
            assert p_y[pair.n, pair.k] == hypersurface_poincare_oracle(pair.n // 2, pair.k - 1), (pair.n, pair.k)
    return p_y


def test_dual_matches_oracle_for_even_n():
    check_even_n_duals()


# -- the projectivized-bundle divisor --------------------------------------------------


def check_cayley_trick_fano_nineteenfold():
    # the divisor [Gr][P^3] + [X] L^4 in the projectivized rank-5 bundle over
    # Gr(2,10) whose section cuts out the (10,5) section X
    u_class = grassmannian_class(10)
    p_s = poincare_x(10, 5)
    p_z = cayley_hypersurface_class(make_pair(10, 5), p_s)
    assert p_z == p_s.shift(8) + u_class.to_poincare() * projective_class(3).to_poincare()
    assert p_z.degree == 38
    assert p_z.is_palindromic(19)
    assert p_z.constant_term == 1


def test_cayley_trick_fano_nineteenfold():
    check_cayley_trick_fano_nineteenfold()


def test_cayley_trick_rejects_impossible_section_locus():
    # two points are not palindromic about dim X = 11
    with pytest.raises(InvalidParameter, match="not palindromic about dim X"):
        cayley_hypersurface_class(make_pair(10, 5), TPoly({0: 2}))


# -- reports ------------------------------------------------------------------------------


def check_calabi_yau_threefold_report():
    # returns the (7,7) report
    rep = build_pair_report(7, 7)
    assert rep["poincare_x"] == rep["poincare_y"]
    assert rep["euler"] == -98
    assert rep["hodge"]["middle_hodge"] == [1, 50, 50, 1]
    assert rep["motivic_equivalence"]["status"] == "applies"
    assert rep["all_checks_pass"]
    assert rep["findings"] == []
    return rep


def test_report_calabi_yau_threefold_pair():
    check_calabi_yau_threefold_report()


def check_pfaffian_cubic_fourfold_report():
    # the degree-4 bookkeeping gap of (6,6) is flagged, and nothing repaired
    rep = build_pair_report(6, 6)
    assert rep["poincare_y"][4] == 23  # the derived value is not altered
    assert rep["poincare_x"][2] == 22  # nor is the surface input
    assert len(rep["findings"]) == 1
    assert "22" in rep["findings"][0] and "23" in rep["findings"][0]
    assert "unaccounted" in rep["findings"][0]
    assert rep["all_checks_pass"]


def test_report_pfaffian_cubic_fourfold_finding():
    check_pfaffian_cubic_fourfold_report()


def test_report_eightfold():
    rep = build_pair_report(8, 4)
    assert rep["poincare_x"][8] == 24
    assert rep["poincare_y"] == [1, 0, 22, 0, 1]
    checks = {c["name"]: c["status"] for c in rep["checks"]}
    assert checks["middle_betti_link"] == "pass"
    assert checks["hypersurface_oracle"] == "pass"


def check_reports_pass(n_min, n_max):
    # every pair with n in n_min..n_max that make_pair accepts
    for pair in valid_pairs(n_min, n_max):
        assert build_pair_report(pair.n, pair.k)["all_checks_pass"], (pair.n, pair.k)


# the even-k pairs of the CLI domain whose middle Hodge row is zero off its
# centre: every middle class is a Hodge class
_PURE_PAIRS = [
    (4, 2), (4, 4), (5, 4), (5, 6), (6, 2), (6, 4), (7, 4), (7, 10),
    *((n, 2) for n in range(8, MAX_NK + 1, 2)),
    *((n, 4) for n in range(9, MAX_NK, 2)),
]


def test_pure_pairs_have_variable_classes_and_no_noether_lefschetz_claim():
    # v > 0 on each, so Noether-Lefschetz fails there, and a report raises if
    # the catalogue says `satisfied` (the MUTANTS rows nl_status_satisfied-*)
    pure = []
    for pair in valid_pairs(4, MAX_NK):
        row = middle_hodge(pair.n, pair.k).middle_hodge
        centre = pair.dim_x // 2
        if pair.k % 2 == 0 and not any(row[:centre] + row[centre + 1 :]):
            pure.append((pair.n, pair.k))
    assert sorted(pure) == sorted(_PURE_PAIRS)
    variable = {(n, k): build_pair_report(n, k)["variable_betti"] for n, k in _PURE_PAIRS}
    assert min(variable.values()) == 1 and max(variable.values()) == 505
    assert {nl_status(n, k) for n, k in _PURE_PAIRS} == {"unknown"}


@pytest.mark.parametrize("n_min, n_max", [(25, 36), pytest.param(37, 48, marks=pytest.mark.slow)])
def test_reports_pass_past_the_cli_domain(n_min, n_max):
    # 72 reports in each range, up to twice MAX_NK
    check_reports_pass(n_min, n_max)


def _count_calls(monkeypatch, sites):
    """Count the calls through each (module, name) binding by name; returns
    the counter {name: [arguments of each call]}."""
    calls = {name: [] for _, name in sites}
    for module, name in sites:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name].append(args)
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_decomposables_match_the_products_by_projective_classes():
    for n in range(4, 25):
        gr, h = grassmannian_class(n), hyperplane_section_class(n)
        for k in range(1, 13):
            expected = (gr * projective_class(k - 2)).to_poincare(), (h * projective_class(k - 1)).to_poincare()
            assert pairs_module._decomposables(n, k) == expected, (n, k)


def test_report_builds_each_polynomial_once(monkeypatch):
    names = (
        "poincare_x", "_solve_poincare_y", "cayley_hypersurface_class", "_section_defect", "_dual_defect", "chi_o_y",
        "_tate_remainder",
    )
    sites = [(pairs_module, name) for name in names]
    sites += [(pairs_module, "euler_characteristic_ci"), (chern_module, "euler_characteristic_ci")]
    for n, k in ((8, 4), (7, 7), (9, 4), (6, 6)):
        calls = _count_calls(monkeypatch, sites)
        build_pair_report(n, k)
        assert {name: len(args) for name, args in calls.items()} == dict.fromkeys(calls, 1), (n, k)
        monkeypatch.undo()


def test_no_memo_grows_with_the_polynomials_a_caller_passes():
    # derive_poincare_y keeps nothing keyed on p_x: 50 distinct palindromic
    # inputs, failing ones included, leave every memo of the module as the
    # first call left it
    pair = make_pair(8, 4)
    p_x = poincare_x(8, 4)
    memos = [f for f in vars(pairs_module).values() if hasattr(f, "cache_info")]
    sizes = []
    failed = 0
    for i in range(50):
        # an odd i adds classes at t^0 and t^(2 dim X), below the twist
        p = p_x + TPoly({pair.dim_x: i, 0: i % 2, 2 * pair.dim_x: i % 2})
        try:
            derive_poincare_y(pair, p)
        except NonExactDivision:
            failed += 1
        sizes.append([memo.cache_info().currsize for memo in memos])
    assert failed == 25
    assert all(size == sizes[0] for size in sizes)


def test_grid_builds_each_ambient_class_once_per_n(monkeypatch, cold_memos):
    from pgpairs.cli import run_grid

    sites = [(pairs_module, "grassmannian_class"), (pairs_module, "hyperplane_section_class")]
    calls = _count_calls(monkeypatch, sites)
    assert run_grid(4, 12, 1, 10)[1] == 0
    for name, args in calls.items():
        assert sorted(args) == [(n,) for n in range(4, 13)], name


def test_memos_serve_no_value_from_before_a_mutant(monkeypatch):
    # every per-n and per-pair memo of the report is filled first
    from pgpairs.cli import run_grid

    assert run_grid(7, 9, 1, 10)[1] == 0
    b2 = MUTANTS["hodge_side_b_2+1-n7k7"]
    b2.patch(monkeypatch)
    failing = {c["name"] for c in build_pair_report(7, 7)["checks"] if c["status"] == "fail"}
    assert failing == b2.catcher
    monkeypatch.undo()
    monkeypatch.setattr("pgpairs.pairs.lefschetz_shift", lambda n: lefschetz_shift(n) + 1)
    f1, f2 = fiber_classes(7)
    assert f2 - f1 == LPoly.monomial(lefschetz_shift(7) + 1)


def test_report_check_statuses():
    rep = build_pair_report(9, 4)
    checks = {c["name"]: c["status"] for c in rep["checks"]}
    assert checks["l_equivalence"] == "pass"
    assert checks["hypersurface_oracle"] == "skip"  # odd n has no hypersurface dual
    rep = build_pair_report(6, 3)
    checks = {c["name"]: c["status"] for c in rep["checks"]}
    assert checks["l_equivalence"] == "skip"
    assert checks["middle_betti_link"] == "skip"
