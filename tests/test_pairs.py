"""Pair bookkeeping: the cut-and-paste relation, dual polynomials, catalogues."""

import pytest

import pgpairs.chern as chern_module
import pgpairs.pairs as pairs_module
from pgpairs.chern import HodgeSummary, middle_hodge
from pgpairs.errors import (
    InconsistentEuler,
    InvalidParameter,
    NegativeCoefficient,
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
    derive_poincare_y,
    fiber_classes,
    hypersurface_poincare_oracle,
    make_pair,
    nl_status,
    poincare_x,
    transcendental_proxy,
)
from pgpairs.ring import LPoly, TPoly, projective_class
from pgpairs.schubert import betti, grassmannian_class, hyperplane_section_class, lefschetz_shift


def all_valid_pairs(n_max, k_max=10):
    out = []
    for n in range(4, n_max + 1):
        for k in range(1, k_max + 1):
            try:
                out.append(make_pair(n, k))
            except (OutOfSmoothRange, NegativeDimension, InvalidParameter):
                pass
    return out


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


def test_pair_and_hodge_records_repr():
    assert repr(make_pair(7, 7)) == "PGPair(n=7, k=7, dim_x=3, dim_y=3, s=6, m=0, smooth_range=True)"
    assert repr(middle_hodge(7, 7)) == (
        "HodgeSummary(dim=3, euler_char=-98, chi_y=(0, 49, -49, 0), middle_betti=102, middle_hodge=(1, 50, 50, 1))"
    )


def test_shift_invariant():
    for p in all_valid_pairs(12):
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
    assert poincare_x(7, 7) == TPoly.from_coeffs([1, 0, 1, 102, 1, 0, 1])
    assert poincare_x(6, 5) == TPoly.from_coeffs([1, 0, 1, 10, 1, 0, 1])
    assert poincare_x(5, 4) == TPoly.from_coeffs([1, 0, 5, 0, 1])  # quintic del Pezzo
    p84 = poincare_x(8, 4)
    assert p84.coefficient(8) == 24
    assert [p84.coefficient(2 * j) for j in range(4)] == [1, 1, 2, 2]


def test_poincare_x_smooth_range_enforced():
    with pytest.raises(OutOfSmoothRange):
        poincare_x(6, 7)
    with pytest.raises(NegativeDimension):
        poincare_x(4, 6)


def test_variable_betti_examples():
    assert build_pair_report(6, 5)["variable_betti"] == 10
    assert build_pair_report(8, 4)["variable_betti"] == 21
    # (4,1) has an empty dual, so no report: its v is b_3(X) - b_3(Gr(2,4))
    assert poincare_x(4, 1).coefficient(3) - betti(4, 3) == 0


# -- the relation ----------------------------------------------------------------


def test_derive_equal_parameters_returns_section_polynomial():
    for n in (5, 7, 9):
        pair = make_pair(n, n)
        p_x = poincare_x(n, n)
        assert derive_poincare_y(pair, p_x) == p_x


def test_derive_known_duals():
    pair = make_pair(6, 5)
    assert derive_poincare_y(pair, poincare_x(6, 5)) == poincare_x(6, 5)
    pair = make_pair(6, 6)
    assert derive_poincare_y(pair, poincare_x(6, 6)) == TPoly.from_coeffs(
        [1, 0, 1, 0, 23, 0, 1, 0, 1]
    )
    pair = make_pair(8, 4)
    assert derive_poincare_y(pair, poincare_x(8, 4)) == TPoly.from_coeffs([1, 0, 22, 0, 1])


def test_derive_zero_dimensional_duals_count_points():
    # the constant equals the degree of the dual zero-dimensional section
    assert derive_poincare_y(make_pair(4, 2), poincare_x(4, 2)) == TPoly({0: 2})
    assert derive_poincare_y(make_pair(6, 2), poincare_x(6, 2)) == TPoly({0: 3})
    assert derive_poincare_y(make_pair(5, 4), poincare_x(5, 4)) == TPoly({0: 5})


def test_derive_rejects_non_palindromic_input():
    pair = make_pair(7, 7)
    with pytest.raises(InvalidParameter):
        derive_poincare_y(pair, TPoly.from_coeffs([1]))


def test_derive_rejects_disconnected_surgery():
    pair = make_pair(7, 7)
    doubled = poincare_x(7, 7) * 2
    with pytest.raises(InconsistentEuler):
        derive_poincare_y(pair, doubled)


def test_derive_wrong_twist_is_non_exact():
    # a deliberately wrong twist must be caught by the exactness assertion
    bad = PGPair(n=6, k=3, dim_x=5, dim_y=1, s=5, m=3, smooth_range=True)
    with pytest.raises((NonExactDivision, InconsistentEuler)):
        derive_poincare_y(bad, poincare_x(6, 3))


def test_cayley_hypersurface_two_fibrations_agree():
    for pair in all_valid_pairs(10):
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


def test_dual_shape_sweep():
    for pair in all_valid_pairs(12):
        p_y = derive_poincare_y(pair, poincare_x(pair.n, pair.k))
        assert p_y.degree == 2 * pair.dim_y
        assert p_y.is_palindromic(pair.dim_y)
        if pair.dim_y >= 1:
            assert p_y.constant_term == 1
            assert p_y.coefficient(2 * pair.dim_y) == 1
        else:
            assert p_y.constant_term >= 2


# -- catalogues and statuses -------------------------------------------------------


def _link_status(n, k):
    return next(c["status"] for c in build_pair_report(n, k)["checks"] if c["name"] == "middle_betti_link")


def test_variable_betti_link_on_verified_range():
    # the link passes on exactly the pairs where it is established, n even
    # with k in {2,4} and n odd with k in {2,4,6}, and is skipped on every
    # other report of the CLI domain
    pairs = all_valid_pairs(MAX_NK)
    assert len(pairs) == 119
    for pair in pairs:
        covered = pair.k in ((2, 4) if pair.n % 2 == 0 else (2, 4, 6))
        assert pairs_module._link_covered(pair) == covered, (pair.n, pair.k)
        assert _link_status(pair.n, pair.k) == ("pass" if covered else "skip"), (pair.n, pair.k)


def test_variable_betti_link_examples():
    assert _link_status(8, 4) == "pass"
    assert _link_status(7, 6) == "pass"
    assert _link_status(7, 7) == "skip"
    assert _link_status(6, 5) == "skip"


def test_l_equivalence_check():
    for n in range(5, 14, 2):
        assert check_l_equivalence(n)
    with pytest.raises(InvalidParameter):
        check_l_equivalence(6)
    with pytest.raises(InvalidParameter):
        check_l_equivalence(3)


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
    def status(n, k):
        return build_pair_report(n, k)["motivic_equivalence"]["status"]

    assert status(7, 7) == "applies"
    assert status(10, 5) == "applies"
    assert status(4, 3) == "hypothesis_fails"  # the one report of the domain with v = 0
    assert status(7, 8) == "not_covered"  # k > 6 and not (7,7)
    assert status(6, 4) == "not_covered"  # NL unknown


def test_transcendental_proxy_labels():
    assert "unconditional" in transcendental_proxy(5)
    assert "conditional" in transcendental_proxy(4)


# -- the projective-space oracle -----------------------------------------------------


def test_hypersurface_oracle_examples():
    assert hypersurface_poincare_oracle(3, 5) == TPoly.from_coeffs([1, 0, 1, 0, 23, 0, 1, 0, 1])
    quintic = hypersurface_poincare_oracle(5, 4)
    assert quintic.coefficient(3) == 204
    assert quintic.evaluate(-1) == -200
    assert hypersurface_poincare_oracle(1, 3) == TPoly.from_coeffs([1, 0, 1, 0, 1])
    assert hypersurface_poincare_oracle(2, 4) == TPoly.from_coeffs([1, 0, 1, 0, 1, 0, 1])
    with pytest.raises(InvalidParameter):
        hypersurface_poincare_oracle(0, 4)
    with pytest.raises(InvalidParameter):
        hypersurface_poincare_oracle(3, 1)


def test_dual_matches_oracle_for_even_n():
    for pair in all_valid_pairs(12):
        if pair.n % 2 == 0 and pair.dim_y >= 1:
            p_y = derive_poincare_y(pair, poincare_x(pair.n, pair.k))
            assert p_y == hypersurface_poincare_oracle(pair.n // 2, pair.k - 1), (pair.n, pair.k)


# -- the projectivized-bundle divisor --------------------------------------------------


def test_cayley_trick_fano_nineteenfold():
    # the divisor [Gr][P^3] + [X] L^4 in the projectivized rank-5 bundle over
    # Gr(2,10) whose section cuts out the (10,5) section X
    u_class = grassmannian_class(10)
    p_s = poincare_x(10, 5)
    p_z = cayley_hypersurface_class(make_pair(10, 5), p_s)
    assert p_z == p_s.shift(8) + u_class.to_poincare() * projective_class(3).to_poincare()
    assert p_z.degree == 38
    assert p_z.is_palindromic(19)
    assert p_z.constant_term == 1


def test_cayley_trick_rejects_impossible_section_locus():
    # two points are not palindromic about dim X = 11
    with pytest.raises(InvalidParameter, match="not palindromic about dim X"):
        cayley_hypersurface_class(make_pair(10, 5), TPoly({0: 2}))


# -- reports ------------------------------------------------------------------------------


def test_report_calabi_yau_threefold_pair():
    rep = build_pair_report(7, 7)
    assert rep["poincare_x"] == rep["poincare_y"]
    assert rep["euler"] == -98
    assert rep["hodge"]["middle_hodge"] == [1, 50, 50, 1]
    assert rep["motivic_equivalence"]["status"] == "applies"
    assert rep["all_checks_pass"]
    assert rep["findings"] == []


def test_report_pfaffian_cubic_fourfold_finding():
    rep = build_pair_report(6, 6)
    assert rep["poincare_y"][4] == 23
    assert rep["poincare_x"][2] == 22  # neither side is altered
    assert len(rep["findings"]) == 1
    assert "unaccounted" in rep["findings"][0]
    assert rep["all_checks_pass"]


def test_report_eightfold():
    rep = build_pair_report(8, 4)
    assert rep["poincare_x"][8] == 24
    assert rep["poincare_y"] == [1, 0, 22, 0, 1]
    checks = {c["name"]: c["status"] for c in rep["checks"]}
    assert checks["middle_betti_link"] == "pass"
    assert checks["hypersurface_oracle"] == "pass"


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
    names = ("poincare_x", "_solve_poincare_y", "cayley_hypersurface_class", "_section_defect", "_dual_defect")
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


def test_grid_builds_each_ambient_class_once_per_n(monkeypatch):
    from pgpairs.cli import run_grid

    for memo in (pairs_module._ambient_classes, pairs_module._ambient_poincare, pairs_module._decomposables, check_l_equivalence):
        memo.cache_clear()
    sites = [(pairs_module, "grassmannian_class"), (pairs_module, "hyperplane_section_class")]
    calls = _count_calls(monkeypatch, sites)
    assert run_grid(4, 12, 1, 10)[1] == 0
    for name, args in calls.items():
        assert sorted(args) == [(n,) for n in range(4, 13)], name


def test_memos_serve_no_value_from_before_a_mutant(monkeypatch):
    # every per-n and per-pair memo of the report is filled first
    from pgpairs.cli import run_grid

    assert run_grid(7, 9, 1, 10)[1] == 0
    _ambient_b8_plus_one(monkeypatch)
    failing = {c["name"] for c in build_pair_report(8, 4)["checks"] if c["status"] == "fail"}
    assert failing == {"middle_betti_link"}
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


# internal identities raise a typed error, also under python -O


def test_wrong_lefschetz_shift_is_an_inconsistency(monkeypatch):
    monkeypatch.setattr("pgpairs.pairs.lefschetz_shift", lambda n: lefschetz_shift(n) + 1)
    with pytest.raises(InconsistentEuler, match="shift m"):
        make_pair(7, 7)


def test_negative_variable_betti_number_is_rejected():
    # b_8 of Gr(2,8) is 3, so a middle Betti number 0 leaves -3
    with pytest.raises(NegativeCoefficient, match="variable Betti number -3"):
        pairs_module._variable_part(8, 8, TPoly({0: 1, 8: 0, 16: 1}))


def test_non_palindromic_oracle_is_an_inconsistency(monkeypatch):
    monkeypatch.setattr(TPoly, "is_palindromic", lambda self, d: False)
    with pytest.raises(InconsistentEuler, match="not palindromic"):
        hypersurface_poincare_oracle(2, 4)


# each check that can fail reports `fail` when a production formula it
# confirms is wrong, and the wrong formula fails no other check than these
def _euler_plus_two(monkeypatch):
    euler = pairs_module.euler_characteristic_ci
    monkeypatch.setattr(pairs_module, "euler_characteristic_ci", lambda n, k, engine="pieri": euler(n, k, engine) + 2)


def _ambient_h00_plus_one(monkeypatch):
    # b_0 of Gr(2,n) as the Hodge side sees it, so only h^(0,d) moves
    betti = chern_module.betti
    monkeypatch.setattr(chern_module, "betti", lambda n, j: betti(n, j) + (j == 0))


def _oracle_middle_plus_two(monkeypatch):
    oracle = pairs_module.hypersurface_poincare_oracle
    monkeypatch.setattr(pairs_module, "hypersurface_poincare_oracle", lambda d, N: oracle(d, N) + TPoly({N - 1: 2}))


def _ambient_b8_plus_one(monkeypatch):
    # b_8 of Gr(2,8) as the pair side sees it: the variable part of the
    # eightfold (8,4) drops by one
    betti = pairs_module.betti
    monkeypatch.setattr(pairs_module, "betti", lambda n, j: betti(n, j) + ((n, j) == (8, 8)))


@pytest.mark.parametrize(
    "mutant, n, k, failing",
    [
        (_euler_plus_two, 7, 7, {"chi_euler_match", "hodge_consistency"}),
        (_ambient_h00_plus_one, 7, 7, {"hodge_consistency"}),
        (_oracle_middle_plus_two, 8, 4, {"hypersurface_oracle"}),
        (_ambient_b8_plus_one, 8, 4, {"middle_betti_link"}),
    ],
    ids=["chi_euler_match", "hodge_consistency", "hypersurface_oracle", "middle_betti_link"],
)
def test_a_wrong_formula_fails_its_check(monkeypatch, mutant, n, k, failing):
    assert build_pair_report(n, k)["all_checks_pass"]
    mutant(monkeypatch)
    report = build_pair_report(n, k)
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == failing
    assert not report["all_checks_pass"]
