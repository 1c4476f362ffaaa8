"""Every check of pgpairs catches a named wrong formula.

`MUTANTS` maps a mutant's name to (patch, call, catcher): `patch(monkeypatch)`
puts the wrong formula in place and `call()` runs the code that must catch
it, at the parameters that end the name.  The catcher is an error type, an
(error type, message pattern) pair, or the set of report checks that read
`fail`; for that kind the report must pass before the patch.  The catcher
`UNREAD` says that the report reads no value of the wrong formula at those
parameters: the patched report equals the unpatched one, so no report is
silently wrong there.  Every memo is
cold around each row (`cold_memos` in conftest.py), so no value from before
a patch hides it.

A flip of `nl_status` to `satisfied` on a pair whose middle Hodge row is
zero off its centre raises; it has rows.  Every other flip passes every
report for n 4..12, k 1..10, so it is not a row: no report check reads the
status, and only the pinned values of
`test_pairs.py::test_nl_status_catalogue` catch it.
"""

from collections import namedtuple
from functools import cache, partial

import pytest

from conftest import clear_memos, memos
from pgpairs import chern, pairs, schubert
from pgpairs.chern import chi_y_ci, middle_hodge, tangent_chern
from pgpairs.cli import run_grid
from pgpairs.dsl import eval_dsl
from pgpairs.errors import InconsistentEuler, NonExactDivision, NonIntegralGenus
from pgpairs.pairs import build_pair_report, hypersurface_poincare_oracle, make_pair
from pgpairs.ring import LPoly, TPoly
from pgpairs.schubert import ENGINES, betti, lefschetz_shift

Mutant = namedtuple("Mutant", "patch call catcher")
UNREAD = "the report reads no value of the patched formula"


def _swap(module, name, wrong):
    """A patch that replaces module.name by wrong(the original)."""
    return lambda mp: mp.setattr(module, name, wrong(getattr(module, name)))


def _betti_plus(where, *modules):
    """A patch that adds where(n, j) to betti(n, j) as each module reads it."""
    def patch(mp):
        for m in modules:
            mp.setattr(m, "betti", lambda n, j: betti(n, j) + where(n, j))
    return patch


def _gr_side_plus(term):
    """A patch that adds term(n, k) to the Gr side [Gr(2,n)][P^(k-2)] of `_decomposables`."""
    return _swap(pairs, "_decomposables", lambda f: lambda n, k: (f(n, k)[0] + term(n, k), f(n, k)[1]))


def _euler_plus(c):
    return _swap(pairs, "euler_characteristic_ci", lambda f: lambda n, k, engine="pieri": f(n, k, engine) + c)


def _den_factor(i, key, coeffs):
    """A patch that gives e1^a e2^b, key = (a, b), the y-coefficients `coeffs` in den's factor i."""
    return _swap(chern, "_DEN_FACTORS", lambda den: tuple(
        {**f, key: coeffs} if j == i else f for j, f in enumerate(den)
    ))


def _chi_y_77_plus(p, bump):
    """A patch that adds bump to chi^p of (7,7), whose chi_y is [0, 49, -49, 0]."""
    return _swap(chern, "_chi_polys", lambda f: lambda n: [
        [c + bump * ((k, q) == (7, p)) for q, c in enumerate(poly)] for k, poly in enumerate(f(n))
    ])


def _width_of_largest(mp):
    # B two bits below the bit_length(M) + 2 that the largest coefficient M needs, so M wraps; two
    # bits below `_digit_width` still fit, as its L1 bound is 7 (n = 4) to 45 (n = 24) bits above M
    true = {n: chern._chi_polys.__wrapped__(n) for n in range(4, 10)}
    mp.setattr(chern, "_digit_width", lambda n: max(abs(c) for poly in true[n] for c in poly).bit_length())


def _on_both_engines(name, patch, catcher):
    """One row for each engine and n in (4, 5, 7), caught by c(T)."""
    return {
        f"{name}-{e}-n{n}": Mutant(patch, partial(tangent_chern, n, e), catcher) for e in ENGINES for n in (4, 5, 7)
    }


def _sections(ns):
    return lambda: [middle_hodge(n, k) for n in ns for k in range(2 * (n - 2) + 1)]


def _report(n, k):
    return lambda: build_pair_report(n, k)


_SERRE = (NonIntegralGenus, "breaks Serre duality")
_CHI_EULER = (InconsistentEuler, "but the Euler characteristic is")
_TOP_CLASS = (InconsistentEuler, "does not integrate to the number of Schubert cells")

MUTANTS = {
    # the Euler route: c(T) whose add_product(engine, mu, terms, side, -4, acc)
    # returns acc, so with no -4 sigma_{1,1} c term, and Miller's weight off by one
    **_on_both_engines(
        "c(T)_without_-4s11c",
        _swap(chern, "add_product", lambda f: lambda *a: a[5] if -4 in a[4:5] else f(*a)),
        _TOP_CLASS,
    ),
    **_on_both_engines(
        "miller_weight-1_on_s11",
        _swap(chern, "_miller", lambda f: lambda n, j, m: f(n, j, m) - (j == 2)),
        (InconsistentEuler, "is not divisible by"),
    ),
    # the closed-form product, which c(T) reads
    "pieri_product_without_top_term-n4k2": Mutant(
        _swap(schubert, "_product_pieri", lambda f: lambda lam, mu: {
            nu: c for nu, c in f(lam, mu).items() if nu[0] != lam[0] + mu[0]
        }),
        _report(4, 2),
        _TOP_CLASS,
    ),
    "pieri_product_coefficients_2-n4k2": Mutant(
        _swap(schubert, "_product_pieri", lambda f: lambda lam, mu: dict.fromkeys(f(lam, mu), 2)),
        _report(4, 2),
        _TOP_CLASS,
    ),
    # the chi_y route: one coefficient of den off by one, caught at some n <= 9
    **{
        f"{name}-n4to9": Mutant(_den_factor(i, key, coeffs), _sections(range(4, 10)), c)
        for name, i, key, coeffs, c in (
            ("den0_e1_y^0=-2", 0, (1, 0), (-2,), _SERRE),  # was (-1,)
            ("den1_e2_y^2=2", 1, (0, 1), (0, 0, 2), _SERRE),  # was (0, 0, 1)
            ("den2_e2_y^1=-3", 2, (0, 1), (1, -3, 1), _CHI_EULER),  # was (1, -4, 1)
            ("den2_e1e2_y^2=0", 2, (1, 1), (0, 1, 0), _SERRE),  # was (0, 1, -1)
            ("den2_e2^2_y^2=2", 2, (0, 2), (0, 0, 2), _CHI_EULER),  # was (0, 0, 1)
        )
    },
    "F_step_weight+1-n4k1": Mutant(
        _swap(chern, "_functional", lambda f: lambda n, den, lift, step: f(n, den, lift, step + 1)),
        lambda: chi_y_ci(4, 1),
        _SERRE,
    ),
    "lift_weight-1-n4k1": Mutant(
        _swap(chern, "_functional", lambda f: lambda n, den, lift, step: f(n, den, lift - 1, step)),
        lambda: chi_y_ci(4, 1),
        _SERRE,
    ),
    **{
        f"chi^{p}{bump:+}-n7k7": Mutant(_chi_y_77_plus(p, bump), lambda: chi_y_ci(7, 7), catcher)
        for p, bump, catcher in (
            (0, 1, _SERRE),
            (2, 1, _SERRE),
            (4, 1, (NonIntegralGenus, "degree 4 above dim X = 3")),
            (10, -1, (NonIntegralGenus, "degree 10 above dim X = 3")),
        )
    },
    # chi(O_Y) through the relation against Y's free resolution, from either side.  chi_y(8,4) =
    # [1, -1, 2, -4, 20, -4, 2, -1, 1] in place of [1, -1, 2, -3, 22, -3, 2, -1, 1] keeps Serre
    # duality, chi_y(-1) = Euler and the row sum, so only this check catches it
    "chi_y_8_4_survivor-n8k4": Mutant(
        _swap(chern, "_chi_polys", lambda f: lambda n: [
            [1, -1, 2, -4, 20, -4, 2, -1, 1] if (n, k) == (8, 4) else poly for k, poly in enumerate(f(n))
        ]),
        _report(8, 4),
        (InconsistentEuler, r"chi\(O_Y\) = 3 from the relation, 2 from the resolution"),
    ),
    "hodge_side_b_0+1-n7k7": Mutant(
        _betti_plus(lambda n, j: j == 0, chern),
        _report(7, 7),
        (InconsistentEuler, r"chi\(O_Y\) = -1 from the relation, 0 from the resolution"),
    ),
    "chi_o_y+1-n8k4": Mutant(
        _swap(pairs, "chi_o_y", lambda f: lambda n, k: f(n, k) + 1),
        _report(8, 4),
        (InconsistentEuler, r"chi\(O_Y\) = 2 from the relation, 3 from the resolution"),
    ),
    # a Tate class too many in degree 0 leaves h^(0,8) of (8,4) at 1 - 2
    "hodge_side_b_0+1-n8k4": Mutant(
        _betti_plus(lambda n, j: j == 0, chern),
        partial(middle_hodge, 8, 4),
        (InconsistentEuler, r"middle Hodge number h\^\(0,8\) = -1 < 0"),
    ),
    # the packed chi_y's digit width
    **{
        f"digit_width_of_largest_coefficient-n{n}": Mutant(_width_of_largest, _sections([n]), _SERRE)
        for n in range(4, 10)
    },
    "digit_width_1-n4": Mutant(
        _swap(chern, "_digit_width", lambda f: lambda n: 1),
        lambda: chern._chi_polys(4),
        (NonIntegralGenus, "does not fit 5 digits of 1 bits"),
    ),
    # the pair side: an extra class in degree 2 moves [Gr(2,n)] and P(X)
    # together, but not [H(2,n)], which reads no Betti number; at (8,4), (9,4)
    # and (10,5) the Tate remainder, computed first, gains -1 in its top degrees
    **{
        f"b_2+1_everywhere-n{n}k{k}": Mutant(_betti_plus(lambda n, j: j == 2, schubert, pairs, chern), _report(n, k), e)
        for n, k, e in (
            *((n, k, (InconsistentEuler, "has both signs")) for n, k in ((8, 4), (9, 4), (10, 5))),
            *((n, k, InconsistentEuler) for n, k in ((7, 7), (6, 6))),
        )
    },
    "lefschetz_shift+1-n7k7": Mutant(
        _swap(pairs, "lefschetz_shift", lambda f: lambda n: f(n) + 1),
        lambda: make_pair(7, 7),
        (InconsistentEuler, "shift m"),
    ),
    # the relation's decomposable terms: the Gr side [Gr(2,n)][P^(k-2)] 1 too big at t^0 for
    # each k >= 2; the Tate remainder's division fails
    "decomposables_gr+1-n7k7": Mutant(
        _gr_side_plus(lambda n, k: TPoly({0: int(k >= 2)})),
        _report(7, 7),
        (NonExactDivision, r"remainder of degree 0 left by division of the decomposable difference of \(7,7\) by t\^12"),
    ),
    # the same terms as the Tate remainder reads them, called directly rather than through a report
    "tate_remainder_of_decomposables_gr+1-n7k7": Mutant(
        _gr_side_plus(lambda n, k: TPoly({0: int(k >= 2)})),
        lambda: pairs._tate_remainder(make_pair(7, 7)),
        (NonExactDivision, r"remainder of degree 0 left by division of the decomposable difference of \(7,7\) by t\^12"),
    ),
    # the dual side: a class of the Gr side too many at t^(2s + 2) lands in P(Y)'s t^2 alone
    "decomposables_gr+t^(2s+2)-n7k7": Mutant(
        _gr_side_plus(lambda n, k: TPoly({2 * lefschetz_shift(n) + 2: 1})),
        _report(7, 7),
        (InconsistentEuler, "derived dual polynomial is not palindromic"),
    ),
    # a class of the Gr side too many at t^(2s + dim Y) = t^9 of (6,3) alone: the solve stays exact
    # and P(Y) = [1, 3, 1] palindromic, but the Tate remainder 1 + t^2 + ... + t^10 gains -t^5
    "decomposables_gr+t^(2s+dimY)-n6k3": Mutant(
        _gr_side_plus(lambda n, k: TPoly({2 * lefschetz_shift(n) + 1: int((n, k) == (6, 3))})),
        _report(6, 3),
        (InconsistentEuler, r"Tate remainder \[1, 0, 1, 0, 1, -1, 1, 0, 1, 0, 1\] in t of \(6,3\) has both signs"),
    ),
    # the oracle's Euler characteristic without its i = 0 term
    "oracle_without_i0_term-d2N4": Mutant(
        _swap(pairs, "comb", lambda f: lambda a, b: f(a, b) if b else 0),
        lambda: hypersurface_poincare_oracle(2, 4),
        (InconsistentEuler, "impossible middle Betti number -16"),
    ),
    # each message of _section_defect
    "euler+1000-n7k7": Mutant(
        _euler_plus(1000), _report(7, 7), (InconsistentEuler, "middle Betti number -898 < 0")
    ),
    "euler+1-n7k7": Mutant(_euler_plus(1), _report(7, 7), (InconsistentEuler, "odd middle Betti number 101")),
    "euler-2-n4k4": Mutant(_euler_plus(-2), _report(4, 4), (InconsistentEuler, "below the ambient value 1")),
    "pair_side_b_1+1-n8k4": Mutant(
        _betti_plus(lambda n, j: j == 1, pairs),
        _report(8, 4),
        (InconsistentEuler, r"nonzero odd-degree Betti number below the middle degree 8 of \(8,4\)"),
    ),
    # X's shape in the report: chi_y one entry too long (chi_y_ci's coeffs[: dim + 2]) and the
    # middle row without its last two entries (_middle_row's range(dim - 1)), each silent on
    # (8,4) without the raise
    "chi_y_ci_length_dim+2-n8k4": Mutant(
        _swap(chern, "chi_y_ci", lambda f: lambda n, k: f(n, k) + [0]),
        _report(8, 4),
        (InconsistentEuler, r"X of \(8,4\) has dimension 8, chi_y \[1, -1, 2, -3, 22, -3, 2, -1, 1, 0\]"),
    ),
    "middle_row_range_dim-1-n8k4": Mutant(
        _swap(pairs, "_middle_row", lambda f: lambda n, k: (f(n, k)[0], f(n, k)[1][:-2])),
        _report(8, 4),
        (InconsistentEuler, r"X of \(8,4\) has dimension 8, .* middle Hodge row \[0, 0, 0, 1, 22, 1, 0\]"),
    ),
    # v reads b_dimX(Gr(2,n)) from [Gr(2,n)], as the link's gate does, not from `betti`: a wrong
    # b_8(Gr(2,8)) leaves (8,4) alone, and `betti` 1 in odd degrees leaves the curves (5,5) and
    # (7,9), where v reads b_1, alone, since [Gr(2,n)] has even degrees only
    "pair_side_b_8+1-n8k4": Mutant(_betti_plus(lambda n, j: (n, j) == (8, 8), pairs), _report(8, 4), UNREAD),
    **{
        f"betti_1_in_odd_degrees-n{n}k{k}": Mutant(
            _betti_plus(lambda n, j: j % 2, schubert, pairs, chern), _report(n, k), UNREAD
        )
        for n, k in ((5, 5), (7, 9))
    },
    # Noether-Lefschetz claimed on a pair whose middle row is pure (p,p): (4,2) is P^1 x P^1
    **{
        f"nl_status_satisfied-n{n}k{k}": Mutant(
            _swap(pairs, "nl_status", lambda f: lambda n, k: "satisfied"),
            _report(n, k),
            (InconsistentEuler, "Noether-Lefschetz"),
        )
        for n, k in ((4, 2), (9, 4))
    },
    # each report check that can fail reads `fail`, and no other check does
    "euler+2-n7k7": Mutant(_euler_plus(2), _report(7, 7), {"chi_euler_match", "hodge_consistency"}),
    "hodge_side_b_2+1-n7k7": Mutant(_betti_plus(lambda n, j: j == 2, chern), _report(7, 7), {"hodge_consistency"}),
    "oracle_middle+2-n8k4": Mutant(
        _swap(pairs, "hypersurface_poincare_oracle", lambda f: lambda d, N: f(d, N) + TPoly({N - 1: 2})),
        _report(8, 4),
        {"hypersurface_oracle"},
    ),
    "singular_fibre+L^(s+1)-n7k7": Mutant(
        _swap(pairs, "fiber_classes", lambda f: lambda n: (f(n)[0], f(n)[1] + LPoly.monomial(lefschetz_shift(n) + 1))),
        _report(7, 7),
        {"fiber_shift"},
    ),
    "link_covered_everywhere-n6k3": Mutant(
        lambda mp: mp.setattr(pairs, "_link_covered", lambda pair, tate: True), _report(6, 3), {"middle_betti_link"}
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutant_is_caught(name, monkeypatch, cold_memos):
    patch, call, catcher = MUTANTS[name]
    if catcher == UNREAD:
        before = call()
        clear_memos()
        patch(monkeypatch)
        assert call() == before
    elif isinstance(catcher, set):
        assert call()["all_checks_pass"]
        clear_memos()
        patch(monkeypatch)
        assert {c["name"] for c in call()["checks"] if c["status"] == "fail"} == catcher
    else:
        error, pattern = catcher if isinstance(catcher, tuple) else (catcher, None)
        patch(monkeypatch)
        with pytest.raises(error, match=pattern):
            call()


def test_cold_memos_clears_every_memo(cold_memos):
    for engine in ENGINES:
        run_grid(4, 9, 1, 10, engine=engine)
        tangent_chern(9, engine)
    eval_dsl("F1(9)")
    found = memos()
    assert sorted(found) == [
        "pgpairs.chern._chi_polys",
        "pgpairs.chern._euler_pairing",
        "pgpairs.pairs._ambient",
        "pgpairs.pairs._decomposables",
        "pgpairs.schubert._product_row",
    ]
    assert all(memo.cache_info().currsize for memo in found.values())
    clear_memos()
    assert [name for name, memo in found.items() if memo.cache_info().currsize] == []


def test_a_memo_left_off_cold_memos_is_named(monkeypatch):
    monkeypatch.setattr(pairs, "_extra", cache(lambda n: n), raising=False)
    pairs._extra(1)
    assert memos()["pgpairs.pairs._extra"] is pairs._extra
    clear_memos()
    assert pairs._extra.cache_info().currsize == 0
