"""Characteristic classes: the tangent bundle of Gr(2,n) and the section invariants."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_chow import DictChow
from pgpairs import chern, schubert
from pgpairs.chern import (
    HodgeSummary,
    chi_y_ci,
    euler_characteristic_ci,
    middle_hodge,
    tangent_chern,
)
from pgpairs.errors import InconsistentEuler, InvalidParameter
from pgpairs.pairs import hypersurface_poincare_oracle
from pgpairs.schubert import ENGINES, ChowClass, ChowRing, betti, box_partitions, grassmannian_class
from test_localization import _interpolate, _log_q


def _delta(chow):
    """delta = u^2 = sigma_1^2 - 4 sigma_{1,1}, the c(End S) = 1 - delta term."""
    return chow.sub(chow.mul(chow.sigma(1), chow.sigma(1)), chow.scale(chow.sigma(1, 1), 4))


def test_tangent_chern_of_gr24_is_classical():
    expected = {(0, 0): 1, (1, 0): 4, (1, 1): 7, (2, 0): 7, (2, 1): 12, (2, 2): 6}
    for engine in ENGINES:
        assert tangent_chern(4, engine) == ChowClass(ChowRing(4, engine), expected)


def test_whitney_identity_to_top_degree():
    # 0 -> End(S) -> S^dual (x) C^n -> T -> 0 and c(End S) = 1 - delta, so
    # c(T) (1 - delta) = c(S^dual)^n in every degree
    for engine in ENGINES:
        for n in range(4, 13):
            chow = DictChow(n, engine)
            delta = _delta(chow)
            assert chow.mul(tangent_chern(n, engine).terms, chow.sub(chow.one(), delta)) == chow.pow(
                chow.add(chow.one(), chow.sigma(1), chow.sigma(1, 1)), n
            ), (engine, n)


def test_fill_order_of_the_shared_product_table_does_not_matter():
    # the rings of every n share one n-free memo of product rows per engine,
    # which c(T) reads too; filling it from n = 18 down or from n = 4 up
    # gives the same rows, c(T), sigma_1 moments and ring products
    runs = []
    for order in (range(18, 3, -1), range(4, 19)):
        schubert._product_row.cache_clear()
        chern._euler_pairing.cache_clear()
        run = {}
        for n in order:
            for engine in ENGINES:
                pairing = chern._euler_pairing(n, engine)
                ring = ChowRing(n, engine)
                products = {(lam, mu): ring.product(lam, mu) for lam in ring.basis() for mu in ((1, 0), (1, 1))}
                run[n, engine] = (products, tangent_chern(n, engine), pairing)
        run["filled"] = schubert._product_row.cache_info().currsize
        run["rows"] = {
            (engine, mu, lam): schubert._product_row(engine, mu, lam)
            for engine in ENGINES
            for mu in ((1, 0), (1, 1))
            for lam in schubert.box_partitions(18)
        }
        runs.append(run)
    chern._euler_pairing.cache_clear()
    assert runs[0] == runs[1]


def test_the_rows_of_n_18_serve_every_smaller_n(cold_memos):
    # the product rows are n-free: c(T) of Gr(2,18) fills every row that
    # c(T) of Gr(2,n), n < 18, reads, under either engine
    for engine in ENGINES:
        chern._euler_pairing(18, engine)
        before = schubert._product_row.cache_info()
        for n in range(4, 18):
            chern._euler_pairing(n, engine)
        after = schubert._product_row.cache_info()
        assert after.misses == before.misses and after.hits > before.hits, engine


def test_n_free_rows_cut_to_the_box_are_the_ring_products():
    # the product loop cuts each n-free sigma_1 and sigma_{1,1} row to the
    # box as it adds, and that cut is the quotient ring map onto H*(Gr(2,n)):
    # delta c = sigma_1 (sigma_1 c) - 4 sigma_{1,1} c, cut at every step as
    # in tangent_chern, is the class product by sigma_1^2 - 4 sigma_{1,1},
    # and the uncut product cut once
    uncut = 10**9
    add_product = schubert.add_product
    for engine in ENGINES:
        for n in range(4, 13):
            chow = DictChow(n, engine)
            side = chow.ring.max_col
            delta_class = _delta(chow)
            for lam in chow.ring.basis():
                for mu in ((1, 0), (1, 1)):
                    row = schubert._product_row(engine, mu, lam)
                    in_box = {nu: c for nu, c in row.items() if nu[0] <= side}
                    assert add_product(engine, mu, {lam: 1}, side) == in_box, (engine, n, lam, mu)
                steps = []
                for cut in (side, uncut):
                    twice = add_product(engine, (1, 0), add_product(engine, (1, 0), {lam: 1}, cut), cut)
                    delta = add_product(engine, (1, 1), {lam: 1}, cut, -4, twice)
                    steps.append({nu: c for nu, c in delta.items() if c and nu[0] <= side})
                assert steps[0] == steps[1] == chow.mul(delta_class, chow.sigma(*lam)), (engine, n, lam)


# c(T) and its sigma_1 moments by full class products, the route before the
# graded recurrences, kept here as an oracle


def _tangent_chern_by_products(chow):
    c_dual_n = chow.pow(chow.add(chow.one(), chow.sigma(1), chow.sigma(1, 1)), chow.n)
    delta = _delta(chow)
    total = c_dual_n
    for _ in range(chow.dim // 2):
        total = chow.add(c_dual_n, chow.mul(delta, total))
    return total


def test_graded_recurrences_match_full_product_oracle():
    for engine in ENGINES:
        for n in range(4, 17):
            chow = DictChow(n, engine)
            expected = _tangent_chern_by_products(chow)
            assert tangent_chern(n, engine).terms == expected, (engine, n)
            moments = chow.sigma1_moments(expected)
            assert chern._euler_pairing(n, engine) == moments, (engine, n)


def test_tangent_first_chern_class():
    for n in range(4, 13):
        assert tangent_chern(n).component(1) == ChowClass(ChowRing(n), {(1, 0): n})


def check_tangent_top_chern():
    # c_top(T) integrates to the number of Schubert cells, [Gr(2,n)](1)
    for n in range(4, 11):
        top = tangent_chern(n).component(2 * (n - 2)).integrate()
        assert top == n * (n - 1) // 2 == grassmannian_class(n).evaluate(1), n


def test_tangent_top_chern_integrates_to_cell_count():
    check_tangent_top_chern()


def test_euler_characteristic_examples():
    # (6,5), (8,4) and (7,7) are acceptance criteria 4 and 5
    assert euler_characteristic_ci(4, 0) == 6
    # quadric threefold; the expected value comes from the projective oracle
    assert euler_characteristic_ci(4, 1) == hypersurface_poincare_oracle(2, 4).evaluate(-1) == 4
    assert euler_characteristic_ci(6, 6) == 24


def test_euler_characteristic_k0_is_cell_count():
    for n in range(4, 11):
        assert euler_characteristic_ci(n, 0) == grassmannian_class(n).evaluate(1)


def test_euler_characteristic_domain():
    with pytest.raises(InvalidParameter):
        euler_characteristic_ci(3, 0)
    with pytest.raises(InvalidParameter):
        euler_characteristic_ci(4, 5)
    with pytest.raises(InvalidParameter):
        euler_characteristic_ci(4, -1)


def test_chi_y_pure_tate_grassmannian():
    assert chi_y_ci(4, 0) == [1, -1, 2, -1, 1]
    for n in (5, 6, 7):
        expected = [(-1) ** p * betti(n, 2 * p) for p in range(2 * (n - 2) + 1)]
        assert chi_y_ci(n, 0) == expected


def check_chi_y_known_sections():
    assert chi_y_ci(6, 6) == [2, -20, 2]
    assert chi_y_ci(7, 7) == [0, 49, -49, 0]  # chi(O) = 0: trivial canonical class
    assert chi_y_ci(9, 9)[0] == 0


def test_chi_y_known_sections():
    check_chi_y_known_sections()


def test_chi_zero_of_general_type_surface_section():
    # X(7,8) is a degree-42 surface with canonical class the hyperplane class,
    # so p_g = h^0(O(1)) = 13 and chi(O) = 14; Noether's formula cross-check:
    # 12 chi(O) = K^2 + chi_top = 42 + 126
    chi = chi_y_ci(7, 8)
    assert chi[0] == 14
    euler = euler_characteristic_ci(7, 8)
    assert euler == 126
    assert 12 * chi[0] == 42 + euler


def test_chi_y_at_minus_one_matches_euler():
    # every section of n 4..24 against the Euler characteristic of both engines
    for n in range(4, 25):
        for k in range(2 * (n - 2) + 1):
            value = sum(c * (-1) ** p for p, c in enumerate(chi_y_ci(n, k)))
            for engine in ENGINES:
                assert value == euler_characteristic_ci(n, k, engine), (engine, n, k)


def check_fano_chi_zero():
    # chi(O) = 1 on every Fano section (k < n) of n 4..24
    for n in range(4, 25):
        for k in range(min(n, 2 * (n - 2) + 1)):
            assert chi_y_ci(n, k)[0] == 1, (n, k)


def test_chi_y_at_zero_is_one_for_fano():
    check_fano_chi_zero()


@pytest.mark.parametrize("n", [13, 16, 19, 24])
def test_chi_y_identities_past_the_golden_grid(n):
    # identities that share no code with `_chi_polys`: Serre duality and
    # chi(O) of a Calabi-Yau (k = n) section; chi(O) of a Fano (k < n) is
    # check_fano_chi_zero, and chi_y(-1) against the Euler characteristic of
    # both engines is test_chi_y_at_minus_one_matches_euler
    for k in range(2 * (n - 2) + 1):
        chi = chi_y_ci(n, k)
        d = 2 * (n - 2) - k
        assert len(chi) == d + 1
        assert all(chi[p] == (-1) ** d * chi[d - p] for p in range(d + 1)), (n, k)
        if k == n:
            assert chi[0] == 1 + (-1) ** d, (n, k)


def check_middle_hodge_known_values():
    # the Fano threefold V14 of the (6,5) pair has h^{1,2} = 5; (7,7) is
    # acceptance criterion 5
    h = middle_hodge(6, 5)
    assert (h.middle_hodge, h.middle_betti) == ((0, 5, 5, 0), 10)
    # h^{2,0} >= 1 of the K3 section (6,6) and of the general-type surface (7,8)
    h = middle_hodge(6, 6)
    assert (h.middle_hodge, h.middle_betti) == ((1, 20, 1), 22)
    h = middle_hodge(7, 8)
    assert h.dim == 2 and h.middle_hodge[0] >= 1


def test_middle_hodge_known_values():
    check_middle_hodge_known_values()


def test_middle_hodge_pure_tate_at_k0():
    for n in (4, 5, 6):
        h = middle_hodge(n, 0)
        d = 2 * (n - 2)
        assert h.middle_betti == betti(n, d)
        for p, val in enumerate(h.middle_hodge):
            assert val == (betti(n, d) if 2 * p == d else 0)


def test_middle_hodge_zero_dimensional_section():
    h = middle_hodge(4, 4)  # two points
    assert h.dim == 0
    assert h.middle_hodge == (2,)
    assert h.euler_char == 2
    h = middle_hodge(7, 10)  # deg Gr(2,7) = 42 points
    assert h.middle_hodge == (42,)


def test_middle_hodge_curve_section():
    # X(7,9) is a curve of degree 42 with canonical class twice the hyperplane
    h = middle_hodge(7, 9)
    assert h.dim == 1
    g = h.middle_hodge[0]
    assert h.middle_hodge == (g, g)
    assert h.euler_char == 2 - 2 * g
    assert 2 * g - 2 == 2 * 42  # adjunction: deg K = 2 deg X


def test_hodge_summary_invariants_enforced():
    # the chi_y(-1) message is pinned by the next test
    with pytest.raises(InconsistentEuler, match="^middle Hodge numbers are not symmetric$"):
        HodgeSummary(dim=1, euler_char=0, chi_y=(1, 1), middle_betti=3, middle_hodge=(2, 1))
    with pytest.raises(InconsistentEuler, match="^middle Hodge numbers do not sum to the middle Betti number$"):
        HodgeSummary(dim=1, euler_char=0, chi_y=(1, 1), middle_betti=3, middle_hodge=(1, 1))


def test_chi_euler_mismatch_names_both_values(monkeypatch):
    # checked once, in HodgeSummary, for the summary middle_hodge builds
    with pytest.raises(InconsistentEuler, match=r"^chi_y\(-1\) = 0 but the Euler characteristic is 5$"):
        HodgeSummary(dim=1, euler_char=5, chi_y=(1, 1), middle_betti=2, middle_hodge=(1, 1))
    monkeypatch.setattr(chern, "euler_characteristic_ci", lambda n, k, engine: -96)
    with pytest.raises(InconsistentEuler, match=r"^chi_y\(-1\) = -98 but the Euler characteristic is -96$"):
        middle_hodge(7, 7)


def test_engines_agree_on_invariants():
    # every section of n 4..24, past the smooth bound: middle_hodge checks
    # chi_y's degree, Serre duality and proved digit width and chi_y(-1)
    # against the engine's Euler characteristic, and its record holds both
    for n in range(4, 25):
        for k in range(2 * (n - 2) + 1):
            assert middle_hodge(n, k, "pieri") == middle_hodge(n, k, "lr"), (n, k)


def _sigma1_series(chow, ser):
    """The class sum_j ser[j] sigma_1^j, built by full Chow-ring products."""
    return chow.add(*(chow.scale(chow.pow(chow.sigma(1), j), x) for j, x in enumerate(ser)))


def test_euler_pairing_matches_full_product_oracle():
    # Gauss-Bonnet with the normal directions removed by full class products:
    # chi(X) = integral of c(T) * lef^k, lef = sigma_1/(1 + sigma_1)
    for engine in ENGINES:
        for n in range(4, 10):
            chow = DictChow(n, engine)
            lef = _sigma1_series(chow, [0] + [(-1) ** (j - 1) for j in range(1, chow.dim + 1)])
            integrand = tangent_chern(n, engine).terms
            for k in range(2 * (n - 2) + 1):
                assert euler_characteristic_ci(n, k, engine) == chow.integrate(integrand), (engine, n, k)
                integrand = chow.mul(integrand, lef)


@st.composite
def _integral_class(draw):
    n = draw(st.integers(4, 8))
    terms = draw(st.dictionaries(st.sampled_from(box_partitions(n)), st.integers(-20, 20), max_size=10))
    return n, terms


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_integral_class())
def test_moment_pairing_matches_full_product(case):
    # the int formula of euler_characteristic_ci on a random integral class
    # in place of c(T): integral of cls * lef^k, lef = sigma_1/(1 + sigma_1),
    # by full class products for every k
    n, terms = case
    chow = DictChow(n)
    cls = ChowClass(chow.ring, terms)
    moments = chern._sigma1_moments(cls)
    assert moments == chow.sigma1_moments(cls.terms)
    lef = _sigma1_series(chow, [0] + [(-1) ** (j - 1) for j in range(1, chow.dim + 1)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chern, "_euler_pairing", lambda n, engine: moments)
        integrand = cls.terms
        for k in range(chow.dim + 1):
            assert euler_characteristic_ci(n, k) == chow.integrate(integrand), k
            integrand = chow.mul(integrand, lef)


# ---------------------------------------------------------------------------
# Fraction series helpers for the oracles below


def _ser_mul(a, b, trunc):
    out = [Fraction(0)] * (trunc + 1)
    for i, x in enumerate(a[: trunc + 1]):
        for j, y in enumerate(b[: trunc + 1 - i]):
            out[i + j] += x * y
    return out


def _ser_div(a, b, trunc):
    out = [Fraction(0)] * (trunc + 1)
    for m in range(trunc + 1):
        acc = Fraction(a[m] if m < len(a) else 0)
        for j in range(1, min(m, len(b) - 1) + 1):
            acc -= b[j] * out[m - j]
        out[m] = acc / b[0]
    return out


@st.composite
def _integer_series_power(draw):
    a0 = draw(st.integers(-30, 30).filter(lambda v: v not in (-1, 0, 1)))
    nums = [a0] + draw(st.lists(st.integers(-30, 30), max_size=10))
    return nums, draw(st.integers(1, 12)), draw(st.integers(0, 12)), draw(st.integers(0, 14))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_integer_series_power())
def test_miller_power_matches_repeated_products(case):
    # the weights `tangent_chern` uses, m a_0 b_m = sum_j _miller(e, j, m)
    # a_j b_(m-j) for b = a^e, on a general series
    nums, den, e, trunc = case
    a = [Fraction(x, den) for x in nums]
    power = [a[0] ** e]
    for m in range(1, trunc + 1):
        acc = sum(chern._miller(e, j, m) * a[j] * power[m - j] for j in range(1, min(m, len(a) - 1) + 1))
        power.append(acc / (m * a[0]))
    expected = [Fraction(1)] + [Fraction(0)] * trunc
    for _ in range(e):
        expected = _ser_mul(expected, a, trunc)
    assert power == expected


# ---------------------------------------------------------------------------
# chi_y by the Schubert route, kept as an oracle for `chern._chi_polys`:
# power sums of T -> log of the root series -> exp in the Chow ring -> sigma_1
# moments by Schubert products


def _tangent_power_sums(chow):
    """Power sums p_0..p_dim of the Chern roots of T = n S^dual - End(S):
    p_m(T) = n p_m(S^dual) - p_m(End S), where p_m(S^dual) = sigma_1 p_(m-1) -
    sigma_{1,1} p_(m-2) and p_m(End S) = 2 delta^(m/2) for even m, 0 for odd m."""
    s1, s11 = chow.sigma(1), chow.sigma(1, 1)
    dual = [chow.scale(chow.one(), 2), s1]
    for m in range(2, chow.dim + 1):
        dual.append(chow.sub(chow.mul(s1, dual[m - 1]), chow.mul(s11, dual[m - 2])))
    delta = _delta(chow)
    delta_pow = chow.one()
    out = [chow.scale(chow.one(), chow.dim)]  # p_0 = rank T
    for m in range(1, chow.dim + 1):
        p = chow.scale(dual[m], chow.n)
        if m % 2 == 0:
            delta_pow = chow.mul(delta_pow, delta)
            p = chow.sub(p, chow.scale(delta_pow, 2))
        out.append(p)
    return out


def _newton_power_sums(chow, c_t, upto):
    """Newton's identities: p_m = (-1)^(m-1) m c_m + sum_{i<m} (-1)^(i-1) c_i p_(m-i)."""
    p = [None]
    for m in range(1, upto + 1):
        acc = chow.scale(chow.component(c_t, m), (-1) ** (m - 1) * m)
        for i in range(1, m):
            acc = chow.add(acc, chow.scale(chow.mul(chow.component(c_t, i), p[m - i]), (-1) ** (i - 1)))
        p.append(acc)
    return p[1:]


def test_direct_power_sums_match_newton_on_tangent_chern():
    for engine in ENGINES:
        for n in range(4, 11):
            chow = DictChow(n, engine)
            newton = _newton_power_sums(chow, tangent_chern(n, engine).terms, chow.dim)
            assert _tangent_power_sums(chow)[1:] == newton, (engine, n)


def _chow_exp(arg, chow):
    """exp of a class with no degree-zero part, truncated at the ring dimension."""
    out = chow.one()
    cur = chow.one()
    for i in range(1, chow.dim + 1):
        cur = chow.scale(chow.mul(cur, arg), Fraction(1, i))
        if not cur:
            break
        out = chow.add(out, cur)
    return out


def _series_power_pairings(moments, ser):
    """[integral of cls * F^k for k = 0..dim] for F = sum_j ser[j] sigma_1^j,
    from the sigma_1 moments of cls, through Fraction powers of F."""
    out, power = [], [Fraction(1)]
    for _ in moments:
        out.append(sum(c * m for c, m in zip(power, moments)))
        power = _ser_mul(power, ser, len(moments) - 1)
    return out


def _schubert_chi_y(n, engine):
    """chi_y coefficient lists of the sections of Gr(2,n) by k = 0..dim
    hyperplanes, with T_y(T) = prod Q(t) over the roots t of T built in the
    Chow ring of `engine` as (1 + y)^dim exp(sum_m g_m p_m(T)), where
    g = log(Q/(1 + y)) and Q(x) = x (1 + y e^-x)/(1 - e^-x)."""
    chow = DictChow(n, engine)
    dim = chow.dim
    psums = _tangent_power_sums(chow)
    exp_neg = [Fraction((-1) ** j, factorial(j)) for j in range(dim + 1)]
    nodes = []
    for y0 in range(dim + 1):
        a_ser = [Fraction(1 + y0)] + [y0 * c for c in exp_neg[1:]]  # 1 + y e^-x
        g_ser = _log_q(Fraction(y0), dim)
        arg = chow.add(*(chow.scale(psums[m], g_ser[m]) for m in range(1, dim + 1)))
        t_y = chow.scale(_chow_exp(arg, chow), Fraction(1 + y0) ** dim)
        normal = _ser_div([Fraction(0)] + [-x for x in exp_neg[1:]], a_ser, dim)
        nodes.append(_series_power_pairings(chow.sigma1_moments(t_y), normal))
    out = []
    for k in range(dim + 1):
        coeffs = _interpolate([node[k] for node in nodes])
        assert not any(coeffs[dim - k + 1 :]), (engine, n, k)
        out.append(coeffs[: dim - k + 1])
    return out


def test_chi_y_matches_schubert_route_oracle():
    for engine in ENGINES:
        for n in range(4, 10):
            for k, expected in enumerate(_schubert_chi_y(n, engine)):
                assert chi_y_ci(n, k) == expected, (engine, n, k)


@st.composite
def _sigma_polynomial(draw):
    """n and {(a, b): coeff} for f = sum coeff sigma_1^a sigma_{1,1}^b of
    degree dim Gr(2,n), with lower-degree terms that must integrate to 0."""
    n = draw(st.integers(4, 10))
    dim = 2 * (n - 2)
    top = [(dim - 2 * b, b) for b in range(dim // 2 + 1)]
    lower = [(a, b) for b in range(dim // 2) for a in range(dim - 2 * b)]
    coeff = st.integers(-50, 50)
    f = draw(st.dictionaries(st.sampled_from(top), coeff, min_size=1, max_size=4))
    f.update(draw(st.dictionaries(st.sampled_from(lower), coeff, max_size=4)))
    return n, f


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_sigma_polynomial())
def test_catalan_integral_matches_schubert_integral(case):
    # chi_y integrates e1^a e2^b as sigma_1^a sigma_{1,1}^b by the Catalan
    # weights on the top degree alone
    n, f = case
    dim = 2 * (n - 2)
    weights = chern._top_integrals(n)
    value = sum(c * weights[b] for (a, b), c in f.items() if a + 2 * b == dim)
    for engine in ENGINES:
        chow = DictChow(n, engine)
        s1, s11 = chow.sigma(1), chow.sigma(1, 1)
        cls = chow.add(*(chow.scale(chow.mul(chow.pow(s1, a), chow.pow(s11, b)), x) for (a, b), x in f.items()))
        assert value == chow.integrate(cls), engine


# ---------------------------------------------------------------------------
# the coordinate v = x/Q(x) on each Chern root, checked as Fraction series on
# the lines x2 = c x1: an identity of power series in x1, x2 holds to order d
# once it holds on d + 1 lines, since its degree-d part is a binary form of
# degree d


_ORDER = 7
_LINES = [Fraction(c) for c in (-3, -2, -1, Fraction(-1, 2), 0, Fraction(1, 3), Fraction(1, 2), 2, 3, 5)]
_YS = [Fraction(y) for y in (0, 1, 2, 5, -3, Fraction(1, 2))]


def _v_series(y, top):
    """v(x) = x/Q(x) = (1 - e^-x)/(1 + y e^-x) to x^top."""
    exp_neg = [Fraction((-1) ** j, factorial(j)) for j in range(top + 1)]
    return _ser_div([Fraction(0)] + [-c for c in exp_neg[1:]], [1 + y] + [y * c for c in exp_neg[1:]], top)


def _on_line(ser, c):
    """f(c t) for the series f(t)."""
    return [x * c**j for j, x in enumerate(ser)]


def _lin(*terms):
    """The sum of scalar * series over (scalar, series) pairs."""
    top = max(len(ser) for _, ser in terms)
    out = [Fraction(0)] * top
    for scalar, ser in terms:
        for j, x in enumerate(ser):
            out[j] += scalar * x
    return out


def _den_in_v(y, e1, e2, top):
    """The product of `chern._DEN_FACTORS` at the series e1, e2."""
    one = [Fraction(1)] + [Fraction(0)] * top
    den = one
    for factor in chern._DEN_FACTORS:
        value = one
        for (a, b), coeffs in factor.items():
            term = one
            for _ in range(a):
                term = _ser_mul(term, e1, top)
            for _ in range(b):
                term = _ser_mul(term, e2, top)
            value = _lin((1, value), (sum(x * y**i for i, x in enumerate(coeffs)), term))
        den = _ser_mul(den, value, top)
    return den


def test_v_coordinate_identities():
    # (i)-(iii) of the chern module docstring, and den of `_DEN_FACTORS` as
    # (1 - v1)(1 + y v1)(1 - v2)(1 + y v2) P3
    top = _ORDER
    one = [Fraction(1)] + [Fraction(0)] * top
    for y in _YS:
        v = _v_series(y, top + 1)
        # (i) dv/dx = (1 - v)(1 + y v)/(1 + y)
        dv = [j * x for j, x in enumerate(v)][1:]
        rhs = _ser_mul(_lin((1, one), (-1, v)), _lin((1, one), (y, v)), top)
        assert dv == [x / (1 + y) for x in rhs], y
        v = v[: top + 1]
        for c in _LINES:
            v1, v2 = v, _on_line(v, c)
            e2 = _ser_mul(v1, v2, top)
            # (ii) h/Q(h) = F for h = x1 + x2
            f = _ser_div(_lin((1, v1), (1, v2), (y - 1, e2)), _lin((1, one), (y, e2)), top)
            assert _on_line(v, 1 + c) == f, (y, c)
            # (iii) u^2/(Q(u) Q(-u)) = (v1 - v2)^2/P3 for u = x1 - x2, where
            # u/Q(u) = v(u) and -u/Q(-u) = v(-u)
            lhs = _lin((-1, _ser_mul(_on_line(v, 1 - c), _on_line(v, c - 1), top)))
            p3 = _ser_mul(_lin((1, one), (y - 1, v1), (-y, e2)), _lin((1, one), (y - 1, v2), (-y, e2)), top)
            diff = _lin((1, v1), (-1, v2))
            assert _ser_mul(lhs, p3, top) == _ser_mul(diff, diff, top), (y, c)
            roots = _ser_mul(_lin((1, one), (-1, v1)), _lin((1, one), (y, v1)), top)
            roots = _ser_mul(roots, _ser_mul(_lin((1, one), (-1, v2)), _lin((1, one), (y, v2)), top), top)
            assert _den_in_v(y, _lin((1, v1), (1, v2)), e2, top) == _ser_mul(roots, p3, top), (y, c)


def _y_sub(acc, p, c):
    """acc - c p mod y^len(acc) for int lists in y and a coefficient tuple c."""
    for i, ci in enumerate(c):
        if ci:
            acc = [x - ci * z for x, z in zip(acc, [0] * i + list(p))]
    return acc


def _chi_polys_in_y(n):
    dim = 2 * (n - 2)
    zero = [0] * (dim + 1)
    phi = [[zero] * (dim - 2 * b + 1) for b in range(dim // 2 + 1)]
    for row, value in zip(phi, chern._top_integrals(n)):
        row[-1] = [value] + zero[1:]
    for factor in chern._DEN_FACTORS:
        for w in range(dim - 1, -1, -1):
            for b in range(w // 2 + 1):
                a = w - 2 * b
                for (da, db), c in factor.items():
                    if w + da + 2 * db <= dim:
                        phi[b][a] = _y_sub(phi[b][a], phi[b + db][a + da], c)
    out = []
    for k in range(dim + 1):
        out.append(phi[0][0])
        top = dim - k
        for a in range(top + 1):
            for b in range((top - a) // 2 - 1, -1, -1):
                phi[b][a] = _y_sub(phi[b][a], phi[b + 1][a], (0, 1))
        for a in range(top):
            for b in range((top - 1 - a) // 2 + 1):
                up = phi[b + 1][a] if a + 2 * b + 2 <= top else zero
                phi[b][a] = _y_sub(phi[b][a + 1], up, (1, -1))
    return out


def test_packed_chi_polys_match_the_recurrence_in_y():
    for n in range(4, 17):
        assert chern._chi_polys(n) == _chi_polys_in_y(n), n


def _degree_vector_by_pieri_steps(ring):
    """d(lam) = integral of sigma_lam sigma_1^(dim - |lam|): d(point) = 1, and
    below it d(lam) = sum_nu c_nu d(nu) over sigma_lam sigma_1 = sum c_nu sigma_nu."""
    deg = {}
    for lam in reversed(ring.basis()):
        deg[lam] = 1 if lam == ring.point else sum(c * deg[nu] for nu, c in ring.product(lam, (1, 0)).items())
    return deg


def test_closed_form_degree_vector_matches_pieri_steps():
    for engine in ENGINES:
        for n in range(4, 19):
            ring = ChowRing(n, engine)
            for lam, d in _degree_vector_by_pieri_steps(ring).items():
                moments = chern._sigma1_moments(ChowClass(ring, {lam: 1}))
                assert moments == [d if j == ring.dim - sum(lam) else 0 for j in range(ring.dim + 1)], (engine, lam)
