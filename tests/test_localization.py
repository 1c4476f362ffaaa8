"""Torus localization: X's Euler characteristic and chi_y with no Schubert
table.

Atiyah-Bott over the C(n,2) fixed points of Gr(2,n) (Ellingsrud-Stromme,
"Bott's formula and enumerative geometry").  With torus weights w_i, the
fixed point J = {i, j} has tangent weights w_l - w_j' (j' in J, l not in J)
and hyperplane class h = -(w_i + w_j).  X = Gr(2,n) cut by k hyperplanes is
the zero locus of a section of O(1)^k, so e(X) is the integral of
c(T) h^k / (1 + h)^k, and the point contributes
h^k [t^(dim X)] prod(1 + t r) (1 + t h)^(-k) / prod r.  The sum is taken
in Fractions and must be an integer.

chi_y(X) is the integral over X of prod Q(x) over the Chern roots x of T_X,
with Q(x) = td(x) + y td(-x), td(x) = x/(1 - e^-x), and T_X = T - O(1)^k.
Write log(Q(x)/(1 + y)) = sum_(j >= 1) l_j x^j.  At an integer y0 != -1 the
point contributes (1 + y0)^(dim X) [t^(dim X)] exp(sum_j l_j p_j t^j) times
h^k / prod r, with p_j = p_j(T) - k h^j and p_j(T) the power sums of the
tangent weights.

For odd n, the dual Y of the pair (n, k) is the zero locus on M = P^(k-1) x
Gr(3,n) of a section of E = F(1), F = ker(U^v (x) V^v -> Sym^2 U^v) of rank
3n - 6, so dim Y = k - 4.  With weights a_i on P^(k-1), the fixed point
(i, J) has tangent weights a_l - a_i (l != i) and w_l - w_j (j in J, l not in
J), and E has the weights -w_j - w_l - a_i (j in J, l not in J) and
-w_j - w_j' - a_i (j < j' in J).  e(Y) is the integral of c(T) c_top(E) /
c(E), so the point contributes [t^(k-4)] prod_T(1 + t r) prod_E 1/(1 + t e)
times prod_E e / prod_T r; the sum must be an integer.  chi_y(Y) is the
integral of c_top(E) prod_T Q / prod_E Q, so at y0 the point contributes
(1 + y0)^(k-4) [t^(k-4)] exp(sum_j l_j p_j t^j) times prod_E e / prod_T r,
with p_j = p_j(T) - p_j(E).

Both chi_y sums take [t^d] exp(sum_j l_j p_j t^j) one way, in `_chi_y`: it is
the sum over the partitions lam of d of prod_(j in lam) l_j / prod m_j!
times prod_(j in lam) p_j, m_j the multiplicity of j in lam.  So the moments,
the point weights times prod_(j in lam) p_j, are summed over the fixed points
once, and only the l_j change with y0.  The sums at y0 = 0..d must be
integers, and so must the coefficients of the polynomial in y through them,
found by Lagrange interpolation.  With d = k - 4, Y's middle Hodge row is
h^(p,d-p) = (-1)^(d-p) (chi^p - (-1)^p b_2p) off the middle and (-1)^p chi^p
at it, b_2p the Betti numbers of the derived P(Y).

None of these routes reads a structure constant, a Catalan weight or the
chi_y coordinate v of `chern`, so they check `chern` and the derived P(Y)
from outside.  The cases marked `slow` run the same checks over the widest
ranges, with `-m slow`.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest

from conftest import valid_pairs
from pgpairs.chern import chi_y_ci, euler_characteristic_ci
from pgpairs.pairs import chi_o_y, derive_poincare_y, make_pair, poincare_x
from pgpairs.schubert import ENGINES


def _weights(n):
    return [1000 * (2 ** (i + 1) - 1) for i in range(n)]


def _elementary(roots, top):
    """[e_0, ..., e_top] of the roots: the coefficients of prod(1 + t r)."""
    e = [1] + [0] * top
    for r in roots:
        for d in range(top, 0, -1):
            e[d] += r * e[d - 1]
    return e


def _fixed_points(n):
    """(tangent weights, h) at each fixed point J = {i, j} of Gr(2,n)."""
    w = _weights(n)
    return [
        ([w[l] - w[j] for j in J for l in range(n) if l not in J], -sum(w[j] for j in J))
        for J in combinations(range(n), 2)
    ]


def localized_euler(n):
    """[e(X_k) for k = 0..2(n-2)], X_k = Gr(2,n) cut by k hyperplanes, by
    Atiyah-Bott; a sum that is not an integer fails."""
    dim = 2 * (n - 2)
    points = [(_elementary(roots, dim), h, prod(roots)) for roots, h in _fixed_points(n)]
    out = []
    for k in range(dim + 1):
        d = dim - k
        # [t^m] (1 + t h)^(-k) = (-1)^m C(k + m - 1, m) h^m, and 1 at m = 0
        binom = [1] + [(-1) ** m * comb(k + m - 1, m) for m in range(1, d + 1)]
        total = Fraction(0)
        for e, h, euler_t in points:
            top = sum(e[d - m] * binom[m] * h**m for m in range(d + 1))
            total += Fraction(h**k * top, euler_t)
        assert total.denominator == 1, (n, k, total)
        out.append(total.numerator)
    return out


def _log_q(y, top):
    """[l_0, l_1, ..., l_top] with log(Q(x)/(1 + y)) = sum l_j x^j at y != -1,
    in Fractions."""
    # (1 - e^-x)/x = sum (-1)^j x^j/(j + 1)!, and td(x) is its inverse
    series = [Fraction((-1) ** j, factorial(j + 1)) for j in range(top + 1)]
    td = [Fraction(1)]
    for m in range(1, top + 1):
        td.append(-sum(series[i] * td[m - i] for i in range(1, m + 1)))
    q = [(t + y * (-1) ** j * t) / (1 + y) for j, t in enumerate(td)]
    # g = log q with q_0 = 1: q' = g' q, so j g_j = j q_j - sum_(i < j) i g_i q_(j-i)
    log = [Fraction(0)]
    for j in range(1, top + 1):
        log.append((j * q[j] - sum(i * log[i] * q[j - i] for i in range(1, j))) / j)
    return log


def _interpolate(values):
    """The coefficients, lowest first, of the polynomial of degree below
    len(values) that takes values[y] at y = 0, 1, ..., by Lagrange."""
    out = [Fraction(0)] * len(values)
    for i, v in enumerate(values):
        basis, scale = [1], v
        for j in range(len(values)):
            if j != i:
                # basis * (y - j)
                basis = [a - j * b for a, b in zip([0] + basis, basis + [0])]
                scale /= i - j
        for d, c in enumerate(basis):
            out[d] += scale * c
    return out


def _partitions(d, largest=None):
    """The partitions of d, each a tuple of parts, largest part first."""
    if d == 0:
        return [()]
    top = d if largest is None else min(d, largest)
    return [(j, *rest) for j in range(top, 0, -1) for rest in _partitions(d - j, j)]


def _chi_y(points, d, where):
    """chi_y as [chi(O), chi(Omega^1), ...] of length d + 1 from the fixed
    points, each a (weight, p): the point's factor outside the exp and p[j]
    the j-th power sum of its virtual tangent weights.  Atiyah-Bott at
    y = 0..d and Lagrange interpolation; a sum or a coefficient that is not
    an integer fails, named by `where`."""
    # [t^d] exp(sum_j l_j p_j t^j) over the partitions of d, as in the module
    # docstring: each fixed point is visited once, for every y0
    parts = _partitions(d)
    moments = [Fraction(0)] * len(parts)
    for weight, p in points:
        for i, lam in enumerate(parts):
            moments[i] += weight * prod(p[j] for j in lam)
    values = []
    for y in range(d + 1):
        log = _log_q(Fraction(y), d)
        total = sum(
            moment * prod(log[j] for j in lam) / prod(factorial(lam.count(j)) for j in set(lam))
            for lam, moment in zip(parts, moments)
        )
        total *= (1 + y) ** d
        assert total.denominator == 1, (*where, y, total)
        values.append(total)
    coefficients = _interpolate(values)
    assert all(c.denominator == 1 for c in coefficients), (*where, coefficients)
    return [c.numerator for c in coefficients]


def localized_chi_y(n):
    """[chi_y(X_k) for k = 0..2(n-2)], each as its coefficient list
    [chi(O), chi(Omega^1), ...] of length dim X_k + 1, by Atiyah-Bott; a sum
    or a coefficient that is not an integer fails."""
    top = 2 * (n - 2)
    fixed = [([sum(r**j for r in roots) for j in range(top + 1)], h, prod(roots)) for roots, h in _fixed_points(n)]
    out = []
    for k in range(top + 1):
        d = top - k
        points = [(Fraction(h**k, euler_t), [p[j] - k * h**j for j in range(d + 1)]) for p, h, euler_t in fixed]
        out.append(_chi_y(points, d, (n, k)))
    return out


def _dual_fixed_points(n, k):
    """(tangent weights of M, weights of E) at each fixed point (i, J) of
    M = P^(k-1) x Gr(3,n)."""
    w = _weights(n)
    a = [0] + [3 * 2**i - 1 for i in range(k - 1)]
    for J in combinations(range(n), 3):
        rest = [l for l in range(n) if l not in J]
        grass = [w[l] - w[j] for j in J for l in rest]
        sums = [w[j] + w[l] for j in J for l in rest] + [w[j] + w[i] for j, i in combinations(J, 2)]
        for i in range(k):
            yield [a[l] - a[i] for l in range(k) if l != i] + grass, [-v - a[i] for v in sums]


def localized_euler_y(n, k):
    """e(Y) of the pair (n, k), n odd, by Atiyah-Bott on P^(k-1) x Gr(3,n);
    a sum that is not an integer fails."""
    d = k - 4
    total = Fraction(0)
    for roots, bundle in _dual_fixed_points(n, k):
        # [t^0..t^d] of prod_E 1/(1 + t e): divide by each (1 + t e) in turn
        inverse = [1] + [0] * d
        for e in bundle:
            for m in range(1, d + 1):
                inverse[m] -= e * inverse[m - 1]
        c = _elementary(roots, d)
        top = sum(c[d - m] * inverse[m] for m in range(d + 1))
        total += Fraction(top * prod(bundle), prod(roots))
    assert total.denominator == 1, (n, k, total)
    return total.numerator


def localized_chi_y_y(n, k):
    """chi_y(Y) of the pair (n, k), n odd, as [chi(O), chi(Omega^1), ...] of
    length k - 3, by Atiyah-Bott on P^(k-1) x Gr(3,n); a sum or a coefficient
    that is not an integer fails."""
    d = k - 4
    points = []
    for roots, bundle in _dual_fixed_points(n, k):
        p = [sum(r**j for r in roots) - sum(e**j for e in bundle) for j in range(d + 1)]
        points.append((Fraction(prod(bundle), prod(roots)), p))
    return _chi_y(points, d, (n, k))


def odd_pairs(n_min, n_max):
    """Every pair (n, k) with odd n in n_min..n_max that `make_pair` accepts."""
    return [p for p in valid_pairs(n_min, n_max, 2 * (n_max - 2)) if p.n % 2]


def check_chi_y_y(pair):
    """Y's middle Hodge row from localized_chi_y_y and the derived P(Y), after
    checking chi_y(Y) at y = 0 against chi_o_y, at y = -1 against e(Y), and
    the row against b_mid(Y)."""
    p_y = derive_poincare_y(pair, poincare_x(pair.n, pair.k))
    chi, d = localized_chi_y_y(pair.n, pair.k), pair.dim_y
    assert chi[0] == chi_o_y(pair.n, pair.k), (pair.n, pair.k, chi[0])
    assert len(chi) == d + 1 and sum((-1) ** p * c for p, c in enumerate(chi)) == p_y.evaluate(-1), (pair.n, pair.k)
    row = [
        (-1) ** p * c if 2 * p == d else (-1) ** (d - p) * (c - (-1) ** p * p_y.coefficient(2 * p))
        for p, c in enumerate(chi)
    ]
    assert min(row) >= 0 and sum(row) == p_y.coefficient(d), (pair.n, pair.k, row)
    return row


def check_chi_y_y_range(n_min, n_max):
    for pair in odd_pairs(n_min, n_max):
        check_chi_y_y(pair)


def check_range(n_min, n_max):
    for n in range(n_min, n_max + 1):
        for k, euler in enumerate(localized_euler(n)):
            for engine in ENGINES:
                assert euler_characteristic_ci(n, k, engine) == euler, (n, k, engine)


def check_chi_y_range(n_min, n_max):
    for n in range(n_min, n_max + 1):
        for k, chi_y in enumerate(localized_chi_y(n)):
            assert chi_y_ci(n, k) == chi_y, (n, k)


def check_euler_y_range(n_min, n_max):
    for pair in odd_pairs(n_min, n_max):
        derived = derive_poincare_y(pair, poincare_x(pair.n, pair.k)).evaluate(-1)
        assert localized_euler_y(pair.n, pair.k) == derived, (pair.n, pair.k)


def test_localized_euler_of_small_grassmannians():
    # e(Gr(2,n)) counts the C(n,2) fixed points.  Gr(2,4) is a quadric in
    # P^5, so its sections are quadrics of dimension 3, 2 (P^1 x P^1) and 1
    # (a conic), and then its 2 points; Gr(2,5) cut down to a curve is an
    # elliptic quintic, and to points its degree 5
    assert [localized_euler(n)[0] for n in range(4, 9)] == [comb(n, 2) for n in range(4, 9)]
    assert localized_euler(4) == [6, 4, 4, 2, 2]
    assert localized_euler(5)[5:] == [0, 5]


@pytest.mark.parametrize("n", range(4, 19))
def test_euler_characteristic_matches_localization(n):
    # every k, past the smooth bound, under both engines
    check_range(n, n)


def test_localized_chi_y_of_known_sections():
    # Gr(2,4) is a quadric 4-fold: chi(Omega^p) = (-1)^p h^(p,p) = (-1)^p;
    # the section of Gr(2,7) by 7 hyperplanes is a Calabi-Yau threefold with
    # h^(1,1) = 1 and h^(1,2) = 50, and chi_y at y = -1 is the Euler
    # characteristic
    assert localized_chi_y(4)[0] == [1, -1, 2, -1, 1]
    assert localized_chi_y(7)[7] == [0, 49, -49, 0]
    for n in (4, 5, 6):
        for chi_y, euler in zip(localized_chi_y(n), localized_euler(n)):
            assert sum(c * (-1) ** p for p, c in enumerate(chi_y)) == euler


@pytest.mark.parametrize("n", [*range(4, 10), *(pytest.param(n, marks=pytest.mark.slow) for n in (10, 11, 12))])
def test_chi_y_matches_localization(n):
    # every k, past the smooth bound
    check_chi_y_range(n, n)


def test_localized_euler_of_the_pfaffian_calabi_yau():
    # the dual of the (7,7) section is Rodland's Pfaffian Calabi-Yau
    # threefold, h^(1,1) = 1 and h^(1,2) = 50; the dual of (5,4) is the
    # 5 points of a zero-dimensional linear section of the Pfaffian
    assert localized_euler_y(7, 7) == -98
    assert localized_euler_y(5, 4) == 5


@pytest.mark.parametrize("n", [5, 7, 9, 11, pytest.param(13, marks=pytest.mark.slow)])
def test_euler_of_y_matches_localization(n):
    # every pair with odd n <= 11, 24 of them, and the 7 with n = 13
    assert len(odd_pairs(n, n)) == {5: 3, 7: 7, 9: 7, 11: 7, 13: 7}[n]
    check_euler_y_range(n, n)


def test_localized_middle_row_of_the_pfaffian_calabi_yau():
    # h^(1,2) = 50 of Rodland's threefold, and the dual of (7,8), a fourfold
    # with h^(2,2) = 99 in its middle row and no h^(4,0)
    assert check_chi_y_y(make_pair(7, 7)) == [1, 50, 50, 1]
    assert check_chi_y_y(make_pair(7, 8)) == [0, 13, 99, 13, 0]


@pytest.mark.parametrize("n", [5, 7, 9, *(pytest.param(n, marks=pytest.mark.slow) for n in (11, 13))])
def test_chi_y_of_y_matches_the_derived_betti_numbers(n):
    # every pair with odd n <= 9, 17 of them, and the 14 with n = 11, 13,
    # chi(O_Y) included
    check_chi_y_y_range(n, n)

