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
point contributes (1 + y0)^(dim X) [t^(dim X)] exp(sum_j l_j t^j (p_j(T) -
k h^j)) h^k / prod r, with p_j the power sums of the tangent weights.  The
sums at y0 = 0..dim X must be integers, and so must the coefficients of the
polynomial in y through them, found by Lagrange interpolation.

Neither route reads a structure constant, a Catalan weight or the chi_y
coordinate v of `chern`, so they check `chern` from outside.

Run as a script, `python tests/test_localization.py N_MIN N_MAX` checks the
Euler characteristic of every k for n in N_MIN..N_MAX under both engines,
and `python tests/test_localization.py N_MIN N_MAX chi_y` checks chi_y of
every k.
"""

import sys
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial, prod

import pytest

from pgpairs.chern import chi_y_ci, euler_characteristic_ci
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


@cache
def localized_chi_y(n):
    """[chi_y(X_k) for k = 0..2(n-2)], each as its coefficient list
    [chi(O), chi(Omega^1), ...] of length dim X_k + 1, by Atiyah-Bott at
    y = 0..dim X_k and Lagrange interpolation; a sum or a coefficient that
    is not an integer fails."""
    top = 2 * (n - 2)
    points = [
        ([sum(r**j for r in roots) for j in range(top + 1)], h, prod(roots)) for roots, h in _fixed_points(n)
    ]
    logs = [_log_q(Fraction(y), top) for y in range(top + 1)]
    out = []
    for k in range(top + 1):
        d = top - k
        values = []
        for y in range(d + 1):
            log = logs[y]
            total = Fraction(0)
            for power_sums, h, euler_t in points:
                s = [log[j] * (power_sums[j] - k * h**j) for j in range(d + 1)]
                # e = exp(s) with s_0 = 0: m e_m = sum_(i <= m) i s_i e_(m-i)
                e = [Fraction(1)]
                for m in range(1, d + 1):
                    e.append(sum(i * s[i] * e[m - i] for i in range(1, m + 1)) / m)
                total += e[d] * Fraction(h**k, euler_t)
            total *= (1 + y) ** d
            assert total.denominator == 1, (n, k, y, total)
            values.append(total)
        coefficients = _interpolate(values)
        assert all(c.denominator == 1 for c in coefficients), (n, k, coefficients)
        out.append([c.numerator for c in coefficients])
    return out


def check_range(n_min, n_max):
    for n in range(n_min, n_max + 1):
        for k, euler in enumerate(localized_euler(n)):
            for engine in ENGINES:
                assert euler_characteristic_ci(n, k, engine) == euler, (n, k, engine)


def check_chi_y_range(n_min, n_max):
    for n in range(n_min, n_max + 1):
        for k, chi_y in enumerate(localized_chi_y(n)):
            assert chi_y_ci(n, k) == chi_y, (n, k)


def test_localized_euler_of_small_grassmannians():
    # e(Gr(2,n)) counts the C(n,2) fixed points.  Gr(2,4) is a quadric in
    # P^5, so its sections are quadrics of dimension 3, 2 (P^1 x P^1) and 1
    # (a conic), and then its 2 points; Gr(2,5) cut down to a curve is an
    # elliptic quintic, and to points its degree 5
    assert [localized_euler(n)[0] for n in range(4, 9)] == [comb(n, 2) for n in range(4, 9)]
    assert localized_euler(4) == [6, 4, 4, 2, 2]
    assert localized_euler(5)[5:] == [0, 5]


@pytest.mark.parametrize("n", range(4, 13))
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


@pytest.mark.parametrize("n", range(4, 9))
def test_chi_y_matches_localization(n):
    # every k, past the smooth bound
    check_chi_y_range(n, n)


if __name__ == "__main__":
    check = {"euler": check_range, "chi_y": check_chi_y_range}[sys.argv[3] if len(sys.argv) > 3 else "euler"]
    check(int(sys.argv[1]), int(sys.argv[2]))
