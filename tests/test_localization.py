"""Torus localization: X's Euler characteristic with no Schubert table.

Atiyah-Bott over the C(n,2) fixed points of Gr(2,n) (Ellingsrud-Stromme,
"Bott's formula and enumerative geometry").  With torus weights w_i, the
fixed point J = {i, j} has tangent weights w_l - w_j' (j' in J, l not in J)
and hyperplane class h = -(w_i + w_j).  X = Gr(2,n) cut by k hyperplanes is
the zero locus of a section of O(1)^k, so e(X) is the integral of
c(T) h^k / (1 + h)^k, and the point contributes
h^k [t^(dim X)] prod(1 + t r) (1 + t h)^(-k) / prod r.  The sum is taken
in Fractions and must be an integer.  It reads no structure constant, no
Catalan weight and no chi_y coordinate, so it checks the Euler route of
`chern` from outside.

Run as a script, `python tests/test_localization.py N_MIN N_MAX` checks
every k for n in N_MIN..N_MAX under both engines.
"""

import sys
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest

from pgpairs.chern import euler_characteristic_ci
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


def localized_euler(n):
    """[e(X_k) for k = 0..2(n-2)], X_k = Gr(2,n) cut by k hyperplanes, by
    Atiyah-Bott; a sum that is not an integer fails."""
    w = _weights(n)
    dim = 2 * (n - 2)
    points = []
    for J in combinations(range(n), 2):
        roots = [w[l] - w[j] for j in J for l in range(n) if l not in J]
        points.append((_elementary(roots, dim), -sum(w[j] for j in J), prod(roots)))
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


def check_range(n_min, n_max):
    for n in range(n_min, n_max + 1):
        for k, euler in enumerate(localized_euler(n)):
            for engine in ENGINES:
                assert euler_characteristic_ci(n, k, engine) == euler, (n, k, engine)


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


if __name__ == "__main__":
    check_range(int(sys.argv[1]), int(sys.argv[2]))
