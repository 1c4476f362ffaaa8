"""Characteristic-class calculus on Gr(2,n).

The tangent bundle T = Hom(S, Q) and three invariants of a linear section
X = Gr(2,n) cut by k general hyperplanes: the topological Euler
characteristic, the chi_y genus, and the middle Hodge numbers.  Everything is
exact and runs on integers: a class keeps integral coefficients as ints, a
truncated power series is a list of integer numerators over one positive
denominator, and a Fraction is made only where a value leaves its loop.
Integrality is asserted at the end rather than assumed.

T enters only through the K-theory identity T = n S^dual - End(S), where
End(S) = S^dual (x) S has Chern roots 0, 0, +-u with u = x1 - x2, x1 and x2
the Chern roots of S^dual.  Each invariant takes its own route from there:

- Euler characteristic, on the Schubert ring of the chosen engine: the total
  Chern class c(T) = (1 + sigma_1 + sigma_{1,1})^n (1 + delta + delta^2 + ...)
  with delta = u^2 = sigma_1^2 - 4 sigma_{1,1}, one class built by products
  with a sparse factor (`tangent_chern`);
- chi_y, by residue extraction in x1, x2 with no Schubert product and no
  engine: with td(x) = x/(1 - e^-x) and, since td(x) e^-x = td(-x), the
  per-root series Q(x) = x(1 + y e^-x)/(1 - e^-x) = td(x) + y td(-x) at
  integer y, Q(T) = Q(x1)^n Q(x2)^n / (Q(0)^2 Q(u) Q(-u)), the normal factor
  is h/Q(h), and a class f integrates to -1/2 [x1^(n-1) x2^(n-1)] f u^2; the
  polynomial in y comes back by exact Lagrange interpolation;
- middle Hodge numbers: solved from the chi_y coefficients, with the
  off-middle Hodge numbers forced by Lefschetz to be those of Gr(2,n).

Both section integrands are a class on Gr(2,n) times the k-th power of a
series in sigma_1, one factor per hyperplane normal direction.  So both read
their class once through its sigma_1 moments [integral of cls * sigma_1^j]
and pair them, for each k, with the k-th power of the scalar series.  Euler
and chi_y share only the identity for T and this pairing, and they integrate
by different engines, so their agreement at y = -1 is a real check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm

from .errors import InconsistentEuler, InvalidParameter, NonIntegralGenus
from .schubert import ChowClass, ChowRing, betti, get_ring

# ---------------------------------------------------------------------------
# truncated power series over Q, each one (nums, den): a dense list of ints
# (index = degree) over one positive int, reduced so gcd(den, *nums) == 1


def _reduced(nums: list, den: int) -> tuple:
    if den < 0:
        nums, den = [-x for x in nums], -den
    g = gcd(den, *nums)
    if g > 1:
        nums, den = [x // g for x in nums], den // g
    return nums, den


def _over_one_den(values) -> tuple:
    """Exact rationals (ints or Fractions) as (nums, den) over their least
    common denominator, which leaves them reduced."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _ser_mul(a, b, trunc):
    (an, ad), (bn, bd) = a, b
    out = [0] * (trunc + 1)
    for i, x in enumerate(an[: trunc + 1]):
        if x:
            for j, y in enumerate(bn[: trunc + 1 - i]):
                out[i + j] += x * y
    return _reduced(out, ad * bd)


def _ser_div(a, b, trunc):
    (an, ad), (bn, bd) = a, b
    b0 = bn[0]
    if not b0:
        raise InvalidParameter("series division by a series with zero constant term")
    pw = [b0**e for e in range(trunc + 2)]
    # c[m] = b0^(m+1) [x^m] an/bn, so the recurrence divides by nothing
    c = []
    for m in range(trunc + 1):
        acc = an[m] * pw[m] if m < len(an) else 0
        for j in range(1, min(m, len(bn) - 1) + 1):
            if bn[j]:
                acc -= bn[j] * c[m - j] * pw[j - 1]
        c.append(acc)
    # lift every coefficient to b0^(trunc+1); a/b = (an/bn) (bd/ad)
    return _reduced([x * pw[trunc - m] * bd for m, x in enumerate(c)], pw[trunc + 1] * ad)


# ---------------------------------------------------------------------------
# integration over Gr(2,n) by the Chern roots x1, x2 of S^dual


@cache
def _root_coefficient(a: int, c: int, p: int, q: int) -> int:
    """[x1^p x2^q] (x1 - x2)^a (x1 + x2)^c, an integer."""
    if p < 0 or q < 0 or p + q != a + c:
        return 0
    return sum((-1) ** (a - s) * comb(a, s) * comb(c, p - s) for s in range(max(0, p - c), min(a, p) + 1))


# ---------------------------------------------------------------------------
# the total Chern class of the tangent bundle, from T = n S^dual - End(S)


def _delta(ring: ChowRing) -> ChowClass:
    """delta = (x1 - x2)^2 = sigma_1^2 - 4 sigma_{1,1} for the Chern roots x1, x2
    of S^dual.  End(S) = S^dual (x) S has Chern roots 0, 0 and +-(x1 - x2)."""
    return ring.sigma(1) * ring.sigma(1) - ring.sigma(1, 1).scale(4)


def tangent_chern(n: int, engine: str = "pieri") -> ChowClass:
    """Total Chern class c(T) of the tangent bundle T = Hom(S, Q) of Gr(2,n).

    In K-theory T = n S^dual - End(S), and c(End S) = 1 - delta, so
    c(T) = (1 + sigma_1 + sigma_{1,1})^n (1 + delta + delta^2 + ...); every
    product has a sparse factor.  The top class must integrate to the Euler
    characteristic of Gr(2,n), the number of Schubert cells.
    """
    ring = get_ring(n, engine)
    c_dual_n = (ring.one() + ring.sigma(1) + ring.sigma(1, 1)) ** n
    # c(T) solves c = c_dual_n + delta c; delta has degree 2, so dim/2 rounds reach the top
    delta = _delta(ring)
    total = c_dual_n
    for _ in range(ring.dim // 2):
        total = c_dual_n + delta * total
    if total.integrate() != len(ring.basis()):
        raise InconsistentEuler(f"c_top(T) of Gr(2,{n}) does not integrate to the number of Schubert cells")
    return total


# ---------------------------------------------------------------------------
# invariants of a linear section X = Gr(2,n) cut by k general hyperplanes


class _Pairing:
    """Integrals of cls * F^k for F = sum_j ser[j] sigma_1^j, from the sigma_1
    moments of cls: F^k = sum_j c_j sigma_1^j, so the integral is
    sum_j c_j moments[j].  Moments and series are (nums, den) pairs.  The
    powers of F are kept, and extended only when a larger k asks."""

    def __init__(self, moments: tuple, ser: tuple):
        self.moments = moments
        self.ser = ser
        self.powers = [([1], 1)]

    def value(self, k: int) -> Fraction:
        mn, md = self.moments
        while len(self.powers) <= k:
            self.powers.append(_ser_mul(self.powers[-1], self.ser, len(mn) - 1))
        cn, cd = self.powers[k]
        return Fraction(sum(c * m for c, m in zip(cn, mn)), cd * md)


def _sigma1_moments(cls: ChowClass) -> list:
    """[integral of cls * sigma_1^j for j = 0..dim] by Schubert products."""
    ring = cls.ring
    out, power = [], ring.one()
    for j in range(ring.dim + 1):
        out.append((cls.component(ring.dim - j) * power).integrate())
        power = power * ring.sigma(1)
    return out


# The memos below are per process and unlocked, so they are not for
# concurrent threads.


@cache
def _euler_pairing(n: int, engine: str) -> _Pairing:
    """c(T) on the Schubert ring of `engine`, paired with the series
    sigma_1/(1 + sigma_1) = sigma_1 - sigma_1^2 + ..., whose k-th power
    removes k hyperplane normal directions."""
    dim = 2 * (n - 2)
    lef = [0] + [(-1) ** (j - 1) for j in range(1, dim + 1)]
    return _Pairing(_over_one_den(_sigma1_moments(tangent_chern(n, engine))), (lef, 1))


def _node_series(y0: int, td: tuple):
    """The root series Q = td(x) + y0 td(-x) and the normal series h/Q(h), from
    the series td(x) = x/(1 - e^-x)."""
    nums, den = td
    q_ser = _reduced([c * (1 + (-1) ** j * y0) for j, c in enumerate(nums)], den)
    return q_ser, _ser_div(([0, 1], 1), q_ser, len(nums) - 1)


def _chi_node(n: int, y0: int, td: tuple) -> _Pairing:
    """The chi_y integrand at y = y0 as a pairing.  With u = x1 - x2 and the
    root factor Q of `_node_series`, Q(T) = Q(x1)^n Q(x2)^n / (Q(0)^2 Q(u)
    Q(-u)): the two zero roots of End(S) give Q(0)^2.  Each moment [integral
    of Q(T) sigma_1^c] is one coefficient extraction, a sum over the
    coefficients of Q^n and of the even series 1/(Q(0)^2 Q(u) Q(-u)), and a
    class f integrates to -1/2 [x1^(n-1) x2^(n-1)] f (x1 - x2)^2.  The sums
    run on the integer numerators of the two series, over the one
    denominator -2 pd^2 rd that their denominators pd and rd give.  The
    normal factor per hyperplane is h/Q(h) in h = sigma_1."""
    dim = 2 * (n - 2)
    q_ser, n_ser = _node_series(y0, td)
    q_pow = ([1], 1)
    for _ in range(n):
        q_pow = _ser_mul(q_pow, q_ser, n - 1)
    qn, qd = q_ser
    q_even = _ser_mul(q_ser, ([(-1) ** j * c for j, c in enumerate(qn)], qd), dim)
    r_ser = _ser_div(([qd * qd], qn[0] ** 2), q_even, dim)
    (pn, pd), (rn, rd) = q_pow, r_ser
    moments = [0] * (dim + 1)
    for i in range(n):
        for j in range(n):
            pij = pn[i] * pn[j]
            for c in range(dim - i - j + 1):
                # every term has degree i + j + a + c = dim, which fixes the u-degree a
                a = dim - i - j - c
                if rn[a]:
                    moments[c] += pij * rn[a] * _root_coefficient(a + 2, c, n - 1 - i, n - 1 - j)
    return _Pairing(_reduced(moments, -2 * pd * pd * rd), n_ser)


@cache
def _chi_nodes(n: int) -> list:
    """The chi_y pairings of Gr(2,n) at y = 0..dim, shared by every k, from
    one Todd series td(x) = x/(1 - e^-x)."""
    dim = 2 * (n - 2)
    # (1 - e^-x)/x = sum_j (-1)^j x^j/(j+1)!, over the denominator (dim+1)!
    top = factorial(dim + 1)
    inv_td = ([(-1) ** j * (top // factorial(j + 1)) for j in range(dim + 1)], top)
    td = _ser_div(([1], 1), inv_td, dim)
    return [_chi_node(n, y0, td) for y0 in range(dim + 1)]


# Not shared with pairs._section_params: this domain has no smooth bound.
def _validate_section(n: int, k: int):
    if n < 4:
        raise InvalidParameter(f"Gr(2,{n}) needs n >= 4")
    if k < 0 or k > 2 * (n - 2):
        raise InvalidParameter(f"section of Gr(2,{n}) by {k} hyperplanes is empty")


def euler_characteristic_ci(n: int, k: int, engine: str = "pieri") -> int:
    """Topological Euler characteristic of a smooth dimensionally transverse
    intersection of Gr(2,n) with k hyperplanes, by Gauss-Bonnet on the ambient
    Grassmannian."""
    _validate_section(n, k)
    val = _euler_pairing(n, engine).value(k)
    if val.denominator != 1:
        raise NonIntegralGenus(f"Euler characteristic {val} is not an integer")
    return int(val)


def _interpolate(values) -> list:
    """Exact polynomial through (i, values[i]) for i = 0..m-1, as Fraction
    coefficients.  Newton's forward form p(x) = sum_i Delta^i p(0) C(x, i)
    runs in integers: the values go over their lcm D and difference i is
    scaled by (m-1)!/i!, so every coefficient is an integer over D (m-1)!."""
    m = len(values)
    diffs, den = _over_one_den(values)
    top = factorial(m - 1)
    newton = []
    for i in range(m):
        newton.append(diffs[0] * (top // factorial(i)))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs = [0] * m
    for i in range(m - 1, -1, -1):
        # coeffs <- coeffs*(x - i) + newton[i]
        shifted = [0] + coeffs[:-1]
        coeffs = [s - i * c for s, c in zip(shifted, coeffs)]
        coeffs[0] += newton[i]
    return [Fraction(c, den * top) for c in coeffs]


def chi_y_ci(n: int, k: int) -> list:
    """Hirzebruch chi_y genus of the same section, as the integer coefficient
    list [chi(O), chi(Omega^1), ...] of length dim X + 1.  It is computed by
    residue extraction with no Schubert engine; `middle_hodge` confirms it
    against the Euler characteristic of the chosen engine."""
    _validate_section(n, k)
    dim = 2 * (n - 2) - k
    coeffs = _interpolate([node.value(k) for node in _chi_nodes(n)])
    out = []
    for p, c in enumerate(coeffs):
        if c.denominator != 1:
            raise NonIntegralGenus(f"coefficient of y^{p} is {c}")
        if p > dim and c:
            raise NonIntegralGenus(f"chi_y has degree {p} above dim X = {dim}")
        if p <= dim:
            out.append(int(c))
    return out


@dataclass(frozen=True)
class HodgeSummary:
    """Euler characteristic, chi_y genus, and middle-degree Hodge data of a
    smooth linear section."""

    dim: int
    euler_char: int
    chi_y: tuple
    middle_betti: int
    middle_hodge: tuple

    def __post_init__(self):
        if sum(c * (-1) ** p for p, c in enumerate(self.chi_y)) != self.euler_char:
            raise InconsistentEuler("chi_y(-1) differs from the Euler characteristic")
        if tuple(reversed(self.middle_hodge)) != self.middle_hodge:
            raise InconsistentEuler("middle Hodge numbers are not symmetric")
        if sum(self.middle_hodge) != self.middle_betti:
            raise InconsistentEuler("middle Hodge numbers do not sum to the middle Betti number")


def middle_hodge(n: int, k: int, engine: str = "pieri") -> HodgeSummary:
    """Full invariant record for the section: off-middle cohomology is forced
    by weak/hard Lefschetz to agree with the Grassmannian, and the middle row
    h^{p, dim-p} is solved from the chi_y coefficients."""
    _validate_section(n, k)
    dim = 2 * (n - 2) - k
    euler = euler_characteristic_ci(n, k, engine)
    chi_list = chi_y_ci(n, k)
    if sum(c * (-1) ** p for p, c in enumerate(chi_list)) != euler:
        raise InconsistentEuler(
            f"chi_y(-1) = {sum(c * (-1) ** p for p, c in enumerate(chi_list))} "
            f"but the Euler characteristic is {euler}"
        )
    row = []
    for p in range(dim + 1):
        if 2 * p == dim:
            h = (-1) ** p * chi_list[p]
        else:
            tate = betti(n, 2 * p) if 2 * p < dim else betti(n, 2 * (dim - p))
            h = (-1) ** (dim - p) * (chi_list[p] - (-1) ** p * tate)
        if h < 0:
            raise InconsistentEuler(f"middle Hodge number h^({p},{dim - p}) = {h} < 0")
        row.append(h)
    return HodgeSummary(
        dim=dim,
        euler_char=euler,
        chi_y=tuple(chi_list),
        middle_betti=sum(row),
        middle_hodge=tuple(row),
    )
