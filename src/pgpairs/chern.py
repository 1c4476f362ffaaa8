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
  Chern class c(T) = P/(1 - delta) with P = (1 + sigma_1 + sigma_{1,1})^n and
  delta = u^2 = sigma_1^2 - 4 sigma_{1,1}, built degree by degree from
  products by sigma_1 and sigma_{1,1} alone (`tangent_chern`), and read
  through a degree vector filled by one Pieri step per Schubert cell;
- chi_y, by residue extraction in x1, x2 with no Schubert product and no
  engine: with td(x) = x/(1 - e^-x) and, since td(x) e^-x = td(-x), the
  per-root series Q(x) = x(1 + y e^-x)/(1 - e^-x) = td(x) + y td(-x) at
  integer y, Q(T) = Q(x1)^n Q(x2)^n / (Q(0)^2 Q(u) Q(-u)), the normal factor
  is h/Q(h), summed from the powers of 1 - e^-h, and a class f integrates to -1/2 [x1^(n-1) x2^(n-1)] f u^2; the
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
from .schubert import ChowClass, betti, get_ring

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


def _delta(cls: ChowClass) -> ChowClass:
    """delta * cls, where delta = (x1 - x2)^2 = sigma_1^2 - 4 sigma_{1,1} for the
    Chern roots x1, x2 of S^dual.  End(S) = S^dual (x) S has Chern roots 0, 0
    and +-(x1 - x2).  Applied as sigma_1 (sigma_1 cls) - 4 sigma_{1,1} cls, so
    every product has a one-term factor."""
    s1 = cls.ring.sigma(1)
    return s1 * (s1 * cls) - cls.ring.sigma(1, 1) * cls.scale(4)


def _miller(n: int, j: int, m: int) -> int:
    """The weight of B_j P_(m-j) in m P_m for P = B^n, B = 1 + B_1 + B_2 graded
    (J.C.P. Miller's recurrence; Knuth, TAOCP vol. 2, 4.7)."""
    return (n + 1) * j - m


def _divide_exactly(cls: ChowClass, m: int) -> ChowClass:
    """cls / m for an integral class, which must divide exactly."""
    terms = {}
    for p, v in cls.terms.items():
        q, r = divmod(v, m)
        if r:
            raise InconsistentEuler(f"coefficient {v} of s{p} in a Chern class recurrence is not divisible by {m}")
        terms[p] = q
    return ChowClass(cls.ring, terms)


def tangent_chern(n: int, engine: str = "pieri") -> ChowClass:
    """Total Chern class c(T) of the tangent bundle T = Hom(S, Q) of Gr(2,n).

    In K-theory T = n S^dual - End(S), and c(End S) = 1 - delta, so
    c(T) = P/(1 - delta) with P = c(S^dual)^n = (1 + sigma_1 + sigma_{1,1})^n.
    Both are built degree by degree with products by sigma_1 and sigma_{1,1}
    only.  The degree derivation (d on degree d) gives Miller's recurrence
    m P_m = (n - m + 1) sigma_1 P_(m-1) + (2n - m + 2) sigma_{1,1} P_(m-2),
    divided exactly in integers, and c_d = P_d + delta c_(d-2).  The top
    class must integrate to the Euler characteristic of Gr(2,n), the number
    of Schubert cells.
    """
    ring = get_ring(n, engine)
    s1, s11 = ring.sigma(1), ring.sigma(1, 1)
    # P_m and c_m for m = -1, 0, 1, ... at list index m + 1
    power, chern = [ring.zero(), ring.one()], [ring.zero(), ring.one()]
    for m in range(1, ring.dim + 1):
        acc = s1 * power[m].scale(_miller(n, 1, m)) + s11 * power[m - 1].scale(_miller(n, 2, m))
        power.append(_divide_exactly(acc, m))
        chern.append(power[m + 1] + _delta(chern[m - 1]))
    # the components have distinct degrees
    total = ChowClass(ring, {p: v for c in chern for p, v in c.terms.items()})
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
    """[integral of cls * sigma_1^j for j = 0..dim], from the degree vector
    d(lam) = integral of sigma_lam sigma_1^(dim - |lam|): d(point) = 1, and
    below it d(lam) = sum_nu c_nu d(nu) over sigma_lam sigma_1 = sum c_nu
    sigma_nu, one Pieri step per cell.  Moment j pairs the degree dim - j
    part of cls with d."""
    ring = cls.ring
    deg = {}
    for lam in reversed(ring.basis()):
        deg[lam] = 1 if lam == ring.point else sum(c * deg[nu] for nu, c in ring.product(lam, (1, 0)).items())
    out = [0] * (ring.dim + 1)
    for lam, v in cls.terms.items():
        out[ring.dim - lam[0] - lam[1]] += v * deg[lam]
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


def _one_minus_exp_powers(dim: int) -> tuple:
    """The powers t^1..t^dim of t = 1 - e^-h, truncated at h^dim, as rows of
    integer numerators over one common denominator."""
    top = factorial(dim)
    t_ser = _reduced([0] + [(-1) ** (j + 1) * (top // factorial(j)) for j in range(1, dim + 1)], top)
    pows = [t_ser]
    for _ in range(dim - 1):
        pows.append(_ser_mul(pows[-1], t_ser, dim))
    den = lcm(*(d for _, d in pows))
    return [[x * (den // d) for x in nums] for nums, d in pows], den


def _node_series(y0: int, td: tuple, t_pows: tuple):
    """The root series Q = td(x) + y0 td(-x) and the normal series h/Q(h), from
    the series td(x) = x/(1 - e^-x) and the powers of t = 1 - e^-h.  With
    1 + y0 e^-h = (1 + y0)(1 - y0 t/(1 + y0)), the normal series is
    t/(1 + y0 e^-h) = sum_m y0^m t^(m+1)/(1 + y0)^(m+1), m < dim, so it
    divides by nothing."""
    nums, den = td
    dim = len(nums) - 1
    q_ser = _reduced([c * (1 + (-1) ** j * y0) for j, c in enumerate(nums)], den)
    rows, t_den = t_pows
    out = [0] * (dim + 1)
    for m, row in enumerate(rows[:dim]):
        w = y0**m * (1 + y0) ** (dim - 1 - m)
        for j in range(m + 1, dim + 1):
            out[j] += w * row[j]
    return q_ser, _reduced(out, t_den * (1 + y0) ** dim)


def _chi_node(n: int, y0: int, td: tuple, t_pows: tuple) -> _Pairing:
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
    q_ser, n_ser = _node_series(y0, td, t_pows)
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
    one Todd series td(x) = x/(1 - e^-x) and one list of powers of 1 - e^-h."""
    dim = 2 * (n - 2)
    # (1 - e^-x)/x = sum_j (-1)^j x^j/(j+1)!, over the denominator (dim+1)!
    top = factorial(dim + 1)
    inv_td = ([(-1) ** j * (top // factorial(j + 1)) for j in range(dim + 1)], top)
    td = _ser_div(([1], 1), inv_td, dim)
    t_pows = _one_minus_exp_powers(dim)
    return [_chi_node(n, y0, td, t_pows) for y0 in range(dim + 1)]


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
