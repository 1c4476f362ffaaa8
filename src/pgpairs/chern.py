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
  integer y, Q(T) = Q(x1)^n Q(x2)^n / (Q(0)^2 Q(u) Q(-u)), and a class f
  integrates to -1/2 [x1^(n-1) x2^(n-1)] f u^2.  Q^n comes from one pass of
  Miller's recurrence.  The normal factor is N(h) = h/Q(h) = s/(1 - y s)
  with s = t/(1 + y) and t = 1 - e^-h, and 1/Q(u) = N(u)/u, so both come
  from the powers of t and no series is divided per node.  The polynomial
  in y comes back by exact Lagrange interpolation;
- middle Hodge numbers: solved from the chi_y coefficients, with the
  off-middle Hodge numbers forced by Lefschetz to be those of Gr(2,n).

Both section integrands are a class on Gr(2,n) times N^k, one factor
N = s/(1 - w s) per hyperplane normal direction: s = sigma_1 and w = -1 for
Euler, s = t/(1 + y) and w = y for chi_y.  So both read their class once
through its s-moments [integral of cls * s^j] and pair them, for each k, by
the binomial sum N^k = sum_(j >= k) C(j - 1, k - 1) w^(j - k) s^j.  Euler and
chi_y share only the identity for T and this pairing, and they integrate by
different engines, so their agreement at y = -1 is a real check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm

from .errors import InconsistentEuler, InvalidParameter, NonExactDivision, NonIntegralGenus
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


def _miller(n: int, j: int, m: int) -> int:
    """The weight of a_j b_(m-j) in m a_0 b_m for b = a^n (J.C.P. Miller's
    recurrence; Knuth, TAOCP vol. 2, 4.7).  `tangent_chern` runs it on a
    graded class, `_ser_pow` on a series."""
    return (n + 1) * j - m


def _ser_pow(a, n: int, trunc: int):
    """a^n for a series with a nonzero constant term, in one pass of Miller's
    recurrence on the integer numerators: their power is integral, so each
    division by m a_0 must be exact, and a remainder raises."""
    an, ad = a
    out = [an[0] ** n]
    for m in range(1, trunc + 1):
        acc = sum(_miller(n, j, m) * an[j] * out[m - j] for j in range(1, min(m, len(an) - 1) + 1))
        q, r = divmod(acc, m * an[0])
        if r:
            raise NonExactDivision(f"coefficient {m} of a series power is not divisible by {m * an[0]}")
        out.append(q)
    return _reduced(out, ad**n)


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
    """Integrals of cls * N^k for N = s/(1 - w s), s a class of positive
    degree and w an integer, from the s-moments S[j] = integral of cls * s^j:
    N^k = sum_(j >= k) C(j - 1, k - 1) w^(j - k) s^j for k >= 1, so the
    integral is that sum over S, and S[0] at k = 0.  The moments are a
    (nums, den) pair; no power of N is formed."""

    def __init__(self, moments: tuple, w: int):
        self.moments = moments
        self.w = w

    def value(self, k: int) -> Fraction:
        nums, den = self.moments
        if not k:
            return Fraction(nums[0], den)
        return Fraction(sum(comb(j - 1, k - 1) * self.w ** (j - k) * nums[j] for j in range(k, len(nums))), den)


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
    sigma_1/(1 + sigma_1), whose k-th power removes k hyperplane normal
    directions: s = sigma_1 and w = -1."""
    return _Pairing(_over_one_den(_sigma1_moments(tangent_chern(n, engine))), -1)


def _one_minus_exp_powers(dim: int) -> tuple:
    """The powers t^0..t^dim of t = 1 - e^-h, truncated at h^dim, as rows of
    integer numerators over one common denominator."""
    top = factorial(dim)
    t_ser = _reduced([0] + [(-1) ** (j + 1) * (top // factorial(j)) for j in range(1, dim + 1)], top)
    pows = [([1], 1)]
    for _ in range(dim):
        pows.append(_ser_mul(pows[-1], t_ser, dim))
    den = lcm(*(d for _, d in pows))
    return [[x * (den // d) for x in nums] for nums, d in pows], den


def _inverse_root_series(y0: int, t_pows: tuple):
    """1/Q(u) = N(u)/u, truncated at u^dim, from the powers of t = 1 - e^-u
    built to degree dim + 1.  The normal series N(u) = u/Q(u) =
    t/((1 + y0) - y0 t) is s/(1 - y0 s) with s = t/(1 + y0), that is
    sum_(j >= 1) y0^(j-1) t^j/(1 + y0)^j, so it divides by nothing."""
    rows, t_den = t_pows
    top = len(rows) - 1
    out = [0] * top
    for j, row in enumerate(rows[1:], 1):
        w = y0 ** (j - 1) * (1 + y0) ** (top - j)
        for m in range(j - 1, top):
            out[m] += w * row[m + 1]
    return _reduced(out, t_den * (1 + y0) ** top)


def _chi_node(n: int, y0: int, td: tuple, t_pows: tuple) -> _Pairing:
    """The chi_y integrand at y = y0 as a pairing.  With u = x1 - x2 and the
    root series Q = td(x) + y0 td(-x), Q(T) = Q(x1)^n Q(x2)^n / (Q(0)^2 Q(u)
    Q(-u)): the two zero roots of End(S) give Q(0)^2 = (1 + y0)^2.  Q^n
    comes from `_ser_pow`, and r = 1/(Q(0)^2 Q(u) Q(-u)) is one product of
    1/Q(u) = N(u)/u with 1/Q(-u).  Each moment M[c] = integral of Q(T)
    sigma_1^c is one coefficient extraction, a sum over the coefficients of
    Q^n and of the even series r, and a class f integrates to -1/2
    [x1^(n-1) x2^(n-1)] f (x1 - x2)^2.  The normal factor per hyperplane is
    N(h) = s/(1 - y0 s) in h = sigma_1, s = t/(1 + y0), so the pairing takes
    the s-moments S[j] = (1 + y0)^-j sum_c M[c] [h^c] t^j and w = y0."""
    dim = 2 * (n - 2)
    td_nums, td_den = td
    pn, pd = _ser_pow(([c * (1 + (-1) ** j * y0) for j, c in enumerate(td_nums)], td_den), n, n - 1)
    iv, ivd = _inverse_root_series(y0, t_pows)
    rn, rd = _ser_mul((iv, ivd), ([(-1) ** j * c for j, c in enumerate(iv)], ivd), dim)
    moments = [0] * (dim + 1)
    for i in range(n):
        for j in range(i, n):
            # every term has degree i + j + a + c = dim, which fixes c by the
            # u-degree a; r is even, so only even a count, and for even a the
            # root coefficient is symmetric in i and j
            pij = pn[i] * pn[j] * (1 if i == j else 2)
            top = dim - i - j
            for a in range(0, top + 1, 2):
                moments[top - a] += pij * rn[a] * _root_coefficient(a + 2, top - a, n - 1 - i, n - 1 - j)
    rows, t_den = t_pows
    s_moments = []
    for j, row in enumerate(rows[: dim + 1]):
        # t^j starts at h^j
        s_moments.append((1 + y0) ** (dim - j) * sum(m * x for m, x in zip(moments[j:], row[j:])))
    return _Pairing(_reduced(s_moments, -2 * pd * pd * rd * (1 + y0) ** (dim + 2) * t_den), y0)


@cache
def _chi_nodes(n: int) -> list:
    """The chi_y pairings of Gr(2,n) at y = 0..dim, shared by every k, from
    one Todd series td(x) = x/(1 - e^-x) to x^(n-1) and one list of powers
    of 1 - e^-h to degree dim + 1."""
    dim = 2 * (n - 2)
    # (1 - e^-x)/x = sum_j (-1)^j x^j/(j+1)!, over the denominator n!
    top = factorial(n)
    inv_td = ([(-1) ** j * (top // factorial(j + 1)) for j in range(n)], top)
    td = _ser_div(([1], 1), inv_td, n - 1)
    t_pows = _one_minus_exp_powers(dim + 1)
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
