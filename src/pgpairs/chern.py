"""Characteristic-class calculus on Gr(2,n).

The tangent bundle T = Hom(S, Q) and three invariants of a linear section
X = Gr(2,n) cut by k general hyperplanes: the topological Euler
characteristic, the chi_y genus, and the middle Hodge numbers.  Everything is
exact: class coefficients are rationals, series coefficients are rationals,
and integrality is asserted at the end rather than assumed.

T enters only through the K-theory identity T = n S^dual - End(S), where
End(S) = S^dual (x) S has Chern roots 0, 0, +-(x1 - x2) and
delta = (x1 - x2)^2 = sigma_1^2 - 4 sigma_{1,1}.  Each invariant takes its own
route from there:

- Euler characteristic: the total Chern class
  c(T) = (1 + sigma_1 + sigma_{1,1})^n (1 + delta + delta^2 + ...), built by
  products with a sparse factor (`tangent_chern`);
- chi_y: the power sums p_m(T) = n p_m(S^dual) - 2 delta^(m/2) (the delta
  term for even m only) feed the log/exp of the per-root series
  x(1 + y e^-x)/(1 - e^-x), which gives the class T_y(T) at integer y; the
  polynomial in y comes back by exact Lagrange interpolation;
- middle Hodge numbers: solved from the chi_y coefficients, with the
  off-middle Hodge numbers forced by Lefschetz to be those of Gr(2,n).

Both section integrands are a class on Gr(2,n) times the k-th power of a
series in sigma_1, one factor per hyperplane normal direction.  So both read
their class once through its sigma_1 moments [integral of cls * sigma_1^j]
and pair them, for each k, with the k-th power of the scalar series.  Euler
and chi_y share only the identity for T and this pairing, so their agreement
at y = -1 is a real check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import InconsistentEuler, InvalidParameter, NonIntegralGenus
from .schubert import ChowClass, ChowRing, betti, get_ring

# ---------------------------------------------------------------------------
# truncated power series over Q (dense lists of Fractions, index = degree)


def _ser_mul(a, b, trunc):
    out = [Fraction(0)] * (trunc + 1)
    for i, x in enumerate(a):
        if i > trunc or not x:
            continue
        for j, y in enumerate(b):
            if i + j > trunc:
                break
            if y:
                out[i + j] += x * y
    return out

def _ser_div(a, b, trunc):
    if not b[0]:
        raise InvalidParameter("series division by a series with zero constant term")
    out = [Fraction(0)] * (trunc + 1)
    for m in range(trunc + 1):
        acc = a[m] if m < len(a) else Fraction(0)
        for j in range(1, m + 1):
            if j < len(b) and b[j]:
                acc -= b[j] * out[m - j]
        out[m] = acc / b[0]
    return out

def _ser_log(a, trunc):
    # a[0] must be 1; from a = exp(l):  m*a_m = sum_{j<=m} j*l_j*a_{m-j}
    out = [Fraction(0)] * (trunc + 1)
    for m in range(1, trunc + 1):
        acc = m * (a[m] if m < len(a) else Fraction(0))
        for j in range(1, m):
            acc -= j * out[j] * (a[m - j] if m - j < len(a) else Fraction(0))
        out[m] = acc / m
    return out

def _exp_neg(trunc):
    # e^-x
    return [Fraction((-1) ** j, factorial(j)) for j in range(trunc + 1)]


def _chow_exp(arg: ChowClass, ring: ChowRing) -> ChowClass:
    """exp of a class with no degree-zero part, truncated at the ring dimension."""
    out = ring.one()
    cur = ring.one()
    for i in range(1, ring.dim + 1):
        cur = (cur * arg).scale(Fraction(1, i))
        if cur.is_zero():
            break
        out = out + cur
    return out


# ---------------------------------------------------------------------------
# Chern data of the tangent bundle, from T = n S^dual - End(S) in K-theory


@dataclass(frozen=True)
class ChernData:
    """Chern classes c_1..c_rank of a bundle over one Gr(2,n); c_0 = 1 implicit.

    classes[i] is homogeneous of degree i+1; entries above the dimension of
    the ambient ring are omitted since they vanish there.
    """

    ring: ChowRing
    rank: int
    classes: tuple

    def __post_init__(self):
        for i, c in enumerate(self.classes):
            if c.component(i + 1) != c:
                raise InvalidParameter(f"c_{i + 1} is not homogeneous of degree {i + 1}")

    def chern(self, i: int) -> ChowClass:
        if i == 0:
            return self.ring.one()
        if 1 <= i <= len(self.classes):
            return self.classes[i - 1]
        return self.ring.zero()

    def total(self) -> ChowClass:
        out = self.ring.one()
        for c in self.classes:
            out = out + c
        return out


def _delta(ring: ChowRing) -> ChowClass:
    """delta = (x1 - x2)^2 = sigma_1^2 - 4 sigma_{1,1} for the Chern roots x1, x2
    of S^dual.  End(S) = S^dual (x) S has Chern roots 0, 0 and +-(x1 - x2)."""
    return ring.sigma(1) * ring.sigma(1) - ring.sigma(1, 1).scale(4)


def tangent_chern(n: int, engine: str = "pieri") -> ChernData:
    """Chern data of the tangent bundle T = Hom(S, Q) of Gr(2,n).

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
    return ChernData(ring, ring.dim, tuple(total.component(i) for i in range(1, ring.dim + 1)))


def _tangent_power_sums(ring: ChowRing) -> list:
    """Power sums p_0..p_dim of the Chern roots of T, from the same identity:
    p_m(T) = n p_m(S^dual) - p_m(End S), where p_m(S^dual) = sigma_1 p_(m-1) -
    sigma_{1,1} p_(m-2) and p_m(End S) = 2 delta^(m/2) for even m, 0 for odd m."""
    s1, s11 = ring.sigma(1), ring.sigma(1, 1)
    dual = [ring.one().scale(2), s1]
    for m in range(2, ring.dim + 1):
        dual.append(s1 * dual[m - 1] - s11 * dual[m - 2])
    delta = _delta(ring)
    delta_pow = ring.one()
    out = [ring.one().scale(ring.dim)]  # p_0 = rank T
    for m in range(1, ring.dim + 1):
        p = dual[m].scale(ring.n)
        if m % 2 == 0:
            delta_pow = delta_pow * delta
            p = p - delta_pow.scale(2)
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# invariants of a linear section X = Gr(2,n) cut by k general hyperplanes


def _pair(moments, ser, k: int) -> Fraction:
    """Integral of cls * F^k for F = sum_j ser[j] sigma_1^j, from the sigma_1
    moments of cls: F^k = sum_j c_j sigma_1^j, so the integral is sum_j c_j
    moments[j]."""
    power = [Fraction(1)]
    for _ in range(k):
        power = _ser_mul(power, ser, len(moments) - 1)
    return sum(c * m for c, m in zip(power, moments))


class _SectionState:
    """Per-(n, engine) caches shared by the section invariants: the sigma_1
    moments of c(T) and of each chi_y node's class, read once and paired with
    the k-th power of a scalar series for every k.  The caches are per
    process and unlocked, so they are not for concurrent threads."""

    def __init__(self, n: int, engine: str):
        self.ring = get_ring(n, engine)
        dim = self.ring.dim
        tangent = tangent_chern(n, engine)
        self.psums = _tangent_power_sums(self.ring)
        self.sigma1_pows = [self.ring.one()]
        for _ in range(dim):
            self.sigma1_pows.append(self.sigma1_pows[-1] * self.ring.sigma(1))
        self.euler_moments = self._moments(tangent.total())
        # sigma_1/(1 + sigma_1) = sigma_1 - sigma_1^2 + ... : the series whose
        # k-th power removes k hyperplane normal directions from c(T)
        self.euler_ser = [Fraction(0)] + [Fraction((-1) ** (j - 1)) for j in range(1, dim + 1)]
        self.chi_nodes: dict = {}

    def _moments(self, cls: ChowClass) -> list:
        """[integral of cls * sigma_1^j for j = 0..dim]."""
        dim = self.ring.dim
        return [(cls.component(dim - j) * self.sigma1_pows[j]).integrate() for j in range(dim + 1)]

    def euler_value(self, k: int) -> Fraction:
        return _pair(self.euler_moments, self.euler_ser, k)

    def _node(self, y0: int):
        node = self.chi_nodes.get(y0)
        if node is not None:
            return node
        trunc = self.ring.dim
        exp_neg = _exp_neg(trunc)
        # B = (1 - e^-x)/x, so the root factor is x (1 + y e^-x) / (1 - e^-x) = A/B
        a_ser = [Fraction(1 + y0)] + [y0 * c for c in exp_neg[1:]]
        b_ser = [Fraction((-1) ** j, factorial(j + 1)) for j in range(trunc + 1)]
        q_ser = _ser_div(a_ser, b_ser, trunc)
        g_ser = _ser_log([c / (1 + y0) for c in q_ser], trunc)  # log of Q_y/(1+y)
        arg = self.ring.zero()
        for m in range(1, trunc + 1):
            if g_ser[m]:
                arg = arg + self.psums[m].scale(g_ser[m])
        tangent_prod = _chow_exp(arg, self.ring).scale(Fraction(1 + y0) ** self.ring.dim)
        # normal factor per hyperplane: u/Q_y(u) = (1 - e^-u)/(1 + y e^-u)
        n_ser = _ser_div([Fraction(0)] + [-c for c in exp_neg[1:]], a_ser, trunc)
        node = self.chi_nodes[y0] = (self._moments(tangent_prod), n_ser)
        return node

    def chi_value(self, y0: int, k: int) -> Fraction:
        moments, n_ser = self._node(y0)
        return _pair(moments, n_ser, k)


_STATES: dict = {}


def _state(n: int, engine: str) -> _SectionState:
    key = (n, engine)
    st = _STATES.get(key)
    if st is None:
        st = _STATES[key] = _SectionState(n, engine)
    return st


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
    val = _state(n, engine).euler_value(k)
    if val.denominator != 1:
        raise NonIntegralGenus(f"Euler characteristic {val} is not an integer")
    return int(val)


def _interpolate(values) -> list:
    """Exact polynomial through (i, values[i]) for i = 0..m-1, as coefficients."""
    m = len(values)
    dd = [Fraction(v) for v in values]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / j  # x_i - x_{i-j} = j on the integer grid
    coeffs = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        # coeffs <- coeffs*(x - i) + dd[i]
        shifted = [Fraction(0)] + coeffs[:-1]
        coeffs = [s - i * c for s, c in zip(shifted, coeffs)]
        coeffs[0] += dd[i]
    return coeffs


def chi_y_ci(n: int, k: int, engine: str = "pieri") -> list:
    """Hirzebruch chi_y genus of the same section, as the integer coefficient
    list [chi(O), chi(Omega^1), ...] of length dim X + 1."""
    _validate_section(n, k)
    st = _state(n, engine)
    top = st.ring.dim
    dim = top - k
    values = [st.chi_value(y0, k) for y0 in range(top + 1)]
    coeffs = _interpolate(values)
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
    chi_list = chi_y_ci(n, k, engine)
    chi_list = chi_list + [0] * (dim + 1 - len(chi_list))
    euler = euler_characteristic_ci(n, k, engine)
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
