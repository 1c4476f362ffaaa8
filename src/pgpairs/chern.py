"""Characteristic-class calculus on Gr(2,n).

The tangent bundle T = Hom(S, Q) and three invariants of a linear section
X = Gr(2,n) cut by k general hyperplanes: the topological Euler
characteristic, the chi_y genus, and the middle Hodge numbers.  Everything is
exact: classes keep integral coefficients as ints, and chi_y is an integer
polynomial in y from the start, packed into one int.

T enters only through the K-theory identity T = n S^dual - End(S), where
End(S) = S^dual (x) S has Chern roots 0, 0, +-u with u = x1 - x2, x1 and x2
the Chern roots of S^dual.  Each invariant takes its own route from there:

- Euler characteristic, on the Schubert ring of the chosen engine: the total
  Chern class c(T) = P/(1 - delta) with P = (1 + sigma_1 + sigma_{1,1})^n and
  delta = u^2 = sigma_1^2 - 4 sigma_{1,1}, built degree by degree from
  products by sigma_1 and sigma_{1,1} alone, each read off the engine's
  n-free rows by `schubert.add_product` (`tangent_chern`), read through
  the degree vector of the Schubert cells in closed form, and paired with
  the k-th power of the normal series sigma_1/(1 + sigma_1);
- chi_y, with no Schubert product and no engine.  With the root series
  Q(x) = x(1 + y e^-x)/(1 - e^-x), chi_y(X) is the integral over Gr(2,n) of
  Q(x1)^n Q(x2)^n / (Q(0)^2 Q(u) Q(-u)) times N(h)^k, N(h) = h/Q(h) for
  h = x1 + x2, where a class f integrates to -1/2 [x1^(n-1) x2^(n-1)] f u^2.
  Take v = x/Q(x) = (1 - e^-x)/(1 + y e^-x) as the coordinate on each root
  (Hirzebruch's chi_y formal group law).  Three exact identities follow:
  (i) dv/dx = (1 - v)(1 + y v)/(1 + y), so Q(x)^n dx/x^n =
  (1 + y) dv/(v^n (1 - v)(1 + y v)), and the (1 + y)^2 of the two roots
  cancels Q(0)^2; (ii) h/Q(h) = F = (v1 + v2 + (y - 1) v1 v2)/(1 + y v1 v2);
  (iii) u^2/(Q(u) Q(-u)) = (v1 - v2)^2/P3 with
  P3 = (1 + (y - 1) v1 - y v1 v2)(1 + (y - 1) v2 - y v1 v2).  So in v1, v2
  the integral keeps its form -1/2 [v1^(n-1) v2^(n-1)] (...) (v1 - v2)^2,
  which is again the integral over Gr(2,n) with e1 = v1 + v2 read as sigma_1
  and e2 = v1 v2 as sigma_{1,1}:
      chi_y(X) = integral of F^k/den,  F = (e1 + (y - 1) e2)/(1 + y e2),
      den = (1 - e1 + e2)(1 + y e1 + y^2 e2) P3,
      P3 = (1 - y e2)^2 + (y - 1)(1 - y e2) e1 + (y - 1)^2 e2,
  with integral e1^a e2^b = deg Gr(2, n - b) = Catalan(n - 2 - b) for
  a + 2b = dim Gr(2,n).  Every factor of den has constant term 1, so each
  coefficient is an integer polynomial in y, and `_chi_polys` finds all of
  them by one recurrence that divides nothing.  It runs on each polynomial
  in y as one int, its value at y = 2^B (Kronecker substitution), with a
  digit width B proved by the same recurrence on L1 norms;
- middle Hodge numbers: solved from the chi_y coefficients, with the
  off-middle Hodge numbers forced by Lefschetz to be those of Gr(2,n).

Euler and chi_y share only the identity for T, and v is degenerate at
y = -1, where chi_y is only read off the polynomial, so their agreement
there is a real check.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import comb

from .errors import InconsistentEuler, InvalidParameter, NonIntegralGenus
from .schubert import ChowClass, ChowRing, add_product, betti

# ---------------------------------------------------------------------------
# the total Chern class of the tangent bundle, from T = n S^dual - End(S)


def _miller(n: int, j: int, m: int) -> int:
    """The weight of a_j b_(m-j) in m a_0 b_m for b = a^n (J.C.P. Miller's
    recurrence; Knuth, TAOCP vol. 2, 4.7), run by `tangent_chern` on a
    graded class."""
    return (n + 1) * j - m


def _divide_exactly(cls: dict, m: int) -> dict:
    """cls / m for an integral graded class, which must divide exactly."""
    terms = {}
    for p, v in cls.items():
        q, r = divmod(v, m)
        if r:
            raise InconsistentEuler(f"coefficient {v} of s{p} in a Chern class recurrence is not divisible by {m}")
        terms[p] = q
    return terms


def tangent_chern(n: int, engine: str = "pieri") -> ChowClass:
    """Total Chern class c(T) of the tangent bundle T = Hom(S, Q) of Gr(2,n).

    In K-theory T = n S^dual - End(S), and c(End S) = 1 - delta, so
    c(T) = P/(1 - delta) with P = c(S^dual)^n = (1 + sigma_1 + sigma_{1,1})^n.
    Both are built degree by degree with products by sigma_1 and sigma_{1,1}
    only, on graded {partition: int} classes by `schubert.add_product`,
    which reads the engine's n-free rows and drops every term outside the
    2 x (n-2) box as the recurrences run (a ring map, so nothing else
    changes).  The degree derivation (d on degree d) gives Miller's
    recurrence
    m P_m = (n - m + 1) sigma_1 P_(m-1) + (2n - m + 2) sigma_{1,1} P_(m-2),
    divided exactly in integers, and c_d = P_d + delta c_(d-2) with
    delta c = sigma_1 (sigma_1 c) - 4 sigma_{1,1} c.  The top class must
    integrate to the Euler characteristic of Gr(2,n), the number of
    Schubert cells.
    """
    ring = ChowRing(n, engine)
    side = ring.max_col
    # P_m and c_m for m = -1, 0, 1, ... at list index m + 1
    power, chern = [{}, {(0, 0): 1}], [{}, {(0, 0): 1}]
    for m in range(1, ring.dim + 1):
        acc = add_product(engine, (1, 0), power[m], side, _miller(n, 1, m))
        add_product(engine, (1, 1), power[m - 1], side, _miller(n, 2, m), acc)
        power.append(_divide_exactly(acc, m))
        # c_m = P_m + delta c_(m-2) with delta c = sigma_1 (sigma_1 c) - 4 sigma_{1,1} c
        s1c = add_product(engine, (1, 0), chern[m - 1], side)
        acc = add_product(engine, (1, 0), s1c, side, 1, dict(power[m + 1]))
        chern.append(add_product(engine, (1, 1), chern[m - 1], side, -4, acc))
    # the components have distinct degrees
    total = ChowClass(ring, {p: v for c in chern for p, v in c.items()})
    if total.integrate() != len(ring.basis()):
        raise InconsistentEuler(f"c_top(T) of Gr(2,{n}) does not integrate to the number of Schubert cells")
    return total


# ---------------------------------------------------------------------------
# invariants of a linear section X = Gr(2,n) cut by k general hyperplanes


def _sigma1_moments(cls: ChowClass) -> list:
    """[integral of cls * sigma_1^j for j = 0..dim], from the degree vector
    d(a, b) = integral of sigma_(a,b) sigma_1^(dim - a - b): the number of
    standard tableaux of the complementary shape (p, q) = (c - b, c - a),
    c = n - 2, which is the ballot number C(p + q, q) - C(p + q, q - 1).
    Moment j pairs the degree dim - j part of cls with d."""
    ring = cls.ring
    out = [0] * (ring.dim + 1)
    for (a, b), v in cls.terms.items():
        p, q = ring.max_col - b, ring.max_col - a
        degree = comb(p + q, q) - comb(p + q, q - 1) if q else 1
        out[ring.dim - a - b] += v * degree
    return out


@cache
def _euler_pairing(n: int, engine: str) -> list:
    """The sigma_1 moments of c(T) on the Schubert ring of `engine`, which
    `euler_characteristic_ci` pairs with the k-th power of the normal series
    sigma_1/(1 + sigma_1)."""
    return _sigma1_moments(tangent_chern(n, engine))


# The chi_y integrand in e1 = v1 + v2 and e2 = v1 v2: each factor of den as
# {(a, b): coefficients of y^0, y^1, ... of e1^a e2^b}, constant term 1.
_DEN_FACTORS = (
    {(1, 0): (-1,), (0, 1): (1,)},  # (1 - v1)(1 - v2)
    {(1, 0): (0, 1), (0, 1): (0, 0, 1)},  # (1 + y v1)(1 + y v2)
    {(1, 0): (-1, 1), (0, 1): (1, -4, 1), (1, 1): (0, 1, -1), (0, 2): (0, 0, 1)},  # P3
)


def _top_integrals(n: int) -> list:
    """[integral over Gr(2,n) of sigma_1^(dim - 2b) sigma_{1,1}^b for
    b = 0..dim/2]: sigma_{1,1}^b is Gr(2, n - b), whose degree is the
    Catalan number C(2m, m) - C(2m, m + 1), m = n - 2 - b."""
    return [comb(2 * m, m) - comb(2 * m, m + 1) for m in range(n - 2, -1, -1)]


def _functional(n: int, den: list, lift: int, step: int) -> list:
    """[phi_k(1) for k = 0..dim] of the recurrence in `_chi_polys`, on one
    int per value: each factor of den is a list of ((da, db), c) with c the
    multiplier of psi(e1^da e2^db m), lift the multiplier of psi(e2 m) in
    the division by 1 + y e2, and step that of psi(e2 m) in the F step."""
    dim = 2 * (n - 2)
    phi = [[0] * (dim - 2 * b + 1) for b in range(dim // 2 + 1)]
    for row, value in zip(phi, _top_integrals(n)):
        row[-1] = value
    for factor in den:
        for w in range(dim - 1, -1, -1):
            for b in range(w // 2 + 1):
                a = w - 2 * b
                for (da, db), c in factor:
                    if w + da + 2 * db <= dim:
                        phi[b][a] += c * phi[b + db][a + da]
    out = []
    for k in range(dim + 1):
        out.append(phi[0][0])
        top = dim - k
        for a in range(top + 1):
            for b in range((top - a) // 2 - 1, -1, -1):
                phi[b][a] += lift * phi[b + 1][a]
        for a in range(top):
            for b in range((top - 1 - a) // 2 + 1):
                # psi is 0 above weight top, where the cells are stale
                up = phi[b + 1][a] if a + 2 * b + 2 <= top else 0
                phi[b][a] = phi[b][a + 1] + step * up
    return out


def _digit_width(n: int) -> int:
    """A digit width B for `_chi_polys` with every chi_y coefficient below
    2^(B - 2) in absolute value: the same recurrence on L1 norms in y, with
    each multiplier replaced by its L1 norm (|-c|_1, |-y|_1 = 1 and
    |y - 1|_1 = 2), bounds |phi_k(1)|_1 by the triangle inequality."""
    den = [[(key, sum(map(abs, c))) for key, c in factor.items()] for factor in _DEN_FACTORS]
    return max(_functional(n, den, 1, 2)).bit_length() + 2


@cache
def _chi_polys(n: int) -> list:
    """chi_y of the section of Gr(2,n) by k hyperplanes for k = 0..dim, each
    an int list in y of length dim + 1.

    The integral is run backwards as a functional: phi_k(m) = integral of
    m F^k/den for m = e1^a e2^b, kept as phi[b][a].  F raises the weight
    a + 2b by at least one, so phi_k lives on weights <= dim - k and
    chi_y(X_k) = phi_k(1).  phi_0 starts as the integral, Catalan(n - 2 - b)
    on the top weight, and is divided by each factor f = 1 + sum_t c_t t of
    den: psi(m) = phi(m/f) = phi(m) - sum_t c_t psi(t m), in falling weight.
    Then phi_(k+1)(m) = phi_k(F m) in two passes, psi(m) =
    phi_k(m/(1 + y e2)) = phi_k(m) - y psi(e2 m) and phi_(k+1)(m) =
    psi(e1 m) + (y - 1) psi(e2 m).

    Each value is packed into one int, its value at y = 2^B (Kronecker
    substitution): evaluation is a ring map Z[y] -> Z, so c p becomes C P
    for the packed coefficient tuple C, and y p becomes P << B.  No step
    raises the y-degree by more than the weight, so every value at weight w
    has y-degree at most dim - w and nothing is truncated.  `_digit_width`
    proves each coefficient below 2^(B - 2) in absolute value, so each
    phi_k(1) has exactly one expansion in dim + 1 signed base-2^B digits;
    anything left above them is a NonIntegralGenus."""
    dim = 2 * (n - 2)
    width = _digit_width(n)
    y = 1 << width
    den = [
        [(key, -sum(c_i << (width * i) for i, c_i in enumerate(c))) for key, c in factor.items()]
        for factor in _DEN_FACTORS
    ]
    half, mask = y >> 1, y - 1
    out = []
    for value in _functional(n, den, -y, y - 1):
        digits = []
        for _ in range(dim + 1):
            digit = ((value + half) & mask) - half
            digits.append(digit)
            value = (value - digit) >> width
        if value:
            raise NonIntegralGenus(f"chi_y of a section of Gr(2,{n}) does not fit {dim + 1} digits of {width} bits")
        out.append(digits)
    return out


# Not shared with pairs._section_params: this domain has no smooth bound.
def _validate_section(n: int, k: int):
    if n < 4:
        raise InvalidParameter(f"Gr(2,{n}) needs n >= 4")
    if k < 0 or k > 2 * (n - 2):
        raise InvalidParameter(f"section of Gr(2,{n}) by {k} hyperplanes is empty")


def euler_characteristic_ci(n: int, k: int, engine: str = "pieri") -> int:
    """Topological Euler characteristic of a smooth dimensionally transverse
    intersection of Gr(2,n) with k hyperplanes, by Gauss-Bonnet on the ambient
    Grassmannian: the integral of c(T) N^k for the normal series
    N = sigma_1/(1 + sigma_1), whose k-th power removes k hyperplane normal
    directions.  N^k = sum_(j >= k) C(j - 1, k - 1) (-1)^(j - k) sigma_1^j
    for k >= 1, so the integral is that sum over the sigma_1 moments M_j of
    c(T), and M_0 at k = 0; no power of N is formed."""
    _validate_section(n, k)
    moments = _euler_pairing(n, engine)
    if not k:
        return moments[0]
    return sum(comb(j - 1, k - 1) * (-1) ** (j - k) * moments[j] for j in range(k, len(moments)))


def chi_y_ci(n: int, k: int) -> list:
    """Hirzebruch chi_y genus of the same section, as the integer coefficient
    list [chi(O), chi(Omega^1), ...] of length dim X + 1.  It is computed in
    the coordinate v = x/Q(x) with no Schubert engine; its degree and Serre
    duality are checked here, and `middle_hodge` confirms it against the
    Euler characteristic of the chosen engine."""
    _validate_section(n, k)
    dim = 2 * (n - 2) - k
    coeffs = _chi_polys(n)[k]
    for p in range(len(coeffs) - 1, dim, -1):
        if coeffs[p]:
            raise NonIntegralGenus(f"chi_y has degree {p} above dim X = {dim}")
    out = coeffs[: dim + 1]
    for p, c in enumerate(out):
        if c != (-1) ** dim * out[dim - p]:
            raise NonIntegralGenus(f"chi_y breaks Serre duality: chi^{p} = {c}, chi^{dim - p} = {out[dim - p]}")
    return out


class HodgeSummary(namedtuple("HodgeSummary", "dim euler_char chi_y middle_betti middle_hodge")):
    """Euler characteristic, chi_y genus, and middle-degree Hodge data of a
    smooth linear section; immutable, and checked on construction.  chi_y
    and middle_hodge are stored as tuples, so the lists of a report's
    `hodge` record give the same summary."""

    __slots__ = ()

    def __new__(cls, dim: int, euler_char: int, chi_y, middle_betti: int, middle_hodge):
        chi_y, middle_hodge = tuple(chi_y), tuple(middle_hodge)
        chi_at_minus_one = sum(c * (-1) ** p for p, c in enumerate(chi_y))
        if chi_at_minus_one != euler_char:
            raise InconsistentEuler(f"chi_y(-1) = {chi_at_minus_one} but the Euler characteristic is {euler_char}")
        if tuple(reversed(middle_hodge)) != middle_hodge:
            raise InconsistentEuler("middle Hodge numbers are not symmetric")
        if sum(middle_hodge) != middle_betti:
            raise InconsistentEuler("middle Hodge numbers do not sum to the middle Betti number")
        return super().__new__(cls, dim, euler_char, chi_y, middle_betti, middle_hodge)


def _middle_row(n: int, k: int) -> tuple:
    """(chi_y, middle Hodge row) of the section, both int lists: off-middle
    cohomology is forced by weak/hard Lefschetz to agree with the
    Grassmannian, and the middle row h^{p, dim-p} is solved from the chi_y
    coefficients.  Serre duality of chi_y makes the row symmetric."""
    dim = 2 * (n - 2) - k
    chi_list = chi_y_ci(n, k)
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
    return chi_list, row


def middle_hodge(n: int, k: int, engine: str = "pieri") -> HodgeSummary:
    """Full invariant record for the section: the Euler characteristic of
    the chosen engine, and chi_y with the middle Hodge row of `_middle_row`."""
    _validate_section(n, k)
    euler = euler_characteristic_ci(n, k, engine)
    chi_list, row = _middle_row(n, k)
    return HodgeSummary(
        dim=2 * (n - 2) - k,
        euler_char=euler,
        chi_y=tuple(chi_list),
        middle_betti=sum(row),
        middle_hodge=tuple(row),
    )
