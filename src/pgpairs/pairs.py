"""Pair bookkeeping for linear sections of Gr(2,n) and their Pfaffian duals.

A pair (n, k) fixes X = Gr(2,n) cut by k general hyperplanes and the dual
section Y of the Pfaffian hypersurface/locus.  The classes [X] and [Y] are not
polynomials in the Lefschetz class, so they never appear as LPoly values: the
cut-and-paste relation

    [X] L^(k-1) + [P^(k-2)] [Gr(2,n)]  =  [Y] L^s + [P^(k-1)] [H(2,n)]

is verified and solved at the level of Poincare polynomials, where every step
is an exactness assertion.  The module also carries the classical smooth
hypersurface oracle and chi(O_Y) from Y's free resolution (both on projective
space, sharing no code with the Schubert engine) as the anti-self-confirmation
cross-checks, and the Noether-Lefschetz catalogue.

The decomposable terms are computed one way, by `_decomposables`: each
coefficient of [P^j] C is the sum of j + 1 consecutive coefficients of C, a
window sum over one prefix-sum pass.  The L-equivalence identity for odd n is
their equality at k = n.

`build_pair_report` is the one route to a pair's invariants: the variable
Betti number, the middle-Betti link and the motivic-equivalence status read
the P(X), T and P(Y) it computes once.  The relation is divided once: the
difference of its decomposable terms divided by t^(2 min(k-1, s)) is the Tate
remainder T (`_tate_remainder`), and P(Y) is solved from P(X) and T.  So the
data flow one way: decomposable terms -> T -> P(Y), the middle-Betti link
decision and the findings.  T says how the two sides differ in Betti numbers:
it decides where the middle-Betti link is checked, and it writes the report's
findings.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, lru_cache
from itertools import accumulate
from math import comb, factorial, prod

# middle_hodge stays importable from here, where perfbench/tracing.py wraps it
from .chern import _middle_row, euler_characteristic_ci, middle_hodge  # noqa: F401
from .errors import (
    InconsistentEuler,
    InvalidParameter,
    NegativeDimension,
    NonExactDivision,
    OutOfSmoothRange,
)
from .ring import LPoly, TPoly
from .schubert import (
    betti,
    grassmannian_class,
    hyperplane_section_class,
    lefschetz_shift,
)

SCHEMA_VERSION = 1

# the checks of a full pair report, in report order
CHECK_NAMES = (
    "fiber_shift",
    "cayley_balance",
    "cayley_palindromic",
    "section_shape",
    "dual_shape",
    "variable_nonneg",
    "middle_betti_link",
    "l_equivalence",
    "chi_euler_match",
    "hodge_consistency",
    "hypersurface_oracle",
)


def _stratum_codim(n: int, rank: int) -> int:
    """Codimension C(n - rank, 2) of the skew n x n forms of rank <= rank, for even rank (Harris-Tu)."""
    return comb(n - rank, 2)


def smooth_bound(n: int) -> int:
    """Largest k for which the dual section avoids the singular Pfaffian locus.

    Y lies on the forms of rank <= 2(n // 2) - 2, and its singular locus is
    the forms of rank <= 2(n // 2) - 4, of codimension C(4, 2) = 6 for even n
    and C(5, 2) = 10 for odd n (`_stratum_codim`).  A general P^(k-1) misses
    a locus of codimension c exactly when k - 1 < c, so the bound is c."""
    return _stratum_codim(n, 2 * (n // 2) - 4)


class PGPair(namedtuple("PGPair", "n k dim_x dim_y s m smooth_range")):
    """Parameters of one Grassmannian/Pfaffian pair, with derived dimensions,
    the twist s, and the shift m = (dim_x - dim_y)/2 = s - k + 1; immutable."""

    __slots__ = ()


def make_pair(n: int, k: int) -> PGPair:
    """The pair (n, k), refused past `smooth_bound(n)`.  Y is P^(k-1) cut with
    the forms of rank <= 2(n // 2) - 2, of codimension C(2, 2) = 1 for even n
    (the Pfaffian hypersurface) and C(3, 2) = 3 for odd n, so
    dim Y = k - 1 - c: k - 2 or k - 4."""
    if k < 1:
        raise InvalidParameter(f"pair ({n},{k}) needs k >= 1")
    dim_x = _section_params(n, k)
    dim_y = k - 1 - _stratum_codim(n, 2 * (n // 2) - 2)
    if dim_y < 0:
        raise NegativeDimension(f"dim Y = {dim_y} for pair ({n},{k})")
    s = lefschetz_shift(n)
    m = (dim_x - dim_y) // 2
    if m != s - k + 1:
        raise InconsistentEuler(f"shift m = {m} of pair ({n},{k}) differs from s - k + 1 = {s - k + 1}")
    return PGPair(n=n, k=k, dim_x=dim_x, dim_y=dim_y, s=s, m=m, smooth_range=True)


# every n and k of a CLI `pair` or `grid` request lies in -MAX_NK..MAX_NK
MAX_NK = 24

# Each memo below holds classes built from its arguments and the class
# constructors of `schubert` and `ring` alone; lefschetz_shift, betti and
# the Euler characteristic, which tests replace by wrong formulas, are read
# by their callers, so no memo serves a value from before the swap.
# [Gr(2,n)] reads `schubert.betti`, not this module's name for it, so a test
# that replaces `schubert.betti` must clear `_ambient` and its users.
#
# The ambient memo is bounded.  A pair report reads it for every k of its n,
# and the CLI names n <= MAX_NK, so MAX_NK entries keep every n of that
# domain.  The DSL's F1(n) and F2(n) reach it for any n up to MAX_ARG = 1000
# (dsl.py), and an unbounded memo would keep the classes of every such n for
# the life of the process.


@lru_cache(maxsize=MAX_NK)
def _ambient(n: int) -> tuple:
    """[Gr(2,n)], the class [H(2,n)] of its smooth hyperplane section, and
    their Poincare polynomials."""
    gr, h = grassmannian_class(n), hyperplane_section_class(n)
    return gr, h, gr.to_poincare(), h.to_poincare()


@cache
def _decomposables(n: int, k: int) -> tuple:
    """The decomposable terms of the two sides of the relation as Poincare
    polynomials, [Gr(2,n)][P^(k-2)] and [H(2,n)][P^(k-1)] for k >= 1.

    [P^j] C = (1 + L + ... + L^j) C has in degree i the window sum of C's
    coefficients in degrees i - j..i: a prefix sum of C minus the same sum
    j + 1 places back, and 0 for j = -1."""

    def times_projective(c: LPoly, j: int) -> TPoly:
        sums = list(accumulate(c.coeffs_dense() + [0] * j))
        return LPoly.from_coeffs([a - b for a, b in zip(sums, [0] * (j + 1) + sums)]).to_poincare()

    gr, h = _ambient(n)[:2]
    return times_projective(gr, k - 2), times_projective(h, k - 1)


def fiber_classes(n: int):
    """Classes of the two fibers of the incidence projection to the dual
    projective space: the smooth hyperplane section off the dual variety, and
    the singular one over it, shifted by L^s."""
    f1 = _ambient(n)[1]
    return f1, f1 + LPoly.monomial(lefschetz_shift(n))


def _section_params(n: int, k: int):
    if n < 4:
        raise InvalidParameter(f"Gr(2,{n}) needs n >= 4")
    if k < 0:
        raise InvalidParameter(f"negative number of hyperplanes: {k}")
    if k > smooth_bound(n):
        raise OutOfSmoothRange(
            f"k = {k} exceeds {smooth_bound(n)}, the smooth bound for n = {n}"
        )
    dim_x = 2 * (n - 2) - k
    if dim_x < 0:
        raise NegativeDimension(f"dim X = {dim_x} for ({n},{k})")
    return dim_x


def poincare_x(n: int, k: int, engine: str = "pieri") -> TPoly:
    """Poincare polynomial of X = Gr(2,n) cut by k general hyperplanes.

    Below the middle the Betti numbers are those of the Grassmannian (weak
    Lefschetz), above they are forced by duality, and the middle one is solved
    from the Euler characteristic.
    """
    d = _section_params(n, k)
    low = [betti(n, j) for j in range(d)]
    chi = euler_characteristic_ci(n, k, engine)
    alt = sum(low[::2]) - sum(low[1::2])
    coeffs = low + [(-1) ** d * (chi - 2 * alt)] + low[::-1]
    defect = _section_defect(n, k, coeffs)
    if defect:
        raise InconsistentEuler(defect)
    return TPoly.from_coeffs(coeffs)


def _section_defect(n: int, k: int, coeffs: list) -> str | None:
    """What is wrong with the coefficients as the Poincare polynomial of
    X = Gr(2,n) cut by k hyperplanes, or None."""
    d = 2 * (n - 2) - k
    mid = coeffs[d]
    if mid < 0:
        return f"middle Betti number {mid} < 0 for ({n},{k})"
    if d % 2 == 1 and mid % 2 == 1:
        return f"odd middle Betti number {mid} in odd dimension {d}"
    if d % 2 == 0 and mid < betti(n, d):
        return f"middle Betti number {mid} below the ambient value {betti(n, d)}"
    # poincare_x builds the coefficients as a palindrome about d, so odd
    # degree j > d mirrors the odd degree 2d - j < d
    if any(coeffs[1:d:2]):
        return f"nonzero odd-degree Betti number below the middle degree {d} of ({n},{k})"
    return None


def cayley_hypersurface_class(pair: PGPair, p_x: TPoly) -> TPoly:
    """Poincare realization of the incidence (1,1)-divisor computed from the
    Grassmannian-side fibration: [Gr][P^(k-2)] + [X] L^(k-1)."""
    if not p_x.is_palindromic(pair.dim_x):
        raise InvalidParameter("poincare_x is not palindromic about dim X")
    return _decomposables(pair.n, pair.k)[0] + p_x.shift(2 * (pair.k - 1))


def cayley_hypersurface_class_dual(pair: PGPair, p_y: TPoly) -> TPoly:
    """The same divisor class computed from the dual-side fibration:
    [P^(k-1)][H] + [Y] L^s."""
    return _decomposables(pair.n, pair.k)[1] + p_y.shift(2 * pair.s)


def derive_poincare_y(pair: PGPair, p_x: TPoly) -> TPoly:
    """Solve the cut-and-paste relation for the Poincare polynomial of Y from
    P(X) and the Tate remainder T of the pair: divided by t^(2 min(k-1, s)),
    the relation reads t^(2b) P(X) - T = t^(2a) P(Y) with a = max(m, 0) and
    b = max(-m, 0), so P(Y) = (t^(2b) P(X) - T) / t^(2a).

    The division must be exact and the result must be a genuine Poincare
    polynomial; any failure signals an inconsistent input rather than being
    repaired.
    """
    if not p_x.is_palindromic(pair.dim_x):
        raise InvalidParameter("poincare_x is not palindromic about dim X")
    return _solve_poincare_y(pair, p_x, _tate_remainder(pair))


def _solve_poincare_y(pair: PGPair, p_x: TPoly, tate: LPoly) -> TPoly:
    """P(Y) from P(X) and the Tate remainder, as in `derive_poincare_y`."""
    twist = 2 * max(pair.m, 0)
    num = (LPoly() + p_x.shift(2 * max(-pair.m, 0)) - tate).coeffs_dense()
    # NegativeCoefficient on a bad relation
    p_y = TPoly.from_coeffs(_divide_by_t(num, twist))
    defect = _dual_defect(pair, p_y)
    if defect:
        raise InconsistentEuler(defect)
    return p_y


def _divide_by_t(coeffs: list, j: int, of: str = "") -> list:
    """The coefficients of a polynomial in t divided by t^j; NonExactDivision
    names the top degree below j that is nonzero, and `of` what was divided."""
    left = [d for d, c in enumerate(coeffs[:j]) if c]
    if left:
        raise NonExactDivision(f"remainder of degree {left[-1]} left by division{of}")
    return coeffs[j:]


def _dual_defect(pair: PGPair, p_y: TPoly) -> str | None:
    """What is wrong with p_y as the Poincare polynomial of the dual Y, or None."""
    if p_y.degree != 2 * pair.dim_y:
        return f"derived dual polynomial has degree {p_y.degree}, expected {2 * pair.dim_y}"
    if not p_y.is_palindromic(pair.dim_y):
        return "derived dual polynomial is not palindromic"
    if pair.dim_y >= 1 and p_y.constant_term != 1:
        # a positive-dimensional dual section is connected
        return f"derived dual polynomial has constant term {p_y.constant_term}"
    return None


def _tate_remainder(pair: PGPair) -> LPoly:
    """T = D / t^(2 min(k-1, s)) as a polynomial in t, where D is the
    difference [P^(k-1)][H(2,n)] - [P^(k-2)][Gr(2,n)] of the relation's
    decomposable terms.  The relation reads L^(k-1) P(X) - L^s P(Y) = D, so
    T = P(X) - t^(2m) P(Y) for m >= 0 and t^(-2m) P(X) - P(Y) for m < 0: in
    Betti numbers one side is the other moved by L^|m| plus T's Tate classes.

    An LPoly, since its coefficients may be negative; they must all have one
    sign."""
    gr, h = _decomposables(pair.n, pair.k)
    d = (LPoly() + h - gr).coeffs_dense()
    twist = 2 * min(pair.k - 1, pair.s)
    of = f" of the decomposable difference of ({pair.n},{pair.k}) by t^{twist}"
    tate = LPoly.from_coeffs(_divide_by_t(d, twist, of))
    coeffs = tate.coeffs_dense()
    if min(coeffs) < 0 < max(coeffs):
        raise InconsistentEuler(f"Tate remainder {coeffs} in t of ({pair.n},{pair.k}) has both signs")
    return tate


def _link_covered(pair: PGPair, tate: LPoly) -> bool:
    """Whether the middle-Betti link, v(X) = b_mid(Y) - 1, follows from the
    relation: T has b_dimX(Gr(2,n)) - 1 classes in the common middle degree,
    since that count is b_mid(X) - b_mid(Y)."""
    return tate.coefficient(max(pair.dim_x, pair.dim_y)) == _ambient(pair.n)[2].coefficient(pair.dim_x) - 1


def check_l_equivalence(n: int) -> bool:
    """The ingredient identity behind L-equivalence of the two sides for
    n = k odd: [P^(n-1)] [H(2,n)] = [P^(n-2)] [Gr(2,n)], the relation's two
    decomposable terms at k = n, each a window sum of its ambient class
    (`_decomposables`)."""
    if n % 2 == 0 or n < 5:
        raise InvalidParameter(f"L-equivalence check needs odd n >= 5, got {n}")
    # past the memo: a report reads (n, n) once, and a sweep over large n
    # would otherwise keep both terms of each n for the life of the process
    gr, h = _decomposables.__wrapped__(n, n)
    return gr == h


def nl_status(n: int, k: int) -> str:
    """Noether-Lefschetz status of the pair: 'satisfied' exactly on the proven
    catalogue (k odd; (2m,4) with m >= 4; (2m+1,6) with m >= 3; (6,6); (7,8)),
    'unknown' otherwise.  Never 'false': failures are not established."""
    if k % 2 == 1:
        return "satisfied"
    if k == 4 and n % 2 == 0 and n >= 8:
        return "satisfied"
    if k == 6 and n % 2 == 1 and n >= 7:
        return "satisfied"
    if (n, k) in ((6, 6), (7, 8)):
        return "satisfied"
    return "unknown"


def transcendental_proxy(k: int) -> str:
    """How a positive variable Betti number justifies nonzero transcendental
    cohomology: unconditionally for odd k, conditionally on the
    Noether-Lefschetz condition for even k."""
    return (
        "unconditional (k odd)"
        if k % 2 == 1
        else "conditional on the Noether-Lefschetz condition (k even)"
    )


def _motivic_status(n: int, k: int, v: int, nl: str) -> str:
    """Applicability of the motivic equivalence between the two sides: 'applies'
    needs k <= 6 or (n,k) = (7,7), Noether-Lefschetz status nl 'satisfied'
    and a positive variable Betti number v (the computable proxy for nonzero
    transcendental cohomology); v = 0 is 'hypothesis_fails'; else 'not_covered'."""
    if v == 0:
        return "hypothesis_fails"
    if (k <= 6 or (n, k) == (7, 7)) and nl == "satisfied":
        return "applies"
    return "not_covered"


def chi_o_y(n: int, k: int) -> int:
    """chi(O_Y) of the pair (n, k) from Y's free resolution on P^N, N = k - 1:
    0 -> O(-n/2) -> O for even n, and the Buchsbaum-Eisenbud complex
    0 -> O(-n) -> O(-r-1)^n -> O(-r)^n -> O for odd n = 2r + 1, with
    chi(P^N, O(j)) = C(N + j, N) read as a polynomial in j.

    Like the hypersurface oracle it reads nothing of the Schubert/Chern path,
    so it checks the chi_y route and the relation from outside.
    """
    if n < 4 or k < 1:
        raise InvalidParameter(f"chi(O_Y) needs n >= 4 and k >= 1, got ({n},{k})")
    dim, r = k - 1, n // 2
    if _stratum_codim(n, 2 * r - 2) == 1:
        twists = [(1, 0), (-1, -r)]
    else:
        twists = [(1, 0), (-n, -r), (n, -r - 1), (-1, -n)]
    # C(N + j, N) = (j + 1) ... (j + N) / N!, a product of N consecutive ints
    return sum(sign * prod(range(j + 1, j + dim + 1)) // factorial(dim) for sign, j in twists)


def hypersurface_poincare_oracle(d: int, ambient_dim: int) -> TPoly:
    """Betti numbers of a smooth degree-d hypersurface in projective space of
    dimension ambient_dim, from the classical Euler-characteristic formula.

    Deliberately shares no code with the Schubert/Chern path: its ambient is
    projective space, and it exists to cross-check the derived dual
    polynomials for even n.
    """
    if d < 1 or ambient_dim < 2:
        raise InvalidParameter(
            f"hypersurface oracle needs d >= 1 and N >= 2, got ({d}, {ambient_dim})"
        )
    dim = ambient_dim - 1
    chi = d * sum(
        comb(ambient_dim + 1, i) * (-d) ** (dim - i) for i in range(dim + 1)
    )
    evens_below = sum(1 for j in range(0, dim, 2))
    mid = (-1) ** dim * (chi - 2 * evens_below)
    if mid < 0 or (dim % 2 == 1 and mid % 2 == 1):
        raise InconsistentEuler(f"impossible middle Betti number {mid}")
    coeffs = [1, 0] * dim + [1]
    coeffs[dim] = mid
    return TPoly.from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# pair reports

_STATUS = {True: "pass", False: "fail", None: "skip"}


def build_pair_report(n: int, k: int, engine: str = "pieri") -> dict:
    """Full verification record for one pair; every named check corresponds to
    one operation of this module.  Raises on invalid (n, k)."""
    pair = make_pair(n, k)
    # each invariant once: P(X) solves its middle Betti number from the one
    # Euler characteristic, so P(X)(-1) is that Euler characteristic, and
    # P(Y) is solved from P(X) and the Tate remainder
    p_x = poincare_x(n, k, engine)
    euler = p_x.evaluate(-1)
    tate = _tate_remainder(pair)
    p_y = _solve_poincare_y(pair, p_x, tate)
    chi_y, row = _middle_row(n, k)
    # X's shape: chi_y and the middle row have dim X + 1 entries, the row is
    # symmetric, and a positive-dimensional X is connected (a zero-dimensional
    # one counts its points)
    connected = pair.dim_x == 0 or p_x.constant_term == 1
    if not (len(chi_y) == len(row) == pair.dim_x + 1 and row == row[::-1] and connected):
        raise InconsistentEuler(
            f"X of ({n},{k}) has dimension {pair.dim_x}, chi_y {chi_y}, middle Hodge row {row} "
            f"and b_0 = {p_x.constant_term}"
        )
    # chi(O_Y) through the relation: Y's classes off its middle degree are
    # powers of L, so h^(0,q)(Y) = 0 for 0 < q < dim Y, and h^(0,dim Y)(Y) is
    # h^(m,dim X - m)(X), zero for m < 0; against Y's free resolution
    h = row[pair.m] if pair.m >= 0 else 0
    chi_o = 1 + (-1) ** pair.dim_y * h if pair.dim_y >= 1 else p_y.constant_term
    resolved = chi_o_y(n, k)
    if chi_o != resolved:
        raise InconsistentEuler(f"chi(O_Y) = {chi_o} from the relation, {resolved} from the resolution")
    b_mid = p_x.coefficient(pair.dim_x)
    # v >= 0: poincare_x has required b_mid >= b_dimX(Gr(2,n)), or b_mid >= 0 = b_dimX for odd dim X.
    # b_dimX(Gr(2,n)) is read from [Gr(2,n)], as `_link_covered` reads it: even degrees only
    v = b_mid - _ambient(n)[2].coefficient(pair.dim_x)
    nl = nl_status(n, k)
    # a middle row zero off its centre makes every middle class a Hodge class,
    # so the v variable ones break Noether-Lefschetz
    centre = pair.dim_x // 2
    if k % 2 == 0 and nl == "satisfied" and v > 0 and not any(row[:centre] + row[centre + 1 :]):
        raise InconsistentEuler(
            f"Noether-Lefschetz status of ({n},{k}) is satisfied, but its middle Hodge row {row} "
            f"makes all {b_mid} middle classes Hodge classes, {v} more than Gr(2,{n}) has"
        )
    f1, f2 = fiber_classes(n)
    # the incidence divisor class, read only by the cayley_* checks
    easy = cayley_hypersurface_class(pair, p_x)
    dim_q = 2 * (n - 2) + k - 2
    chi_alt = sum(c * (-1) ** p for p, c in enumerate(chi_y))

    # each check's outcome: (passed, detail), or (None, why it is skipped)
    outcomes = {
        "fiber_shift": (f2 - f1 == LPoly.monomial(pair.s), f"singular minus smooth fiber class = L^{pair.s}"),
        "cayley_balance": (
            easy == cayley_hypersurface_class_dual(pair, p_y),
            "incidence divisor class agrees between the two fibrations",
        ),
        "cayley_palindromic": (easy.is_palindromic(dim_q), f"incidence divisor class is palindromic about {dim_q}"),
        # poincare_x and derive_poincare_y raise on a section or dual defect
        "section_shape": (True, "section polynomial palindromic, odd degrees vanish off the middle"),
        "dual_shape": (
            True,
            "constant term counts the points of the zero-dimensional dual"
            if pair.dim_y == 0
            else "connected dual: constant and top coefficients 1",
        ),
        "variable_nonneg": (v >= 0, f"variable Betti number {v}"),
        "middle_betti_link": (
            (v == p_y.coefficient(pair.dim_y) - 1, f"{v} = {p_y.coefficient(pair.dim_y)} - 1")
            if _link_covered(pair, tate)
            else (None, "outside the verified (n,k) range")
        ),
        "l_equivalence": (
            (check_l_equivalence(n), "decomposable sides agree") if n % 2 == 1 else (None, "stated for odd n only")
        ),
        "chi_euler_match": (chi_alt == euler, f"chi_y(-1) = {chi_alt}, Gauss-Bonnet = {euler}"),
        "hodge_consistency": (
            sum(row) == b_mid,
            f"middle Hodge numbers sum to b_{pair.dim_x} = {b_mid}",
        ),
        "hypersurface_oracle": (
            (
                p_y == hypersurface_poincare_oracle(n // 2, k - 1),
                f"dual of degree {n // 2} in P^{k - 1} matches the projective oracle",
            )
            if k - 1 - pair.dim_y == 1 and pair.dim_y >= 1
            else (None, "dual is not a positive-dimensional hypersurface in projective space")
        ),
    }
    checks = []
    for name in CHECK_NAMES:
        passed, detail = outcomes[name]
        checks.append({"name": name, "status": _STATUS[passed], "detail": detail})

    findings = []
    # m < 0 and b_mid(Y) > b_mid(X): Y's middle holds Tate classes that X
    # moved by L^|m| does not account for.  T is palindromic about dim Y, so
    # its classes off the middle come in pairs
    unaccounted = -tate.coefficient(pair.dim_y)
    if pair.m < 0 and unaccounted > 0:
        findings.append(
            f"dual of dimension {pair.dim_y}: X moved by L^{-pair.m} plus {-tate.evaluate(1) - unaccounted} "
            f"Tate classes accounts for {p_x.coefficient(pair.dim_x)} classes in degree {pair.dim_y} but the "
            f"derived Poincare polynomial has {p_y.coefficient(pair.dim_y)}; {unaccounted} middle Tate "
            f"class{' is' if unaccounted == 1 else 'es are'} unaccounted for"
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "engine": engine,
        "pair": pair._asdict(),
        "poincare_x": p_x.coeffs_dense(),
        "poincare_y": p_y.coeffs_dense(),
        "variable_betti": v,
        "euler": euler,
        "hodge": {
            "dim": pair.dim_x,
            "euler_char": euler,
            "chi_y": chi_y,
            "middle_betti": sum(row),
            "middle_hodge": row,
        },
        "nl_status": nl,
        "motivic_equivalence": {
            "status": _motivic_status(n, k, v, nl),
            "transcendental_proxy": transcendental_proxy(k),
        },
        "checks": checks,
        "findings": findings,
        "all_checks_pass": all(c["status"] != "fail" for c in checks),
    }
