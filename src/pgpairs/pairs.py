"""Pair bookkeeping for linear sections of Gr(2,n) and their Pfaffian duals.

A pair (n, k) fixes X = Gr(2,n) cut by k general hyperplanes and the dual
section Y of the Pfaffian hypersurface/locus.  The classes [X] and [Y] are not
polynomials in the Lefschetz class, so they never appear as LPoly values: the
cut-and-paste relation

    [X] L^(k-1) + [P^(k-2)] [Gr(2,n)]  =  [Y] L^s + [P^(k-1)] [H(2,n)]

is verified and solved at the level of Poincare polynomials, where every step
is an exactness assertion.  The module also carries the classical smooth
hypersurface oracle (whose ambient is projective space, sharing no code with
the Schubert engine) as the anti-self-confirmation cross-check, and the
Noether-Lefschetz catalogue.

`build_pair_report` is the one route to a pair's invariants: the variable
Betti number, the middle-Betti link and the motivic-equivalence status read
the P(X) and P(Y) it computes once.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, lru_cache
from itertools import zip_longest
from math import comb

# middle_hodge stays importable from here, where perfbench/tracing.py wraps it
from .chern import _middle_row, euler_characteristic_ci, middle_hodge  # noqa: F401
from .errors import (
    InconsistentEuler,
    InvalidParameter,
    NegativeCoefficient,
    NegativeDimension,
    NonExactDivision,
    OutOfSmoothRange,
)
from .ring import LPoly, TPoly, projective_class
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


def smooth_bound(n: int) -> int:
    """Largest k for which the dual section avoids the singular Pfaffian locus."""
    return 6 if n % 2 == 0 else 10


class PGPair(namedtuple("PGPair", "n k dim_x dim_y s m smooth_range")):
    """Parameters of one Grassmannian/Pfaffian pair, with derived dimensions,
    the twist s, and the shift m = (dim_x - dim_y)/2 = s - k + 1; immutable."""

    __slots__ = ()


def make_pair(n: int, k: int) -> PGPair:
    if k < 1:
        raise InvalidParameter(f"pair ({n},{k}) needs k >= 1")
    dim_x = _section_params(n, k)
    dim_y = k - 2 if n % 2 == 0 else k - 4
    if dim_y < 0:
        raise NegativeDimension(f"dim Y = {dim_y} for pair ({n},{k})")
    s = lefschetz_shift(n)
    m = (dim_x - dim_y) // 2
    if m != s - k + 1:
        raise InconsistentEuler(f"shift m = {m} of pair ({n},{k}) differs from s - k + 1 = {s - k + 1}")
    return PGPair(n=n, k=k, dim_x=dim_x, dim_y=dim_y, s=s, m=m, smooth_range=True)


# every n and k of a CLI `pair` or `grid` request lies in -MAX_NK..MAX_NK
MAX_NK = 24

# The memos below are per process and unlocked, so they are not for
# concurrent threads.  Each holds classes built from its arguments and the
# class constructors of `schubert` and `ring` alone; lefschetz_shift, betti
# and the Euler characteristic, which tests replace by wrong formulas, are
# read by their callers, so no memo serves a value from before the swap.
#
# The two ambient memos are bounded.  A pair report reads them for every k of
# its n, and the CLI names n <= MAX_NK, so MAX_NK entries keep every n of that
# domain.  The DSL's F1(n) and F2(n) reach them for any n up to MAX_ARG = 1000
# (dsl.py), and an unbounded memo would keep the classes of every such n for
# the life of the process.


@lru_cache(maxsize=MAX_NK)
def _ambient_classes(n: int) -> tuple:
    """[Gr(2,n)] and the class [H(2,n)] of its smooth hyperplane section."""
    return grassmannian_class(n), hyperplane_section_class(n)


@lru_cache(maxsize=MAX_NK)
def _ambient_poincare(n: int) -> tuple:
    """The Poincare polynomials of Gr(2,n) and H(2,n)."""
    return tuple(c.to_poincare() for c in _ambient_classes(n))


@cache
def _decomposables(n: int, k: int) -> tuple:
    """The decomposable terms of the two sides of the relation as Poincare
    polynomials, [Gr(2,n)][P^(k-2)] and [H(2,n)][P^(k-1)] for k >= 1, each
    from that of k - 1 by [P^j] = [P^(j-1)] + L^j."""
    gr, h = _ambient_poincare(n)
    if k == 1:
        return TPoly(), h
    gr_prev, h_prev = _decomposables(n, k - 1)
    return gr_prev + gr.shift(2 * (k - 2)), h_prev + h.shift(2 * (k - 1))


def fiber_classes(n: int):
    """Classes of the two fibers of the incidence projection to the dual
    projective space: the smooth hyperplane section off the dual variety, and
    the singular one over it, shifted by L^s."""
    f1 = _ambient_classes(n)[1]
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
    defect = _section_defect(n, k, LPoly.from_coeffs(coeffs))
    if defect:
        raise InconsistentEuler(defect)
    return TPoly.from_coeffs(coeffs)


def _section_defect(n: int, k: int, p: LPoly) -> str | None:
    """What is wrong with p as the Poincare polynomial of X = Gr(2,n) cut by
    k hyperplanes, or None."""
    d = 2 * (n - 2) - k
    mid = p.coefficient(d)
    if mid < 0:
        return f"middle Betti number {mid} < 0 for ({n},{k})"
    if d % 2 == 1 and mid % 2 == 1:
        return f"odd middle Betti number {mid} in odd dimension {d}"
    if d % 2 == 0 and mid < betti(n, d):
        return f"middle Betti number {mid} below the ambient value {betti(n, d)}"
    # on a palindrome about d, odd degree j > d mirrors the odd degree 2d - j < d
    if not p.is_palindromic(d) or any(p.coeffs_dense()[1:d:2]):
        return "section polynomial is not palindromic with odd degrees vanishing off the middle"
    return None


def _variable_part(n: int, d: int, p_x: TPoly) -> int:
    v = p_x.coefficient(d) - betti(n, d)
    if v < 0:
        raise NegativeCoefficient(f"variable Betti number {v} of a section of Gr(2,{n}) is negative")
    return v


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
    """Solve the cut-and-paste relation for the Poincare polynomial of Y:
    the incidence divisor class from the Grassmannian side minus the
    dual-side class of an empty Y, [P^(k-1)][H], divided by t^(2s).

    The division must be exact and the result must be a genuine Poincare
    polynomial; any failure signals an inconsistent input rather than being
    repaired.
    """
    return _solve_poincare_y(pair, cayley_hypersurface_class(pair, p_x))


def _solve_poincare_y(pair: PGPair, easy: TPoly) -> TPoly:
    """P(Y) from the Grassmannian-side class `easy` of the incidence
    divisor, as in `derive_poincare_y`."""
    twist = 2 * pair.s
    h = _decomposables(pair.n, pair.k)[1].coeffs_dense()
    num = [a - b for a, b in zip_longest(easy.coeffs_dense(), h, fillvalue=0)]
    below = LPoly.from_coeffs(num[:twist])
    if not below.is_zero():
        raise NonExactDivision(f"remainder of degree {below.degree} left by division")
    # NegativeCoefficient on a bad relation
    p_y = TPoly.from_coeffs(num[twist:])
    defect = _dual_defect(pair, p_y)
    if defect:
        raise InconsistentEuler(defect)
    return p_y


def _dual_defect(pair: PGPair, p_y: TPoly) -> str | None:
    """What is wrong with p_y as the Poincare polynomial of the dual Y, or None."""
    if p_y.degree != 2 * pair.dim_y:
        return f"derived dual polynomial has degree {p_y.degree}, expected {2 * pair.dim_y}"
    if not p_y.is_palindromic(pair.dim_y):
        return "derived dual polynomial is not palindromic"
    if pair.dim_y >= 1 and p_y.constant_term != 1:
        # a positive-dimensional dual section is connected
        return f"derived dual polynomial has constant term {p_y.constant_term}"
    if p_y.constant_term < 1:
        return "derived dual polynomial has empty degree zero"
    return None


def _link_covered(pair: PGPair) -> bool:
    """Whether the middle-Betti link, v(X) = b_mid(Y) - 1, is established for
    the pair: n even with k in {2,4}, n odd with k in {2,4,6}."""
    return (pair.n % 2 == 0 and pair.k in (2, 4)) or (
        pair.n % 2 == 1 and pair.k in (2, 4, 6)
    )


@cache
def check_l_equivalence(n: int) -> bool:
    """The ingredient identity behind L-equivalence of the two sides for
    n = k odd: [P^(n-1)] [H(2,n)] = [P^(n-2)] [Gr(2,n)], checked exactly
    once per n."""
    if n % 2 == 0 or n < 5:
        raise InvalidParameter(f"L-equivalence check needs odd n >= 5, got {n}")
    gr, h = _ambient_classes(n)
    return projective_class(n - 1) * h == projective_class(n - 2) * gr


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
    out = TPoly.from_coeffs(coeffs)
    if not out.is_palindromic(dim):
        raise InconsistentEuler(f"Poincare polynomial {out} of a degree-{d} hypersurface is not palindromic")
    return out


# ---------------------------------------------------------------------------
# pair reports

_STATUS = {True: "pass", False: "fail", None: "skip"}


def build_pair_report(n: int, k: int, engine: str = "pieri") -> dict:
    """Full verification record for one pair; every named check corresponds to
    one operation of this module.  Raises on invalid (n, k)."""
    pair = make_pair(n, k)
    # each invariant once: P(X) solves its middle Betti number from the one
    # Euler characteristic, so P(X)(-1) is that Euler characteristic, and
    # P(Y) is solved from the Grassmannian-side class the checks read
    p_x = poincare_x(n, k, engine)
    euler = p_x.evaluate(-1)
    easy = cayley_hypersurface_class(pair, p_x)
    p_y = _solve_poincare_y(pair, easy)
    chi_y, row = _middle_row(n, k)
    v = _variable_part(n, pair.dim_x, p_x)
    b_mid = p_x.coefficient(pair.dim_x)
    nl = nl_status(n, k)
    f1, f2 = fiber_classes(n)
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
            if _link_covered(pair)
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
            if n % 2 == 0 and pair.dim_y >= 1
            else (None, "dual is not a positive-dimensional hypersurface in projective space")
        ),
    }
    checks = []
    for name in CHECK_NAMES:
        passed, detail = outcomes[name]
        checks.append({"name": name, "status": _STATUS[passed], "detail": detail})

    findings = []
    if (n, k) == (6, 6):
        # bookkeeping of the known decomposition of the dual cubic fourfold:
        # a K3 surface summand shifted by one plus two Tate classes
        stated = p_x.coefficient(2)
        derived = p_y.coefficient(4)
        if stated != derived:
            findings.append(
                "dual cubic fourfold: the K3-plus-two-Tate-classes decomposition "
                f"accounts for {stated} classes in degree 4 but the derived Poincare "
                f"polynomial has {derived}; one middle Tate class is unaccounted for"
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
