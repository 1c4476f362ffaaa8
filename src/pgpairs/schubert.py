"""Schubert calculus on Gr(2,n).

The Chow ring in the basis of Schubert classes sigma_{a,b}, indexed by
partitions (a, b) with n-2 >= a >= b >= 0.  Structure constants of two-row
partitions do not depend on n: H*(Gr(2,n)) is the quotient of the ring of
two-row Schur classes by the sigma_nu with nu_0 > n-2, and that quotient is a
ring map (Fulton, Young Tableaux, 9.4).  So each engine keeps one n-free
table per factor, {lam: sigma_lam * sigma_mu} of `product_rows`, and one
loop, `add_product`, reads it for every product of every ring: it drops each
nu outside the box as it adds up, for `ChowClass` products, for
`ChowRing.product` and for the Chern class recurrences of
`chern.tangent_chern`.  The `pieri` engine writes the product in closed
form: sigma_{a,b} = sigma_{1,1}^b * sigma_{a-b}, and Pieri's rule gives
sigma_p * sigma_q = sum over j = 0..min(p, q) of sigma_{p+q-j, j}, so every
two-row structure constant is 0 or 1.  An independent Littlewood-Richardson
engine, `lr`, is available as a cross-check.  The module also builds the
classes in Z[L] of Gr(2,n), from the Betti numbers of `betti`, and of its
smooth hyperplane sections, by a product formula that reads no Betti number;
the tests hold each against an oracle that shares no code with it.
"""

from __future__ import annotations

from .errors import AmbientMismatch, InvalidParameter
from .ring import LPoly, projective_class

TYPE_CHECKING = False  # no `typing` import at run time
if TYPE_CHECKING:
    from fractions import Fraction

ENGINES = ("pieri", "lr")


def box_partitions(n: int):
    """All partitions (a, b) in the 2 x (n-2) box, sorted by degree then lex."""
    side = n - 2
    # (a, m - a) is a partition in the box exactly when ceil(m/2) <= a <= min(m, side)
    return [(a, m - a) for m in range(2 * side + 1) for a in range((m + 1) // 2, min(m, side) + 1)]


def betti(n: int, j: int) -> int:
    """j-th Betti number of Gr(2,n): the number of partitions of size j/2 in
    the 2 x (n-2) box; zero in odd degrees."""
    if n < 4:
        raise InvalidParameter(f"Gr(2,{n}) needs n >= 4")
    if j % 2 or j < 0:
        return 0
    m = j // 2
    side = n - 2
    # (a, m - a) is a partition in the box exactly when ceil(m/2) <= a <= min(m, side)
    return max(0, min(m, side) - (m + 1) // 2 + 1)


def sum_even_powers(n: int) -> LPoly:
    """1 + L^2 + L^4 + ... with exponents up to n-2."""
    if n < 2:
        raise InvalidParameter(f"sum_even_powers needs n >= 2, got {n}")
    return LPoly.from_coeffs([1, 0] * ((n - 2) // 2) + [1])


def lefschetz_shift(n: int) -> int:
    """The twist s appearing in the dual-side relation: n-2 for even n, n-1 for odd."""
    return n - 2 if n % 2 == 0 else n - 1


def grassmannian_class(n: int) -> LPoly:
    """Class of Gr(2,n) in Z[L]: one cell of dimension 2(n-2) - |partition|
    per partition in the 2 x (n-2) box, so the coefficient of L^d is the
    Betti number b_(2(2(n-2) - d)), read from `betti`."""
    if n < 4:  # for n <= 1 the list below is empty and `betti` is never called
        raise InvalidParameter(f"Gr(2,{n}) needs n >= 4")
    top = 2 * (n - 2)
    return LPoly.from_coeffs([betti(n, 2 * (top - d)) for d in range(top + 1)])


def hyperplane_section_class(n: int) -> LPoly:
    """Class of a smooth hyperplane section of Gr(2,n) in Z[L]:
    [P^(n-3)] (n even) or [P^(n-2)] (n odd) times the even-power sum.  It
    reads no Betti number, unlike [Gr(2,n)] and P(X), so a wrong `betti`
    moves one side of the cut-and-paste relation only, and the relation fails."""
    if n < 4:
        raise InvalidParameter(f"Gr(2,{n}) needs n >= 4")
    base = projective_class(n - 3) if n % 2 == 0 else projective_class(n - 2)
    return base * sum_even_powers(n)


def lr_count(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient for two-row shapes, by enumerating
    the skew fillings of nu/lam with content mu directly.

    Independent of the closed form of the `pieri` engine; used as the second
    engine.
    """
    if nu[0] < lam[0] or nu[1] < lam[1]:
        return 0
    if nu[0] + nu[1] != lam[0] + lam[1] + mu[0] + mu[1]:
        return 0
    len1 = nu[0] - lam[0]
    len2 = nu[1] - lam[1]
    count = 0
    for j1 in range(len1 + 1):  # trailing 2s in row 1
        j2 = mu[1] - j1
        if not 0 <= j2 <= len2:
            continue
        if (len1 - j1) + (len2 - j2) != mu[0]:
            continue
        row1 = [1] * (len1 - j1) + [2] * j1
        row2 = [1] * (len2 - j2) + [2] * j2
        ok = True
        for col in range(lam[0] + 1, nu[1] + 1):  # columns occupied in both rows
            if row2[col - lam[1] - 1] <= row1[col - lam[0] - 1]:
                ok = False
                break
        if ok:  # ballot condition on the reverse reading word
            ones = twos = 0
            for x in row1[::-1] + row2[::-1]:
                if x == 1:
                    ones += 1
                else:
                    twos += 1
                    if twos > ones:
                        ok = False
                        break
        if ok:
            count += 1
    return count


def _product_pieri(lam, mu) -> dict:
    # sigma_{a,b} = sigma_{1,1}^b sigma_{a-b}, and Pieri gives sigma_p sigma_q
    # = sum over j = 0..min(p, q) of sigma_{p+q-j, j}: every coefficient is 1
    (a, b), (c, d) = lam, mu
    p, q, s = a - b, c - d, b + d
    return {(p + q - j + s, j + s): 1 for j in range(min(p, q) + 1)}


def _product_lr(lam, mu) -> dict:
    # c^nu_{lam,mu} = c^nu_{mu,lam}: fill with the content of the factor with
    # fewer boxes, as the fillings number far fewer
    if mu[0] + mu[1] > lam[0] + lam[1]:
        lam, mu = mu, lam
    # a nonzero coefficient needs lam, mu inside nu and nu[0] <= lam[0] + mu[0]:
    # in a lattice filling of nu/lam with content mu the first row holds only 1s
    total = lam[0] + lam[1] + mu[0] + mu[1]
    low = max(lam[0], mu[0], (total + 1) // 2)
    high = min(lam[0] + mu[0], total - max(lam[1], mu[1]))
    out = {}
    for a2 in range(low, high + 1):
        nu = (a2, total - a2)
        c = lr_count(lam, mu, nu)
        if c:
            out[nu] = c
    return out


class _Rows(dict):
    """{lam: row} for every two-row partition lam, each row computed by
    `row(lam)` on first use and kept."""

    __slots__ = ("row",)

    def __init__(self, row):
        super().__init__()
        self.row = row

    def __missing__(self, lam):
        out = self[lam] = self.row(lam)
        return out


def product_rows(engine: str, mu) -> _Rows:
    """The engine's n-free table {lam: sigma_lam * sigma_mu as {nu:
    coefficient}} for every two-row partition lam, with no box: the same for
    every n, filled on first use and kept for the life of the process."""
    rows = _PRODUCTS.get((engine, mu))
    if rows is None:
        if engine not in ENGINES:
            raise InvalidParameter(f"unknown engine {engine!r}")
        product = _product_pieri if engine == "pieri" else _product_lr
        rows = _PRODUCTS[engine, mu] = _Rows(lambda lam: product(lam, mu))
    return rows


def add_product(engine: str, mu, terms: dict, side: int, weight=1, acc: dict | None = None) -> dict:
    """acc + weight * sigma_mu * terms for terms {lam: coefficient}, read off
    the engine's table `product_rows(engine, mu)`, with each nu, nu_0 > side
    dropped as it adds: the image in H*(Gr(2, side + 2)).  The quotient is a
    ring map, so a product may be cut before it is multiplied further."""
    acc = {} if acc is None else acc
    rows = product_rows(engine, mu)
    for lam, v in terms.items():
        v *= weight
        for nu, c in rows[lam].items():
            if nu[0] <= side:
                acc[nu] = acc.get(nu, 0) + v * c
    return acc


class ChowRing:
    """The Chow ring of Gr(2,n) under one engine.  It holds no table: its
    products read the engine's n-free tables of `product_rows`, shared by
    the rings of every n in one process, with no locking, so not for
    concurrent threads.
    """

    def __init__(self, n: int, engine: str = "pieri"):
        if n < 4:
            raise InvalidParameter(f"Gr(2,{n}) needs n >= 4")
        if engine not in ENGINES:
            raise InvalidParameter(f"unknown engine {engine!r}")
        self.n = n
        self.engine = engine
        self.max_col = n - 2
        self.dim = 2 * (n - 2)
        self.point = (self.max_col, self.max_col)
        self._basis = tuple(box_partitions(n))
        self._cells = {p: p for p in self._basis}

    def _cell(self, p) -> tuple:
        """p as a partition (a, b) in the 2 x (n-2) box; anything else is an
        InvalidParameter."""
        try:
            return self._cells[p]
        except (KeyError, TypeError):
            raise InvalidParameter(f"{p!r} is not a partition in the 2 x {self.max_col} box") from None

    # -- class constructors ------------------------------------------------

    def sigma(self, a: int, b: int = 0) -> "ChowClass":
        return ChowClass(self, {(a, b): 1})

    def one(self) -> "ChowClass":
        return self.sigma(0, 0)

    def zero(self) -> "ChowClass":
        return ChowClass(self, {})

    def basis(self) -> tuple:
        """The partitions of the 2 x (n-2) box, sorted by degree then lex."""
        return self._basis

    # -- structure constants ------------------------------------------------

    def product(self, lam, mu) -> dict:
        """Structure constants sigma_lam * sigma_mu as {nu: coefficient}: the
        engine's two-row product with every nu outside the box dropped."""
        lam, mu = self._cell(lam), self._cell(mu)
        return add_product(self.engine, mu, {lam: 1}, self.max_col)


def _exact(v):
    """An int stays an int, an integral Fraction becomes one and any other
    Fraction stays; anything else is an InvalidParameter, as for `LPoly`
    coefficients.  Only a coefficient that is not an int imports `fractions`."""
    if type(v) is int:
        return v
    from fractions import Fraction

    if not isinstance(v, Fraction):
        raise InvalidParameter(f"coefficient {v!r} must be an int or a Fraction")
    return v.numerator if v.denominator == 1 else v


class ChowClass:
    """Graded rational linear combination of Schubert classes of one Gr(2,n).

    Integral coefficients are stored as ints and the others as Fractions, so
    products of integral classes run on ints alone.  Every term must be a
    partition in the 2 x (n-2) box.  Immutable; products drop every class
    outside the box, which is the ring structure rather than an error.  Two
    classes are equal when their n, engine and terms are.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ChowRing, terms: dict):
        self.ring = ring
        self.terms = {}
        for p, v in terms.items():
            p = ring._cell(p)
            if c := _exact(v):
                self.terms[p] = c

    def _check(self, other: "ChowClass"):
        if self.ring.n != other.ring.n or self.ring.engine != other.ring.engine:
            raise AmbientMismatch(
                f"Gr(2,{self.ring.n})/{self.ring.engine} vs Gr(2,{other.ring.n})/{other.ring.engine}"
            )

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        out = dict(self.terms)
        for p, v in other.terms.items():
            out[p] = out.get(p, 0) + v
        return ChowClass(self.ring, out)

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        out = dict(self.terms)
        for p, v in other.terms.items():
            out[p] = out.get(p, 0) - v
        return ChowClass(self.ring, out)

    def __neg__(self) -> "ChowClass":
        return ChowClass(self.ring, {p: -v for p, v in self.terms.items()})

    def scale(self, c) -> "ChowClass":
        c = _exact(c)
        return ChowClass(self.ring, {p: v * c for p, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, ChowClass):
            return self.scale(other)
        self._check(other)
        out = {}
        for mu, v in other.terms.items():
            add_product(self.ring.engine, mu, self.terms, self.ring.max_col, v, out)
        return ChowClass(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ChowClass":
        if k < 0:
            raise InvalidParameter("negative powers are not defined")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def component(self, degree: int) -> "ChowClass":
        return ChowClass(self.ring, {p: v for p, v in self.terms.items() if p[0] + p[1] == degree})

    def coefficient(self, part) -> int | Fraction:
        return self.terms.get(tuple(part), 0)

    def integrate(self) -> int | Fraction:
        """Degree pairing against the point class sigma_{n-2,n-2}."""
        return self.terms.get(self.ring.point, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowClass)
            and self.ring.n == other.ring.n
            and self.ring.engine == other.ring.engine
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring.n, self.ring.engine, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for p in sorted(self.terms, key=lambda q: (q[0] + q[1], q)):
            v = self.terms[p]
            head = "" if v == 1 else f"{v}*"
            bits.append(f"{head}s{p}")
        return " + ".join(bits)


# The engines' product tables, (engine, mu) -> `product_rows(engine, mu)`:
# per process and unlocked, so not for concurrent threads.
_PRODUCTS: dict = {}

