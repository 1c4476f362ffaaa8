"""Exact dense polynomial arithmetic for virtual classes and Poincare polynomials.

LPoly models Z[L], where L is the class of the affine line: sums of classes of
cellular varieties land here, and so do their differences, which is why
negative coefficients are allowed.  A Poincare polynomial in t is a TPoly: an
LPoly checked to be nonnegative.  Every operation is defined once on LPoly and
returns an instance of type(self), so a TPoly result is checked again and a
negative coefficient raises NegativeCoefficient.

A value is one immutable tuple of ints indexed by degree, with no trailing
zero.  Outside input is validated once, by the public constructors (`LPoly`,
`from_coeffs`, `monomial`): exponents are nonnegative ints of at most
MAX_DEGREE and coefficients are ints, so nothing is truncated and no floating
point is used anywhere.  The operations build their results from tuples that
are already valid and only trim them.
"""

from __future__ import annotations

from itertools import zip_longest

from .errors import InvalidParameter, NegativeCoefficient, NonExactDivision

# largest exponent the public constructors accept; see LPoly for why
MAX_DEGREE = 3_000_000


def _dense(coeffs: dict) -> list:
    """The coefficient list of a map degree -> coefficient, after checking
    every term."""
    for d, v in coeffs.items():
        if type(d) is not int or type(v) is not int:
            raise InvalidParameter(f"exponent {d!r} and coefficient {v!r} must be integers")
        if d < 0:
            raise InvalidParameter("exponents must be nonnegative")
        if d > MAX_DEGREE:
            raise InvalidParameter(f"exponent {d} exceeds MAX_DEGREE = {MAX_DEGREE}")
    out = [0] * (max(coeffs, default=-1) + 1)
    for d, v in coeffs.items():
        out[d] = v
    return out


class LPoly:
    """Polynomial in one formal variable with exact arbitrary-precision
    integer coefficients, stored as one tuple indexed by degree.

    `LPoly({degree: coefficient})` (a dict or None, nothing else),
    `from_coeffs` and `monomial` validate their input, once; no operation
    validates again.  They refuse an exponent
    above MAX_DEGREE = 3,000,000 with InvalidParameter, because a sparse
    input such as {10**9: 1} would otherwise allocate gigabytes.  The bound
    is MAX_WORK of `dsl`, and no class the program builds reaches it.  A DSL
    expression is refused once its steps cost more than MAX_WORK units, and
    each step is charged, before it runs, at least the degree of its result:
    a product or quotient (deg a + 1)(deg b + 1), a sum deg a + deg b + 2,
    and a constructor n or n^2 for a class of degree at most 2n; an atom has
    degree 0 or 1.  So every DSL class has degree below MAX_WORK.  The
    classes of a pair in the CLI domain n, k <= 24 have degree below 200.

    Instances are immutable and hashable.  They hold no memo table; the
    product tables of `schubert` and the memos of `chern` and `pairs`, all
    keyed on integers, partitions and engine names, are per process and are
    not for concurrent threads.
    """

    __slots__ = ("_c",)
    _var = "L"

    def __init__(self, coeffs=None):
        if not isinstance(coeffs, (dict, type(None))):
            raise InvalidParameter(f"{type(self).__name__} takes a dict or None, not {type(coeffs).__name__}")
        self._c = self._checked(_dense(coeffs or {}))

    @classmethod
    def _make(cls, c) -> "LPoly":
        """An instance on c, a sequence of ints indexed by degree that needs
        no validation."""
        out = object.__new__(cls)
        out._c = cls._checked(c)
        return out

    @staticmethod
    def _checked(c) -> tuple:
        """c as a tuple with its trailing zeros trimmed."""
        n = len(c)
        while n and not c[n - 1]:
            n -= 1
        return tuple(c) if n == len(c) else tuple(c[:n])

    @classmethod
    def zero(cls) -> "LPoly":
        return cls._make(())

    @classmethod
    def one(cls) -> "LPoly":
        return cls._make((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "LPoly":
        return cls({degree: coeff})

    @classmethod
    def from_coeffs(cls, dense) -> "LPoly":
        """The polynomial whose coefficient of degree d is dense[d]."""
        dense = tuple(dense)
        if len(dense) > MAX_DEGREE + 1:
            raise InvalidParameter(f"exponent {len(dense) - 1} exceeds MAX_DEGREE = {MAX_DEGREE}")
        if not {int}.issuperset(map(type, dense)):
            d, v = next((d, v) for d, v in enumerate(dense) if type(v) is not int)
            raise InvalidParameter(f"exponent {d!r} and coefficient {v!r} must be integers")
        return cls._make(dense)

    def coefficient(self, degree: int) -> int:
        return self._c[degree] if 0 <= degree < len(self._c) else 0

    def coeffs(self) -> dict:
        return {d: v for d, v in enumerate(self._c) if v}

    def coeffs_dense(self) -> list:
        return list(self._c) or [0]

    def is_zero(self) -> bool:
        return not self._c

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self._c) - 1

    @property
    def constant_term(self) -> int:
        return self._c[0] if self._c else 0

    def __add__(self, other):
        if not isinstance(other, LPoly):
            return NotImplemented
        return self._make([x + y for x, y in zip_longest(self._c, other._c, fillvalue=0)])

    def __sub__(self, other):
        if not isinstance(other, LPoly):
            return NotImplemented
        return self._make([x - y for x, y in zip_longest(self._c, other._c, fillvalue=0)])

    def __neg__(self) -> "LPoly":
        return self._make([-v for v in self._c])

    def __mul__(self, other):
        if type(other) is int:
            return self._make([v * other for v in self._c])
        if not isinstance(other, LPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not (a and b):
            return self._make(())
        # the outer loop skips zero terms and the inner one runs over all of
        # b, so the cost is (nonzero terms of a) * len(b)
        if (len(a) - a.count(0)) * len(b) > (len(b) - b.count(0)) * len(a):
            a, b = b, a
        nb = len(b)
        out = [0] * (len(a) + nb - 1)
        for i, x in enumerate(a):
            if x:
                out[i : i + nb] = [o + x * y for o, y in zip(out[i : i + nb], b)]
        return self._make(out)

    __rmul__ = __mul__

    def shift(self, j: int) -> "LPoly":
        """Multiply by the degree-j monomial; a negative j must leave no
        term below degree 0."""
        if j >= 0:
            return self._make((0,) * j + self._c)
        if any(self._c[:-j]):
            raise InvalidParameter("exponents must be nonnegative")
        return self._make(self._c[-j:])

    def div_exact(self, other: "LPoly") -> "LPoly":
        """Exact division; raises NonExactDivision unless other divides self."""
        if other.is_zero():
            raise InvalidParameter("division by the zero polynomial")
        b = other._c
        db, lb = len(b) - 1, b[-1]
        rem = list(self._c)
        quot = [0] * max(len(rem) - db, 0)
        # one step per degree of the dividend, top down; each clears its term
        for dr in range(len(rem) - 1, db - 1, -1):
            v = rem[dr]
            if not v:
                continue
            lead, r = divmod(v, lb)
            if r:
                raise NonExactDivision(f"leading coefficient {v} not divisible by {lb}")
            lo = dr - db
            quot[lo] = lead
            rem[lo : dr + 1] = [x - lead * y for x, y in zip(rem[lo : dr + 1], b)]
        low = LPoly._checked(rem[:db])
        if low:
            raise NonExactDivision(f"remainder of degree {len(low) - 1} left by division")
        return self._make(quot)

    def evaluate(self, x: int) -> int:
        """Value at an integer: at L = 1 the Euler characteristic of a
        cellular class, at t = -1 that of a Poincare polynomial."""
        out = 0
        for v in reversed(self._c):
            out = out * x + v
        return out

    def is_palindromic(self, d: int) -> bool:
        """Poincare duality about complex dimension d: coefficient(j) equals
        coefficient(2d - j) for all j, and nothing lives above degree 2d."""
        if d < 0:
            return self.is_zero()
        pad = 2 * d + 1 - len(self._c)
        if pad < 0:
            return False
        c = self._c + (0,) * pad
        return c == c[::-1]

    def to_poincare(self) -> "TPoly":
        """Realize a cellular class as its Poincare polynomial, degree j -> t^(2j).

        Raises NegativeCoefficient for virtual classes with a negative
        coefficient, which have no Betti-number interpretation.
        """
        out = [0] * (2 * len(self._c) - 1) if self._c else []
        out[::2] = self._c
        return TPoly._make(out)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for d, v in enumerate(self._c):
            if not v:
                continue
            if d == 0:
                parts.append(str(v))
            else:
                head = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                parts.append(f"{head}{self._var}" + (f"^{d}" if d > 1 else ""))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


class TPoly(LPoly):
    """Poincare polynomial: an LPoly in t whose coefficients are nonnegative."""

    __slots__ = ()
    _var = "t"

    @staticmethod
    def _checked(c) -> tuple:
        """c as a tuple with its trailing zeros trimmed; NegativeCoefficient
        names its first negative coefficient by degree."""
        c = LPoly._checked(c)
        if c and min(c) < 0:
            d = next(d for d, v in enumerate(c) if v < 0)
            raise NegativeCoefficient(f"coefficient {c[d]} in degree {d}")
        return c


def projective_class(n: int) -> LPoly:
    """Class of projective n-space: 1 + L + ... + L^n.

    n = -1 denotes the empty space and gives 0, matching the convention used
    when a relation involves the class of an empty fiber.
    """
    if n < -1:
        raise InvalidParameter(f"projective space of dimension {n}")
    return LPoly.from_coeffs([1] * (n + 1))
