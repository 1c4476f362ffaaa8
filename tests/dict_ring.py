"""The dict-backed LPoly and TPoly that pgpairs used before its dense tuples,
kept verbatim as the oracle of tests/test_ring_reference.py.

Each value is a finitely supported map of int to int and every operation
builds a new map, so it shares no arithmetic with `pgpairs.ring`.
"""

from __future__ import annotations

from pgpairs.errors import InvalidParameter, NegativeCoefficient, NonExactDivision


def _clean(coeffs: dict) -> dict:
    out = {}
    for d, v in coeffs.items():
        if type(d) is not int or type(v) is not int:
            raise InvalidParameter(f"exponent {d!r} and coefficient {v!r} must be integers")
        if d < 0:
            raise InvalidParameter("exponents must be nonnegative")
        if v:
            out[d] = v
    return out


class LPoly:
    """Polynomial in one formal variable with exact arbitrary-precision
    integer coefficients.

    Instances are immutable and hashable.
    """

    __slots__ = ("_c",)
    _var = "L"

    def __init__(self, coeffs=None):
        self._c = _clean(coeffs or {})

    @classmethod
    def zero(cls) -> "LPoly":
        return cls()

    @classmethod
    def one(cls) -> "LPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "LPoly":
        return cls({degree: coeff})

    @classmethod
    def from_coeffs(cls, dense) -> "LPoly":
        return cls({d: v for d, v in enumerate(dense)})

    def coefficient(self, degree: int) -> int:
        return self._c.get(degree, 0)

    def coeffs(self) -> dict:
        return dict(self._c)

    def coeffs_dense(self) -> list:
        if not self._c:
            return [0]
        top = max(self._c)
        return [self._c.get(d, 0) for d in range(top + 1)]

    def is_zero(self) -> bool:
        return not self._c

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    @property
    def constant_term(self) -> int:
        return self._c.get(0, 0)

    def __add__(self, other):
        if not isinstance(other, LPoly):
            return NotImplemented
        out = dict(self._c)
        for d, v in other._c.items():
            out[d] = out.get(d, 0) + v
        return type(self)(out)

    def __sub__(self, other):
        if not isinstance(other, LPoly):
            return NotImplemented
        out = dict(self._c)
        for d, v in other._c.items():
            out[d] = out.get(d, 0) - v
        return type(self)(out)

    def __neg__(self) -> "LPoly":
        return type(self)({d: -v for d, v in self._c.items()})

    def __mul__(self, other):
        if type(other) is int:
            return type(self)({d: v * other for d, v in self._c.items()})
        if not isinstance(other, LPoly):
            return NotImplemented
        out = {}
        for d1, v1 in self._c.items():
            for d2, v2 in other._c.items():
                d = d1 + d2
                out[d] = out.get(d, 0) + v1 * v2
        return type(self)(out)

    __rmul__ = __mul__

    def shift(self, j: int) -> "LPoly":
        """Multiply by the degree-j monomial."""
        return type(self)({d + j: v for d, v in self._c.items()})

    def div_exact(self, other: "LPoly") -> "LPoly":
        """Exact division; raises NonExactDivision unless other divides self."""
        if other.is_zero():
            raise InvalidParameter("division by the zero polynomial")
        rem = dict(self._c)
        quot = {}
        db = other.degree
        lb = other._c[db]
        while rem:
            dr = max(rem)
            if dr < db:
                raise NonExactDivision(f"remainder of degree {dr} left by division")
            lead, r = divmod(rem[dr], lb)
            if r:
                raise NonExactDivision(f"leading coefficient {rem[dr]} not divisible by {lb}")
            quot[dr - db] = lead
            for d, v in other._c.items():
                nd = d + dr - db
                nv = rem.get(nd, 0) - lead * v
                if nv:
                    rem[nd] = nv
                else:
                    rem.pop(nd, None)
        return type(self)(quot)

    def evaluate(self, x: int) -> int:
        """Value at an integer: at L = 1 the Euler characteristic of a
        cellular class, at t = -1 that of a Poincare polynomial."""
        return sum(v * x**d for d, v in self._c.items())

    def is_palindromic(self, d: int) -> bool:
        """Poincare duality about complex dimension d: coefficient(j) equals
        coefficient(2d - j) for all j, and nothing lives above degree 2d."""
        if d < 0:
            return self.is_zero()
        # a term above degree 2d mirrors to a negative degree, which self lacks
        return {2 * d - j: v for j, v in self._c.items()} == self._c

    def to_poincare(self) -> "TPoly":
        """Realize a cellular class as its Poincare polynomial, degree j -> t^(2j).

        Raises NegativeCoefficient for virtual classes with a negative
        coefficient, which have no Betti-number interpretation.
        """
        return TPoly({2 * d: v for d, v in self._c.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._c == other._c

    def __hash__(self):
        return hash(tuple(sorted(self._c.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for d in sorted(self._c):
            v = self._c[d]
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

    def __init__(self, coeffs=None):
        super().__init__(coeffs)
        for d, v in self._c.items():
            if v < 0:
                raise NegativeCoefficient(f"coefficient {v} in degree {d}")


def projective_class(n: int) -> LPoly:
    """Class of projective n-space: 1 + L + ... + L^n.

    n = -1 denotes the empty space and gives 0, matching the convention used
    when a relation involves the class of an empty fiber.
    """
    if n < -1:
        raise InvalidParameter(f"projective space of dimension {n}")
    return LPoly({j: 1 for j in range(n + 1)})
