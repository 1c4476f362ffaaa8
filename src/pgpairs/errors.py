"""Exception hierarchy shared by all pgpairs modules."""


class PGError(Exception):
    """Base class for every error raised by this package."""


class NonExactDivision(PGError):
    """Polynomial division left a nonzero remainder.

    Surfaces a violated class identity: every division performed here is an
    exactness assertion, never a truncation.
    """


class NegativeCoefficient(PGError):
    """A coefficient that must be a Betti number came out negative."""


class InvalidParameter(PGError):
    """An argument is outside the domain of the operation."""


class AmbientMismatch(PGError):
    """Operands live over different ambient Grassmannians."""


class OutOfSmoothRange(PGError):
    """k exceeds the bound keeping the dual section away from the singular
    locus of the Pfaffian: that locus is the skew forms of rank
    2(n // 2) - 4 or less, of codimension C(n - rank, 2), and a general
    P^(k-1) misses it exactly when k is at most that codimension
    (`pairs.smooth_bound`)."""


class NegativeDimension(PGError):
    """The requested section or its dual has negative expected dimension."""


class InconsistentEuler(PGError):
    """Two routes to an invariant disagree, or one gives an impossible value:
    an Euler characteristic that forces an impossible middle Betti number, a
    derived polynomial or Hodge row of the wrong shape (X's middle row
    nonzero outside the window that Y's row is read from), or a
    relation-side value (the Tate remainder, chi(O_Y) and Y's middle Hodge
    row, both read off the one row `pairs._dual_row` derives) that its
    oracle refutes.  The name is kept for callers."""


class NonIntegralGenus(PGError):
    """A genus computation produced an impossible value: a packed chi_y that
    does not fit its proved digits, a chi_y of degree above dim X, or a chi_y
    that breaks Serre duality chi^p = (-1)^dim chi^(dim - p).  Both genera
    are computed in integers, so no route has a non-integer case; the name
    is kept for callers."""


class ParseError(PGError):
    """Source text for the expression DSL failed to parse."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class EvalError(PGError):
    """A well-formed DSL expression failed to evaluate."""

    def __init__(self, message: str, fragment: str = ""):
        super().__init__(f"{message}: {fragment}" if fragment else message)
        self.fragment = fragment
