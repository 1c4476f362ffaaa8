"""The dense-tuple LPoly and TPoly against the dict-backed oracle in dict_ring.py.

Every public operation of the dense classes is run on both implementations
with the same inputs, and the two must agree on the value and its printing,
or raise the same error with the same message.  Two documented differences:
a NegativeCoefficient from the dense classes names the first negative
coefficient by degree, where the oracle names the first one its map happens
to hold; and the dense `shift` refuses a negative j, which the oracle's
shifts down.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_ring
from pgpairs.errors import InvalidParameter, NegativeCoefficient, NonExactDivision
from pgpairs.ring import LPoly, TPoly, projective_class

# derandomized so that a run is repeatable; no example database is written
checked = settings(max_examples=200, deadline=None, derandomize=True, database=None)

ORACLE = {LPoly: dict_ring.LPoly, TPoly: dict_ring.TPoly}
NEGATIVE = re.compile(r"coefficient (-\d+) in degree (\d+)")


def terms(min_value=-30):
    # zero coefficients are kept, so inputs carry trailing and inner zeros
    return st.dictionaries(st.integers(0, 10), st.integers(min_value, 30), max_size=6)


def build(cls, coeffs: dict):
    return cls(coeffs), ORACLE[cls](coeffs)


def outcome(f, x):
    """("ok", f(x)) or (error type name, message); NegativeCoefficient keeps
    only its type, since its message may name another negative term."""
    try:
        return ("ok", f(x))
    except NegativeCoefficient:
        return ("NegativeCoefficient", None)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (type(exc).__name__, str(exc))


def view(p):
    """Everything public that a value shows, for either implementation."""
    if not hasattr(p, "coeffs_dense"):
        return p
    return (
        type(p).__name__,
        str(p),
        repr(p),
        p.coeffs_dense(),
        p.degree,
        p.constant_term,
        p.is_zero(),
        [p.coefficient(j) for j in range(-2, 24)],
    )


def agree(new, old, op):
    got, want = outcome(op, new), outcome(op, old)
    if got[0] == want[0] == "ok":
        assert view(got[1]) == view(want[1])
    else:
        assert got == want


BINARY = [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a.div_exact(b),
]
UNARY = [
    lambda a: type(a)() - a,
    lambda a: a.to_poincare(),
    *[lambda a, j=j: a.shift(j) for j in (0, 2)],
    *[lambda a, x=x: a.evaluate(x) for x in (-2, -1, 0, 1, 3)],
    *[lambda a, d=d: a.is_palindromic(d) for d in range(-1, 9)],
]


@checked
@given(st.sampled_from([LPoly, TPoly]), st.data())
def test_every_operation_matches_the_dict_oracle(cls, data):
    least = -30 if cls is LPoly else 0
    (a, old_a), (b, old_b) = build(cls, data.draw(terms(least))), build(cls, data.draw(terms(least)))
    assert view(a) == view(old_a)
    for op in BINARY:
        agree((a, b), (old_a, old_b), lambda pair: op(*pair))
    for op in UNARY:
        agree(a, old_a, op)
    with pytest.raises(InvalidParameter, match="^exponents must be nonnegative$"):
        a.shift(-1)
    assert (a == b) == (old_a == old_b)
    assert (a != b) == (old_a != old_b)
    if a == b:
        assert hash(a) == hash(b)


@checked
@given(st.sampled_from([LPoly, TPoly]), st.lists(st.integers(0, 9), max_size=10), st.integers(0, 4))
def test_trailing_zeros_change_neither_equality_nor_hash(cls, dense, zeros):
    padded = cls.from_coeffs(dense + [0] * zeros)
    assert padded == cls.from_coeffs(dense) == cls(dict(enumerate(dense)))
    assert hash(padded) == hash(cls(dict(enumerate(dense + [0] * zeros))))
    assert view(padded) == view(ORACLE[cls].from_coeffs(dense + [0] * zeros))
    assert padded != (LPoly if cls is TPoly else TPoly).from_coeffs(dense)


@checked
@given(terms(0), terms(0))
def test_negative_coefficient_names_the_first_negative_by_degree(a, b):
    diff = (dict_ring.LPoly(a) - dict_ring.LPoly(b)).coeffs()
    if all(v >= 0 for v in diff.values()):
        assert TPoly(a) - TPoly(b) == TPoly(diff)
        return
    with pytest.raises(NegativeCoefficient) as raised:
        TPoly(a) - TPoly(b)
    degree, value = min((d, v) for d, v in diff.items() if v < 0)
    assert NEGATIVE.fullmatch(str(raised.value)).groups() == (str(value), str(degree))
    with pytest.raises(NegativeCoefficient, match=f"^coefficient {value} in degree {degree}$"):
        TPoly(diff)


@pytest.mark.parametrize(
    "a,b,message",
    [
        ([1, 1], [1, 0, 1], "remainder of degree 1 left by division"),
        ([5, 0, 1], [1, 1], "remainder of degree 0 left by division"),
        ([0, 3, 0, 1], [0, 1, 1], "remainder of degree 1 left by division"),
        ([1, 3], [0, 2], "leading coefficient 3 not divisible by 2"),
        ([1, 2, 3, 7], [1, 2, 2], "leading coefficient 7 not divisible by 2"),
    ],
)
def test_both_non_exact_division_messages_match_the_oracle(a, b, message):
    for cls in (LPoly, TPoly):
        for impl in (cls, ORACLE[cls]):
            with pytest.raises(NonExactDivision, match=f"^{message}$"):
                impl.from_coeffs(a).div_exact(impl.from_coeffs(b))


def test_constructors_match_the_oracle():
    for n in range(-1, 12):
        assert view(projective_class(n)) == view(dict_ring.projective_class(n))
    for cls in (LPoly, TPoly):
        old = ORACLE[cls]
        assert view(cls()) == view(old.zero())
        assert view(cls.from_coeffs([1])) == view(old.one())
        assert view(cls.monomial(7)) == view(old.monomial(7))
        assert view(cls({7: 4})) == view(old.monomial(7, 4))
