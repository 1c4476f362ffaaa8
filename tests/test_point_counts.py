"""Point counts over F_q: a brute-force oracle for the cut-and-paste relation.

Counting points over a finite field is a motivic measure, so every class in

    [X] L^(k-1) + [P^(k-2)] [Gr(2,n)]  =  [Y] L^s + [P^(k-1)] [H(2,n)]

must equal a count of the actual geometry at L = q.  The planes of F_q^n are
enumerated as reduced row-echelon 2 x n matrices, a 2-form vanishes on a plane
when it is zero on the plane's two basis rows, and the rank of a skew form
comes from Gaussian elimination mod q.  Nothing here shares code
with the Schubert ring or the LPoly algebra beyond evaluating the classes.

The same ranks count the skew forms of each rank, against MacWilliams'
closed count; its q-degree gives each rank stratum's codimension, which
fixes dim Y and the smooth bound of `pairs` with no code of `pairs`.
"""

import itertools
import random
from math import comb, prod

import pytest

from pgpairs import pairs
from pgpairs.errors import NegativeDimension, OutOfSmoothRange
from pgpairs.pairs import fiber_classes, make_pair, smooth_bound
from pgpairs.ring import projective_class
from pgpairs.schubert import grassmannian_class, hyperplane_section_class, lefschetz_shift


def _planes(n, q):
    """All 2-planes in F_q^n, as their reduced row-echelon bases (r1, r2)
    with pivots i < j."""
    out = []
    for i, j in itertools.combinations(range(n), 2):
        free1 = [c for c in range(i + 1, n) if c != j]
        for tail1 in itertools.product(range(q), repeat=len(free1)):
            r1 = [0] * n
            r1[i] = 1
            for c, x in zip(free1, tail1):
                r1[c] = x
            out.extend((r1, (0,) * j + (1,) + tail2) for tail2 in itertools.product(range(q), repeat=n - 1 - j))
    return out


# a 2-form is a dict {(u, v): w} over u < v of its nonzero coefficients mod q


def _standard_form(rank):
    """e_1 ^ e_2 + e_3 ^ e_4 + ..., of the given even rank."""
    return {(u, u + 1): 1 for u in range(0, rank, 2)}


def _random_form(n, q, rng):
    coeffs = {uv: rng.randrange(q) for uv in itertools.combinations(range(n), 2)}
    return {uv: w for uv, w in coeffs.items() if w}


def _combination(coeffs, forms, q):
    total = {}
    for c, form in zip(coeffs, forms):
        for uv, w in form.items():
            total[uv] = (total.get(uv, 0) + c * w) % q
    return {uv: w for uv, w in total.items() if w}


def _rank(form, n, q):
    m = [[0] * n for _ in range(n)]
    for (u, v), w in form.items():
        m[u][v], m[v][u] = w, -w % q
    rank = 0
    for c in range(n):
        pivot = next((r for r in range(rank, n) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, q)
        m[rank] = [x * inv % q for x in m[rank]]
        for r in range(n):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % q for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _vanishes(form, plane, q):
    """Whether the form is zero on the plane: w(r1, r2) = 0 mod q."""
    r1, r2 = plane
    return sum(w * (r1[u] * r2[v] - r1[v] * r2[u]) for (u, v), w in form.items()) % q == 0


def _isotropic_count(form, planes, q):
    return sum(1 for plane in planes if _vanishes(form, plane, q))


def _projective_points(k, q):
    """One coefficient vector per point of P^(k-1)(F_q): first nonzero entry 1."""
    for vec in itertools.product(range(q), repeat=k):
        if any(vec) and next(c for c in vec if c) == 1:
            yield vec


_FIELDS = [(n, 2) for n in range(4, 9)] + [(n, 3) for n in range(4, 8)]


@pytest.mark.parametrize("n, q", _FIELDS, ids=[f"Gr(2,{n})(F_{q})" for n, q in _FIELDS])
def test_classes_count_the_planes_and_the_fibers(n, q):
    top = n - n % 2  # the maximal rank of a 2-form on F_q^n
    f1, f2 = fiber_classes(n)
    planes = _planes(n, q)
    assert len(planes) == grassmannian_class(n).evaluate(q)
    assert _isotropic_count(_standard_form(top), planes, q) == hyperplane_section_class(n).evaluate(q) == f1.evaluate(q)
    assert _isotropic_count(_standard_form(top - 2), planes, q) == f2.evaluate(q)


def test_singular_fiber_of_gr_2_6_over_f2():
    # H + q^s, not Gr - q^8 = 395
    assert _isotropic_count(_standard_form(4), _planes(6, 2), 2) == fiber_classes(6)[1].evaluate(2) == 331


def _section_counts(n, k, q, seed):
    """#X and #Y over F_q for the span of k seeded random forms, after
    checking that the span has only the two strata of the relation."""
    rng = random.Random(seed)
    basis = [_random_form(n, q, rng) for _ in range(k)]
    top = n - n % 2
    ranks = [_rank(_combination(vec, basis, q), n, q) for vec in _projective_points(k, q)]
    # every nonzero form in the span (so the basis is independent too)
    assert min(ranks) >= top - 2
    x = sum(1 for plane in _planes(n, q) if all(_vanishes(f, plane, q) for f in basis))
    y = sum(1 for r in ranks if r < top)
    return x, y


# (n, k, q, seed): spans whose forms all have rank >= max - 2, and some of
# them rank max - 2, so both strata of the dual side occur
_SPANS = [
    (5, 4, 2, 0), (6, 3, 2, 0), (6, 6, 2, 0), (7, 5, 2, 0), (7, 7, 2, 1), (8, 4, 2, 0), (5, 2, 3, 5), (6, 3, 3, 0),
]


@pytest.mark.parametrize("n, k, q, seed", _SPANS, ids=[f"({n},{k})/F_{q}" for n, k, q, _ in _SPANS])
def test_relation_holds_as_point_counts(n, k, q, seed):
    x, y = _section_counts(n, k, q, seed)
    assert y > 0
    f1, _ = fiber_classes(n)
    gr = grassmannian_class(n).evaluate(q)
    lhs = x * q ** (k - 1) + projective_class(k - 2).evaluate(q) * gr
    rhs = y * q ** lefschetz_shift(n) + projective_class(k - 1).evaluate(q) * f1.evaluate(q)
    assert lhs == rhs


def test_calabi_yau_pair_has_as_many_points_on_each_side():
    # L^6 ([X] - [Y]) = 0 at (7,7), by the relation and the L-equivalence identity
    x, y = _section_counts(7, 7, 2, 1)
    assert x == y > 0


def _rank_counts(n, q):
    """{rank: number of skew n x n forms over F_q of that rank}, ranking every form."""
    counts = {}
    for coeffs in itertools.product(range(q), repeat=comb(n, 2)):
        rank = _rank(dict(zip(itertools.combinations(range(n), 2), coeffs)), n, q)
        counts[rank] = counts.get(rank, 0) + 1
    return counts


def closed_rank_count(n, r, q):
    """MacWilliams' count of the skew n x n forms over F_q of rank 2r:
    q^(r(r-1)) prod_(i < 2r) (q^(n-i) - 1) / prod_(i = 1..r) (q^(2i) - 1)."""
    num = q ** (r * (r - 1)) * prod(q ** (n - i) - 1 for i in range(2 * r))
    den = prod(q ** (2 * i) - 1 for i in range(1, r + 1))
    assert num % den == 0
    return num // den


_BIG_Q = 2**64


def rank_stratum_codim(n, rank):
    """Codimension of the skew n x n forms of rank <= rank (even) among all
    C(n, 2) dimensions of them: C(n, 2) minus the q-degree of the count of
    rank exactly `rank`, the dense part of the stratum.  The count is a
    polynomial in q with leading coefficient 1, so at q = 2^64 it lies
    within a factor 2 of q^degree, and its bit length is 64 degree or one
    more."""
    count = closed_rank_count(n, rank // 2, _BIG_Q)
    degree = count.bit_length() // 64
    assert _BIG_Q**degree // 2 < count < 2 * _BIG_Q**degree
    return comb(n, 2) - degree


def check_dual_strata(n):
    """Y is P^(k-1) cut with the forms of rank <= top - 2, top the largest
    rank, and its singular locus is those of rank <= top - 4: dim Y is k - 1
    minus the first codimension, and a general P^(k-1) misses the second,
    of codimension c, exactly when k <= c.  So `make_pair(n, k)` is refused
    past c or at dim Y < 0, and `smooth_bound(n)` is c."""
    top = 2 * (n // 2)
    c_y, c_sing = rank_stratum_codim(n, top - 2), rank_stratum_codim(n, top - 4)
    assert smooth_bound(n) == c_sing
    for k in range(1, 2 * (n - 2) + 1):
        dim_y = k - 1 - c_y
        try:
            got = make_pair(n, k).dim_y
        except (NegativeDimension, OutOfSmoothRange):
            got = None
        assert got == (dim_y if k <= c_sing and dim_y >= 0 else None), (n, k)


# n = 6 over F_2 (32,768 forms) and n = 5 over F_3 (59,049) take about a second each
_RANK_FIELDS = [
    (4, 2), (5, 2), (4, 3), pytest.param(6, 2, marks=pytest.mark.slow), pytest.param(5, 3, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("n, q", _RANK_FIELDS, ids=["n4/F_2", "n5/F_2", "n4/F_3", "n6/F_2", "n5/F_3"])
def test_rank_counts_are_the_closed_count(n, q):
    assert _rank_counts(n, q) == {2 * r: closed_rank_count(n, r, q) for r in range(n // 2 + 1)}


def test_rank_strata_have_codimension_c_of_n_minus_rank_2():
    # Harris-Tu's C(n - rank, 2), read off the closed count
    assert all(rank_stratum_codim(n, rank) == comb(n - rank, 2) for n in range(4, 25) for rank in range(0, n + 1, 2))


def test_rank_strata_give_dim_y_and_the_smooth_bound():
    for n in range(4, 49):
        check_dual_strata(n)


def test_a_wrong_stratum_codimension_fails_the_strata_check(monkeypatch):
    monkeypatch.setattr(pairs, "_stratum_codim", lambda n, rank: comb(n - rank + 1, 2))
    for n in range(4, 49):
        with pytest.raises(AssertionError):
            check_dual_strata(n)
