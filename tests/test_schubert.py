"""Schubert calculus: classes, multiplication engines, pairing, Betti numbers."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgpairs
from pgpairs import schubert
from pgpairs.errors import AmbientMismatch, InvalidParameter
from pgpairs.ring import LPoly, projective_class
from pgpairs.schubert import (
    ENGINES,
    ChowClass,
    ChowRing,
    betti,
    box_partitions,
    grassmannian_class,
    hyperplane_section_class,
    lefschetz_shift,
    lr_count,
    sum_even_powers,
)


def _class_by_cell_enumeration(n):
    # independent oracle: one cell of dimension 2(n-2) - |partition| per partition
    counts = {}
    for a in range(n - 1):
        for b in range(a + 1):
            d = 2 * (n - 2) - a - b
            counts[d] = counts.get(d, 0) + 1
    return LPoly(counts)


def test_grassmannian_class_cells_equals_enumeration():
    for n in range(4, 15):
        assert grassmannian_class(n, "cells") == _class_by_cell_enumeration(n)


def test_grassmannian_class_two_methods_agree():
    for n in range(4, 15):
        assert grassmannian_class(n, "cells") == grassmannian_class(n, "product_formula")


def test_grassmannian_class_examples():
    assert grassmannian_class(4, "cells") == LPoly.from_coeffs([1, 1, 2, 1, 1])
    assert grassmannian_class(4, "product_formula") == projective_class(2) * LPoly.from_coeffs([1, 0, 1])
    assert grassmannian_class(5, "product_formula") == projective_class(4) * LPoly.from_coeffs([1, 0, 1])
    with pytest.raises(InvalidParameter):
        grassmannian_class(3)
    with pytest.raises(InvalidParameter):
        grassmannian_class(5, "nope")


def test_hyperplane_section_class_examples():
    assert hyperplane_section_class(4) == projective_class(1) * LPoly.from_coeffs([1, 0, 1])
    assert hyperplane_section_class(5) == projective_class(3) * LPoly.from_coeffs([1, 0, 1])
    with pytest.raises(InvalidParameter):
        hyperplane_section_class(3)


def test_hyperplane_section_class_by_weak_lefschetz():
    # oracle: Betti numbers of a smooth hyperplane section are those of the
    # Grassmannian below the middle, zero in the (odd) middle, dual above
    for n in range(4, 15):
        d = 2 * (n - 2) - 1
        coeffs = {}
        for j in range(0, d):
            if j % 2 == 0:
                coeffs[j // 2] = betti(n, j)
        for j in range(d + 1, 2 * d + 1):
            if j % 2 == 0:
                coeffs[j // 2] = betti(n, 2 * d - j)
        assert hyperplane_section_class(n) == LPoly(coeffs)


def test_difference_of_classes_is_even_tail():
    # what subtracting the hyperplane class from the Grassmannian really leaves:
    # L^s + L^(s+2) + ... + L^(2n-4); it collapses to two terms only for n = 4, 5
    for n in range(4, 15):
        s = lefschetz_shift(n)
        tail = LPoly({j: 1 for j in range(s, 2 * n - 3, 2)})
        assert grassmannian_class(n) - hyperplane_section_class(n) == tail
    for n in (4, 5):
        s = lefschetz_shift(n)
        assert grassmannian_class(n) - hyperplane_section_class(n) == LPoly(
            {s: 1, 2 * n - 4: 1}
        )


def test_decomposable_identity_for_odd_n():
    for n in range(5, 14, 2):
        assert projective_class(n - 1) * hyperplane_section_class(n) == projective_class(
            n - 2
        ) * grassmannian_class(n)


def test_sum_even_powers():
    assert sum_even_powers(5) == LPoly.from_coeffs([1, 0, 1])
    assert sum_even_powers(6) == LPoly.from_coeffs([1, 0, 1, 0, 1])
    assert sum_even_powers(7) == LPoly.from_coeffs([1, 0, 1, 0, 1])


def test_multiply_pieri_examples():
    r = ChowRing(4)
    s1 = r.sigma(1)
    assert s1 * s1 == r.sigma(2) + r.sigma(1, 1)
    assert s1 * r.sigma(2, 1) == r.sigma(2, 2)
    for n in (4, 6, 9):
        rn = ChowRing(n)
        top = rn.sigma(n - 2, n - 2)
        assert (top * rn.sigma(1)).is_zero()


def test_whitney_identity_for_the_tautological_sequence():
    # c(S) c(Q) = 1 with c(S) = 1 - sigma_1 + sigma_{1,1} and c_i(Q) = sigma_i
    for engine in ENGINES:
        for n in range(4, 13):
            r = ChowRing(n, engine)
            c_q = r.one()
            for i in range(1, n - 1):
                c_q = c_q + r.sigma(i)
            assert (r.one() - r.sigma(1) + r.sigma(1, 1)) * c_q == r.one(), (engine, n)


def test_multiply_respects_grading_with_truncation():
    r = ChowRing(5)
    x = (r.sigma(2) + r.sigma(1)) * (r.sigma(3) + r.sigma(1, 1))
    for part, coeff in x.terms.items():
        assert sum(part) <= 2 * (5 - 2)
        assert coeff == int(coeff)


def test_integrate_examples():
    r = ChowRing(4)
    assert (r.sigma(1) ** 4).integrate() == 2
    assert (r.sigma(1) ** 2).integrate() == 0
    for n in range(4, 11):
        rn = ChowRing(n)
        # Plücker degree of Gr(2,n) is the Catalan number C_{n-2}
        catalan = math.comb(2 * (n - 2), n - 2) // (n - 1)
        assert (rn.sigma(1) ** (2 * (n - 2))).integrate() == catalan


def test_duality_pairing():
    for n in range(4, 11):
        r = ChowRing(n)
        side = n - 2
        for a, b in box_partitions(n):
            dual = (side - b, side - a)
            assert (r.sigma(a, b) * r.sigma(*dual)).integrate() == 1
            for c, d in box_partitions(n):
                if (c, d) != dual and a + b + c + d == 2 * side:
                    assert (r.sigma(a, b) * r.sigma(c, d)).integrate() == 0


def test_betti_examples():
    # size-6 partitions in the 2 x 6 box, enumerated directly
    parts = [(a, b) for a in range(7) for b in range(a + 1) if a + b == 6]
    assert betti(8, 12) == len(parts) == 4
    assert betti(7, 4) == 2
    assert betti(4, 3) == 0
    for n in range(4, 13):
        g = grassmannian_class(n)
        for j in range(0, 4 * (n - 2) + 2):
            expected = g.coefficient(j // 2) if j % 2 == 0 else 0
            assert betti(n, j) == expected


def test_betti_closed_form_counts_the_box_partitions():
    # past both ends of every degree range, odd degrees included
    for n in range(4, 31):
        sizes = [a + b for a, b in box_partitions(n)]
        for j in range(-2, 4 * (n - 2) + 3):
            expected = sizes.count(j // 2) if j >= 0 and j % 2 == 0 else 0
            assert betti(n, j) == expected, (n, j)


def test_betti_middle_difference_identity():
    for n in range(6, 15):
        for kp in (1, 2, 3):
            diff = betti(n, 2 * n - 4) - betti(n, 2 * n - 4 - 2 * kp)
            want = math.ceil(kp / 2) if n % 2 == 0 else kp // 2
            assert diff == want


def test_engines_agree_on_full_tables():
    for n in range(4, 10):
        rp = ChowRing(n, "pieri")
        rl = ChowRing(n, "lr")
        for lam in box_partitions(n):
            for mu in box_partitions(n):
                assert rp.product(lam, mu) == rl.product(lam, mu), (n, lam, mu)


def test_table_fill_matches_unpruned_lr_candidates():
    # every (lam, mu) in the box, in both orders: the pruned candidate range of
    # the n-free _product_lr misses no nonzero coefficient over every two-row
    # nu of the right size (a superset of box(n+2)'s), Pieri with Giambelli on
    # the factor with fewer boxes gives the same structure constants, and each
    # ring's product is their view in the box
    for n in range(4, 13):
        rings = [ChowRing(n, engine) for engine in ENGINES]
        cells = box_partitions(n)
        for lam in cells:
            for mu in cells:
                total = sum(lam) + sum(mu)
                counts = {nu: lr_count(lam, mu, nu) for nu in ((a, total - a) for a in range((total + 1) // 2, total + 1))}
                unpruned = {nu: c for nu, c in counts.items() if c}
                assert schubert._product_lr(lam, mu) == unpruned, (n, lam, mu)
                assert schubert._product_pieri(lam, mu) == unpruned, (n, lam, mu)
                in_box = {nu: c for nu, c in unpruned.items() if nu in cells}
                for ring in rings:
                    assert ring.product(lam, mu) == in_box, (n, ring.engine, lam, mu)


def test_each_engine_fills_its_own_table(monkeypatch):
    # the rings of every n share structure constants within an engine, never
    # across engines, so lr stays an independent cross-check of pieri
    monkeypatch.setattr(schubert, "_PRODUCTS", {})
    monkeypatch.setattr(schubert, "_product_lr", lambda lam, mu: {})
    assert ChowRing(6, "pieri").product((1, 0), (1, 0)) == {(1, 1): 1, (2, 0): 1}
    assert ChowRing(6, "lr").product((1, 0), (1, 0)) == {}


@pytest.mark.parametrize("engine", ["Pieri", "bogus", "", None], ids=repr)
def test_unknown_engine_makes_no_table(engine, monkeypatch):
    # an engine outside ENGINES is an error, never an lr table under its name
    monkeypatch.setattr(schubert, "_PRODUCTS", {})
    with pytest.raises(InvalidParameter):
        schubert.product_rows(engine, (1, 0))
    assert schubert._PRODUCTS == {}


def test_lr_count_values():
    assert lr_count((1, 0), (1, 0), (2, 0)) == 1
    assert lr_count((1, 0), (1, 0), (1, 1)) == 1
    assert lr_count((2, 0), (1, 1), (3, 1)) == 1
    assert lr_count((2, 0), (1, 1), (2, 2)) == 0
    assert lr_count((2, 1), (2, 1), (3, 3)) == 1


def test_multiply_commutative_associative_sampled():
    rng = random.Random(424242)
    r = ChowRing(7)
    basis = box_partitions(7)
    for _ in range(25):
        x = r.sigma(*rng.choice(basis)) + r.sigma(*rng.choice(basis)).scale(
            Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
        )
        y = r.sigma(*rng.choice(basis))
        z = r.sigma(*rng.choice(basis))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        ChowRing(4).sigma(1) * ChowRing(5).sigma(1)


def test_classes_of_two_engines_are_not_equal():
    # classes that refuse to be added or multiplied together are not equal,
    # and classes that differ only in their engine hash apart
    pieri, lr = ChowRing(5, "pieri").sigma(1), ChowRing(5, "lr").sigma(1)
    for op in (lambda a, b: a + b, lambda a, b: a * b):
        with pytest.raises(AmbientMismatch):
            op(pieri, lr)
    assert pieri != lr and pieri.terms == lr.terms
    assert hash(pieri) != hash(lr)
    assert pieri == ChowRing(5, "pieri").sigma(1) and hash(pieri) == hash(ChowRing(5, "pieri").sigma(1))
    assert len({pieri, lr}) == 2


@pytest.mark.parametrize("bad", [0.1, "1/2", Decimal(1), True, None], ids=repr)
def test_coefficient_that_is_not_an_exact_number_rejected(bad):
    # a float, a string, a Decimal, a bool or None is not silently converted
    r = ChowRing(4)
    with pytest.raises(InvalidParameter):
        ChowClass(r, {(1, 0): bad})
    with pytest.raises(InvalidParameter):
        r.sigma(1).scale(bad)
    with pytest.raises(InvalidParameter):
        r.sigma(1) * bad
    with pytest.raises(InvalidParameter):
        bad * r.sigma(1)


def test_sigma_validation():
    r = ChowRing(4)
    with pytest.raises(InvalidParameter):
        r.sigma(3, 0)
    with pytest.raises(InvalidParameter):
        r.sigma(1, 2)


@pytest.mark.parametrize("bad", [(7, 0), (4, 0), (1, 2), (2, -1), (1,), (1, 0, 0), "s1"], ids=repr)
def test_chow_class_rejects_terms_outside_the_box(bad):
    # a pair that is not a partition in the 2 x 3 box of Gr(2,5) is an error,
    # also with a zero coefficient, never a term that integrates to 0
    r = ChowRing(5)
    for coefficient in (1, 0):
        with pytest.raises(InvalidParameter):
            ChowClass(r, {(1, 0): 1, bad: coefficient})
    with pytest.raises(InvalidParameter):
        ChowClass(r, {(7, 0): 1, (1, 2): 3})


@pytest.mark.parametrize("bad", [(7, 0), (4, 0), (1, 2), (2, -1), (1,), (1, 0, 0)], ids=repr)
def test_product_rejects_keys_outside_the_box(bad, monkeypatch):
    # the engines take any two-row partition, so the ring checks its keys
    # before it makes a table or fills a row
    monkeypatch.setattr(schubert, "_PRODUCTS", {})
    for engine in ENGINES:
        r = ChowRing(5, engine)
        for lam, mu in ((bad, (1, 0)), ((1, 0), bad)):
            with pytest.raises(InvalidParameter):
                r.product(lam, mu)
    assert schubert._PRODUCTS == {}


_coefficient = st.integers(-30, 30) | st.fractions(min_value=-8, max_value=8, max_denominator=9)


@st.composite
def _two_classes(draw):
    n = draw(st.integers(4, 12))
    cls = st.dictionaries(st.sampled_from(box_partitions(n)), _coefficient, max_size=6)
    return n, draw(cls), draw(cls)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_two_classes())
def test_pieri_and_lr_products_agree_on_random_classes(case):
    n, a, b = case
    products = [ChowClass(ChowRing(n, e), a) * ChowClass(ChowRing(n, e), b) for e in ENGINES]
    assert products[0].terms == products[1].terms
    for cls in (ChowClass(ChowRing(n), a), *products):
        for v in cls.terms.values():
            # an integral coefficient is stored as an int, any other as a Fraction
            assert type(v) is (int if Fraction(v).denominator == 1 else Fraction), (v, type(v))


def test_integral_classes_keep_int_coefficients():
    r = ChowRing(6)
    c = (r.one() + r.sigma(1) + r.sigma(1, 1)) ** 6
    assert all(type(v) is int for v in c.terms.values())
    assert type(c.integrate()) is int and type(r.zero().integrate()) is int
    half = c.scale(Fraction(1, 2))
    assert half.scale(2) == c and all(type(v) is int for v in half.scale(2).terms.values())
    assert repr(r.sigma(1).scale(Fraction(6, 2))) == "3*s(1, 0)"
    assert hash(r.sigma(1).scale(3)) == hash(ChowClass(r, {(1, 0): Fraction(3)}))


def test_star_import_binds_exactly_the_public_names():
    # a stale __all__ entry, such as a deleted function, breaks star-import
    namespace = {}
    exec("from pgpairs import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(pgpairs.__all__)
    assert len(set(pgpairs.__all__)) == len(pgpairs.__all__)
    for name in pgpairs.__all__:
        assert namespace[name] is getattr(pgpairs, name)
