"""Schubert calculus: classes, multiplication engines, pairing, Betti numbers."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgpairs
from dict_chow import DictChow
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


def _sigma(ring, a, b=0):
    return ChowClass(ring, {(a, b): 1})


def _class_by_cell_enumeration(n):
    # independent oracle: one cell of dimension 2(n-2) - |partition| per partition
    counts = {}
    for a in range(n - 1):
        for b in range(a + 1):
            d = 2 * (n - 2) - a - b
            counts[d] = counts.get(d, 0) + 1
    return LPoly(counts)


def test_grassmannian_class_cells_equals_enumeration():
    for n in range(4, 41):
        assert grassmannian_class(n) == _class_by_cell_enumeration(n)


def test_grassmannian_class_two_methods_agree():
    # the product formula, a second oracle: [P^(n-2)] (n even) or [P^(n-1)]
    # (n odd) times the even-power sum
    for n in range(4, 15):
        base = projective_class(n - 2 if n % 2 == 0 else n - 1)
        assert grassmannian_class(n) == base * sum_even_powers(n)


def test_grassmannian_class_examples():
    assert grassmannian_class(4) == LPoly.from_coeffs([1, 1, 2, 1, 1])
    assert grassmannian_class(4) == projective_class(2) * LPoly.from_coeffs([1, 0, 1])
    assert grassmannian_class(5) == projective_class(4) * LPoly.from_coeffs([1, 0, 1])
    for n in (-3, 0, 1, 2, 3):
        with pytest.raises(InvalidParameter, match=f"Gr\\(2,{n}\\) needs n >= 4"):
            grassmannian_class(n)


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
    s1 = _sigma(r, 1)
    assert s1 * s1 == ChowClass(r, {(2, 0): 1, (1, 1): 1})
    assert s1 * _sigma(r, 2, 1) == _sigma(r, 2, 2)
    for n in (4, 6, 9):
        rn = ChowRing(n)
        top = _sigma(rn, n - 2, n - 2)
        assert (top * _sigma(rn, 1)).terms == {}


def test_whitney_identity_for_the_tautological_sequence():
    # c(S) c(Q) = 1 with c(S) = 1 - sigma_1 + sigma_{1,1} and c_i(Q) = sigma_i
    for engine in ENGINES:
        for n in range(4, 13):
            chow = DictChow(n, engine)
            c_q = chow.add(chow.one(), *(chow.sigma(i) for i in range(1, n - 1)))
            c_s = chow.add(chow.one(), chow.scale(chow.sigma(1), -1), chow.sigma(1, 1))
            product = ChowClass(chow.ring, c_s) * ChowClass(chow.ring, c_q)
            assert product == ChowClass(chow.ring, chow.one()), (engine, n)


def test_multiply_respects_grading_with_truncation():
    r = ChowRing(5)
    x = ChowClass(r, {(2, 0): 1, (1, 0): 1}) * ChowClass(r, {(3, 0): 1, (1, 1): 1})
    for part, coeff in x.terms.items():
        assert sum(part) <= 2 * (5 - 2)
        assert coeff == int(coeff)


def test_integrate_examples():
    chow = DictChow(4)
    assert ChowClass(chow.ring, chow.pow(chow.sigma(1), 4)).integrate() == 2
    assert ChowClass(chow.ring, chow.pow(chow.sigma(1), 2)).integrate() == 0
    for n in range(4, 11):
        chow_n = DictChow(n)
        # Plücker degree of Gr(2,n) is the Catalan number C_{n-2}
        catalan = math.comb(2 * (n - 2), n - 2) // (n - 1)
        assert ChowClass(chow_n.ring, chow_n.pow(chow_n.sigma(1), 2 * (n - 2))).integrate() == catalan


def test_duality_pairing():
    for n in range(4, 11):
        r = ChowRing(n)
        side = n - 2
        for a, b in box_partitions(n):
            dual = (side - b, side - a)
            assert (_sigma(r, a, b) * _sigma(r, *dual)).integrate() == 1
            for c, d in box_partitions(n):
                if (c, d) != dual and a + b + c + d == 2 * side:
                    assert (_sigma(r, a, b) * _sigma(r, c, d)).integrate() == 0


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
    # nu of the right size (a superset of box(n+2)'s), the closed form of the
    # pieri engine gives the same structure constants, and each ring's product
    # is their view in the box
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
    chow = DictChow(7)
    basis = box_partitions(7)
    for _ in range(25):
        x = chow.add(
            chow.sigma(*rng.choice(basis)),
            chow.scale(chow.sigma(*rng.choice(basis)), Fraction(rng.randrange(1, 5), rng.randrange(1, 4))),
        )
        y = chow.sigma(*rng.choice(basis))
        z = chow.sigma(*rng.choice(basis))
        assert chow.mul(x, y) == chow.mul(y, x)
        assert chow.mul(chow.mul(x, y), z) == chow.mul(x, chow.mul(y, z))


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        _sigma(ChowRing(4), 1) * _sigma(ChowRing(5), 1)


def test_classes_of_two_engines_are_not_equal():
    # classes that refuse to be multiplied together are not equal
    pieri, lr = _sigma(ChowRing(5, "pieri"), 1), _sigma(ChowRing(5, "lr"), 1)
    with pytest.raises(AmbientMismatch):
        pieri * lr
    assert pieri != lr and pieri.terms == lr.terms
    assert pieri == _sigma(ChowRing(5, "pieri"), 1)


@pytest.mark.parametrize("bad", [0.1, "1/2", Decimal(1), True, None, Fraction(1, 2), Fraction(3)], ids=repr)
def test_coefficient_that_is_not_an_exact_number_rejected(bad):
    # a float, a string, a Decimal, a bool, None or a Fraction is not
    # silently converted, and a class has no scalar multiple
    r = ChowRing(4)
    with pytest.raises(InvalidParameter):
        ChowClass(r, {(1, 0): bad})
    with pytest.raises(TypeError):
        _sigma(r, 1) * bad
    with pytest.raises(TypeError):
        bad * _sigma(r, 1)


def test_sigma_validation():
    r = ChowRing(4)
    with pytest.raises(InvalidParameter):
        _sigma(r, 3, 0)
    with pytest.raises(InvalidParameter):
        _sigma(r, 1, 2)


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
    products = [DictChow(n, e).mul(a, b) for e in ENGINES]
    assert products[0] == products[1]


@st.composite
def _two_integral_classes(draw):
    n = draw(st.integers(4, 12))
    cls = st.dictionaries(st.sampled_from(box_partitions(n)), st.integers(-30, 30), max_size=6)
    return n, draw(cls), draw(cls)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_two_integral_classes())
def test_class_product_is_the_dict_product(case):
    # ChowClass's product, integral and components on int classes, against
    # the dict algebra of the tests
    n, a, b = case
    for engine in ENGINES:
        chow = DictChow(n, engine)
        x, y = ChowClass(chow.ring, a), ChowClass(chow.ring, b)
        product = chow.mul(a, b)
        assert (x * y).terms == product and x * y == y * x, engine
        assert (x * y).integrate() == chow.integrate(product)
        for d in range(chow.dim + 1):
            assert x.component(d).terms == chow.component(chow.add(a), d)


def test_integral_classes_keep_int_coefficients():
    r = ChowRing(6)
    s = ChowClass(r, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
    cls = s
    for _ in range(5):
        cls = cls * s
    assert all(type(v) is int for v in cls.terms.values())
    assert type(cls.integrate()) is int and type(ChowClass(r, {}).integrate()) is int


def test_star_import_binds_exactly_the_public_names():
    # a stale __all__ entry, such as a deleted function, breaks star-import
    namespace = {}
    exec("from pgpairs import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(pgpairs.__all__)
    assert len(set(pgpairs.__all__)) == len(pgpairs.__all__)
    for name in pgpairs.__all__:
        assert namespace[name] is getattr(pgpairs, name)
