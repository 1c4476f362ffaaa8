"""Each oracle and each route enters no code of what it is meant to be
independent of.

A `sys.setprofile` hook records every Python function a call enters, keyed
on module and `co_name`, and each case names the functions its call may not
enter.  Every memo is cleared first, so a cached value cannot hide a call.
"""

import pkgutil
import sys

import pytest

import pgpairs
import test_localization
import test_point_counts
from conftest import valid_pairs
from pgpairs import chern, pairs, schubert
from test_schubert import _class_by_cell_enumeration

_PGPAIRS = {"pgpairs", *(f"pgpairs.{m.name}" for m in pkgutil.iter_modules(pgpairs.__path__))}

pytestmark = pytest.mark.usefixtures("cold_memos")


def _entered(call) -> list:
    """(module, function name) of every Python function `call()` enters."""
    seen = []

    def hook(frame, event, arg):
        if event == "call":
            seen.append((frame.f_globals.get("__name__"), frame.f_code.co_name))

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


def _hypersurface_oracles():
    for d, ambient_dim in ((2, 5), (3, 4), (4, 3), (5, 9), (12, 3)):
        pairs.hypersurface_poincare_oracle(d, ambient_dim)


def _lr_tables():
    cells = schubert.box_partitions(9)
    for lam in cells:
        for mu in cells:
            schubert._product_lr(lam, mu)


# P(X) of every pair of the CLI domain, computed before any trace: P(Y) is
# solved from it and the Tate remainder alone
_CLI_DOMAIN_P_X = [(pair, pairs.poincare_x(pair.n, pair.k)) for pair in valid_pairs(4, pairs.MAX_NK)]


def _localization_case(name, call):
    """A localization oracle of tests/test_localization.py: it reads no
    Schubert table and no chi_y coordinate, so nothing in schubert or chern."""
    return (name, call, ("test_localization", name), {"pgpairs.schubert", "pgpairs.chern"}, set())


# (name, call, a function it must enter, forbidden modules, forbidden functions)
CASES = [
    (
        "chi_y route",  # the chern docstring: "no Schubert product and no engine"
        lambda: [chern._chi_polys(n) for n in range(4, 10)],
        ("pgpairs.chern", "_functional"),
        {"pgpairs.schubert"},
        set(),
    ),
    (
        "Euler route",
        lambda: [chern._euler_pairing(n, engine) for n in range(4, 13) for engine in schubert.ENGINES],
        ("pgpairs.chern", "tangent_chern"),
        set(),
        {("pgpairs.chern", "_chi_polys"), ("pgpairs.chern", "_functional")},
    ),
    (
        "hypersurface oracle",
        _hypersurface_oracles,
        ("pgpairs.pairs", "hypersurface_poincare_oracle"),
        {"pgpairs.schubert", "pgpairs.chern"},
        set(),
    ),
    (
        "hyperplane section class",  # its docstring: it reads no Betti number
        lambda: [schubert.hyperplane_section_class(n) for n in range(4, 25)],
        ("pgpairs.schubert", "sum_even_powers"),
        set(),
        {("pgpairs.schubert", "betti")},
    ),
    (
        "lr engine",
        _lr_tables,
        ("pgpairs.schubert", "lr_count"),
        set(),
        {("pgpairs.schubert", "_product_pieri")},
    ),
    _localization_case("localized_euler", lambda: test_localization.localized_euler(6)),
    _localization_case("localized_chi_y", lambda: test_localization.localized_chi_y(5)),
    _localization_case("localized_euler_y", lambda: test_localization.localized_euler_y(5, 5)),
    _localization_case("localized_chi_y_y", lambda: test_localization.localized_chi_y_y(5, 6)),
    (
        "chi_o_y",  # Y's free resolution on P^(k-1): no Schubert table and no chi_y
        lambda: [pairs.chi_o_y(n, k) for n in range(4, 14) for k in range(1, 2 * (n - 2) + 1)],
        ("pgpairs.pairs", "chi_o_y"),
        {"pgpairs.schubert", "pgpairs.chern"},
        set(),
    ),
    (
        "Tate remainder",  # the decomposable terms alone: no chi_y, no Euler characteristic, no P(X) or P(Y)
        lambda: [pairs._tate_remainder(pair) for pair in valid_pairs(4, pairs.MAX_NK)],
        ("pgpairs.pairs", "_tate_remainder"),
        {"pgpairs.chern"},
        {("pgpairs.pairs", "poincare_x"), ("pgpairs.pairs", "_solve_poincare_y")},
    ),
    (
        "P(Y) from P(X) and T",  # the relation divided once, by T's division: no incidence divisor class
        lambda: [pairs.derive_poincare_y(pair, p_x) for pair, p_x in _CLI_DOMAIN_P_X],
        ("pgpairs.pairs", "_tate_remainder"),
        {"pgpairs.chern"},
        {("pgpairs.pairs", "cayley_hypersurface_class"), ("pgpairs.pairs", "cayley_hypersurface_class_dual")},
    ),
    (
        "L-equivalence identity",  # the relation's decomposable terms at k = n, computed one way
        lambda: [pairs.check_l_equivalence(n) for n in range(5, 62, 2)],
        ("pgpairs.pairs", "_decomposables"),
        {"pgpairs.chern"},
        set(),
    ),
    (
        "rank-stratum codimensions",  # the oracle of smooth_bound and dim Y: point counts, no code of pgpairs
        lambda: [
            test_point_counts.rank_stratum_codim(n, rank) for n in range(4, 49) for rank in (n - n % 2 - 2, n - n % 2 - 4)
        ],
        ("test_point_counts", "closed_rank_count"),
        _PGPAIRS,
        set(),
    ),
    (
        "cell enumeration",  # the oracle of grassmannian_class
        lambda: [_class_by_cell_enumeration(n) for n in range(4, 25)],
        ("test_schubert", "_class_by_cell_enumeration"),
        {"pgpairs.schubert"},
        set(),
    ),
]


def _violation(name, call, needed, modules, functions):
    """None if `call()` enters `needed` and nothing forbidden, else a message
    that names what it entered."""
    seen = _entered(call)
    if needed not in seen:
        return f"{name} never entered {'.'.join(needed)}"
    bad = sorted({(module, fn) for module, fn in seen if module in modules or (module, fn) in functions})
    if bad:
        return f"{name} entered " + ", ".join(f"{module}.{fn}" for module, fn in bad)
    return None


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_route_enters_nothing_it_must_be_independent_of(case):
    message = _violation(*case)
    assert message is None, message


def test_a_forbidden_call_is_named(monkeypatch):
    # a hyperplane section class that reads `betti` fails its case, by name
    real = schubert.sum_even_powers

    def reads_betti(n):
        schubert.betti(n, 0)
        return real(n)

    monkeypatch.setattr(schubert, "sum_even_powers", reads_betti)
    case = next(case for case in CASES if case[0] == "hyperplane section class")
    assert _violation(*case) == "hyperplane section class entered pgpairs.schubert.betti"
