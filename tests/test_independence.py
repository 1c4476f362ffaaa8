"""Each oracle and each route enters no code of what it is meant to be
independent of.

A `sys.setprofile` hook records every Python function a call enters, keyed
on module and `co_name`, and each case names the functions its call may not
enter.  Memos and product tables are cleared first, so a cached value cannot
hide a call.
"""

import sys

import pytest

from pgpairs import chern, pairs, schubert


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
]


@pytest.fixture(autouse=True)
def _cold_memos(monkeypatch):
    monkeypatch.setattr(schubert, "_PRODUCTS", {})
    chern._chi_polys.cache_clear()
    chern._euler_pairing.cache_clear()


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
