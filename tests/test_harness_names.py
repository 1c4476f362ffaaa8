"""Every pgpairs name that perfbench reads from outside the program still
resolves.

`perfbench/tracing.py` wraps names it looks up with `getattr`, and
`perfbench/child.py` calls library functions by name, so a deleted or
renamed one would crash only a benchmark run.  The tracing module is loaded
by path and its `install` is never called, so nothing is wrapped here.
"""

import importlib.util
from pathlib import Path

import pytest

from pgpairs import dsl, pairs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the library functions that child.py calls
CHILD_CALLS = [
    (pairs, "poincare_x"),
    (pairs, "derive_poincare_y"),
    (pairs, "make_pair"),
    (pairs, "hypersurface_poincare_oracle"),
    (dsl, "eval_dsl"),
]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_resolves(tracing):
    sites = [site for sites in tracing.SPANNED.values() for site in sites]
    assert len(sites) >= 10
    missing = [f"{module.__name__}.{attr}" for module, attr in sites if not callable(getattr(module, attr, None))]
    assert not missing, missing


def test_the_counted_methods_resolve(tracing):
    for cls, attr in (
        (tracing.ChowRing, "product"),
        (tracing.ChowClass, "__mul__"),
        (tracing.LPoly, "__mul__"),
        (tracing.TPoly, "__mul__"),
    ):
        assert callable(getattr(cls, attr, None)), f"{cls.__name__}.{attr}"


def test_the_names_child_calls_resolve():
    text = (PERFBENCH / "child.py").read_text()
    for module, attr in CHILD_CALLS:
        assert f".{attr}(" in text, f"child.py no longer calls {attr}; update CHILD_CALLS"
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
