"""Shared by the tests: the fixture `cold_memos`, every memo of pgpairs empty
around a test, and `valid_pairs`."""

import importlib
import pkgutil

import pytest

import pgpairs
from pgpairs import pairs
from pgpairs.errors import PGError


def memos() -> dict:
    """{'module.name': memo} for every memo of pgpairs, a module-level object
    with `cache_clear`, once under its first name, the package's re-exports
    last."""
    modules = [importlib.import_module(f"pgpairs.{m.name}") for m in pkgutil.iter_modules(pgpairs.__path__)]
    found = {}
    for module in [*modules, pgpairs]:
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear"):
                found.setdefault(id(obj), (f"{module.__name__}.{name}", obj))
    return dict(found.values())


def clear_memos():
    """Every memo of pgpairs empty."""
    for memo in memos().values():
        memo.cache_clear()


@pytest.fixture
def cold_memos():
    clear_memos()
    yield
    clear_memos()


def valid_pairs(n_min, n_max, k_max=10):
    """Every pair with n in n_min..n_max and k in 1..k_max that `make_pair` accepts."""
    out = []
    for n in range(n_min, n_max + 1):
        for k in range(1, k_max + 1):
            try:
                out.append(pairs.make_pair(n, k))
            except PGError:
                pass
    return out

