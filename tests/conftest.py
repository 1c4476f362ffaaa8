"""Shared by the tests: the fixture `cold_memos`, every memo of pgpairs empty
around a test; `valid_pairs`; and `run_checks`, the script mode of the test
modules whose checks CI also runs over ranges too wide for tier-1."""

import importlib
import pkgutil
import sys

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


def run_checks(checks, args):
    """`N_MIN N_MAX [WORD]`: run checks[WORD], the first word by default, for
    n in N_MIN..N_MAX.  Any other argument list prints the usage with every
    word to stderr and exits 2."""
    words = list(checks)
    if len(args) in (2, 3) and all(a.isdigit() for a in args[:2]) and (len(args) == 2 or args[2] in checks):
        checks[args[2] if len(args) == 3 else words[0]](int(args[0]), int(args[1]))
        return
    print(f"usage: N_MIN N_MAX [WORD], WORD one of {', '.join(words)} (default {words[0]})", file=sys.stderr)
    sys.exit(2)
