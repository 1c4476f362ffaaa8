"""The fixture `cold_memos`: every memo of pgpairs empty around a test."""

import pytest

from pgpairs import chern, pairs, schubert

# every memo of pgpairs; tests/test_mutants.py fails if one is left off
MEMOS = (pairs._ambient, pairs._decomposables, pairs.check_l_equivalence, chern._euler_pairing, chern._chi_polys)


def clear_memos(monkeypatch):
    """A fresh `schubert._PRODUCTS`, which monkeypatch restores, and every memo of MEMOS empty."""
    monkeypatch.setattr(schubert, "_PRODUCTS", {})
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def cold_memos(monkeypatch):
    clear_memos(monkeypatch)
    yield
    clear_memos(monkeypatch)
