"""The Schubert class algebra that `pgpairs.schubert.ChowClass` no longer
has, kept for the oracles of tests/test_schubert.py and tests/test_chern.py.

A class is a dict {partition: coefficient} with no zero value, and its
coefficients may be ints or Fractions.  Every product goes through
`schubert.add_product`, the loop that `ChowClass.__mul__` and
`chern.tangent_chern` run, so an oracle built here is as strong as one
built from the class methods it replaces.
"""

from __future__ import annotations

from pgpairs.schubert import ChowRing, add_product


def _clean(terms: dict) -> dict:
    return {p: v for p, v in terms.items() if v}


class DictChow:
    """The Chow ring of Gr(2,n) under one engine, on {partition:
    coefficient} dicts."""

    def __init__(self, n: int, engine: str = "pieri"):
        self.ring = ChowRing(n, engine)
        self.n, self.engine, self.dim = n, engine, self.ring.dim
        self._powers = None  # sigma_1^j for j = 0..dim, built on first use

    def sigma(self, a: int, b: int = 0) -> dict:
        return {self.ring._cell((a, b)): 1}

    def one(self) -> dict:
        return self.sigma(0, 0)

    def add(self, *classes) -> dict:
        out = {}
        for cls in classes:
            for p, v in cls.items():
                out[p] = out.get(p, 0) + v
        return _clean(out)

    def scale(self, cls: dict, c) -> dict:
        return _clean({p: v * c for p, v in cls.items()})

    def sub(self, x: dict, y: dict) -> dict:
        return self.add(x, self.scale(y, -1))

    def mul(self, x: dict, y: dict) -> dict:
        out = {}
        for mu, v in y.items():
            add_product(self.engine, mu, x, self.ring.max_col, v, out)
        return _clean(out)

    def pow(self, x: dict, k: int) -> dict:
        out = self.one()
        for _ in range(k):
            out = self.mul(out, x)
        return out

    def component(self, cls: dict, degree: int) -> dict:
        return {p: v for p, v in cls.items() if p[0] + p[1] == degree}

    def integrate(self, cls: dict):
        return cls.get(self.ring.point, 0)

    def sigma1_moments(self, cls: dict) -> list:
        """[integral of cls * sigma_1^j for j = 0..dim], by products."""
        if self._powers is None:
            self._powers = [self.one()]
            for _ in range(self.dim):
                self._powers.append(self.mul(self._powers[-1], self.sigma(1)))
        return [self.integrate(self.mul(self.component(cls, self.dim - j), s)) for j, s in enumerate(self._powers)]
