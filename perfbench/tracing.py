"""Spans and counters recorded around pgpairs' public names, from outside the
program.

`install(tracer)` replaces public names in the modules where callers look
them up (for example `pgpairs.pairs.euler_characteristic_ci`, which
`poincare_x` calls, and `pgpairs.chern.euler_characteristic_ci`, which
`middle_hodge` calls) with wrappers.  Functions called a few hundred times
get one span per call; the hot kernels (`ChowRing.product`, called millions
of times on a grid, and the class multiplications) get aggregate counters and
summed time instead.  Private helpers are never wrapped, so a refactor inside
a module cannot break the trace.  Spans stay in memory until `summary()`.
"""

from __future__ import annotations

import functools
import itertools
from time import perf_counter

import pgpairs.chern
import pgpairs.cli
import pgpairs.dsl
import pgpairs.pairs
from pgpairs.ring import LPoly, TPoly
from pgpairs.schubert import ChowClass, ChowRing

# span name -> the (module, attribute) bindings through which callers reach it
SPANNED = {
    "cli.main": [(pgpairs.cli, "main")],
    "cli.run_grid": [(pgpairs.cli, "run_grid")],
    "pairs.build_pair_report": [(pgpairs.cli, "build_pair_report"), (pgpairs.pairs, "build_pair_report")],
    "pairs.poincare_x": [(pgpairs.pairs, "poincare_x")],
    "pairs.derive_poincare_y": [(pgpairs.pairs, "derive_poincare_y")],
    "chern.middle_hodge": [(pgpairs.pairs, "middle_hodge"), (pgpairs.chern, "middle_hodge")],
    "chern.chi_y_ci": [(pgpairs.chern, "chi_y_ci")],
    "chern.euler_characteristic_ci": [
        (pgpairs.pairs, "euler_characteristic_ci"),
        (pgpairs.chern, "euler_characteristic_ci"),
    ],
    "chern.tangent_chern": [(pgpairs.chern, "tangent_chern")],
    "dsl.eval_dsl": [(pgpairs.cli, "eval_dsl"), (pgpairs.dsl, "eval_dsl")],
}


class Tracer:
    """In-memory spans (name, start, end, parent id, run id) and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [id, name, start, end, parent id]
        self._stack = []
        self._ids = itertools.count(1)
        self.product_calls = 0
        self.product_s = 0.0
        self.product_keys = set()
        self.mul_calls = 0
        self.mul_term_pairs = 0
        self.mul_s = 0.0
        self.ring_mul_calls = 0

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append([span_id, name, start, perf_counter(), parent])
                self._stack.pop()

        return wrapper

    def summary(self) -> dict:
        """Calls, total and self seconds per span name, plus the counters."""
        child_s = {}
        for _, _, start, end, parent in self.spans:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        out = {}
        for span_id, name, start, end, _ in self.spans:
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child_s.get(span_id, 0.0)
        return {
            "run_id": self.run_id,
            "spans": out,
            "raw": [[*span, self.run_id] for span in self.spans],
            "counters": {
                "schubert.product.calls": self.product_calls,
                "schubert.product.distinct": len(self.product_keys),
                "schubert.product.s": self.product_s,
                "schubert.mul.calls": self.mul_calls,
                "schubert.mul.term_pairs": self.mul_term_pairs,
                "schubert.mul.s": self.mul_s,
                "ring.mul.calls": self.ring_mul_calls,
            },
        }


def install(tracer: Tracer) -> None:
    """Wrap the traced names for the rest of this process."""
    for name, sites in SPANNED.items():
        wrapped = {}
        for module, attr in sites:
            fn = getattr(module, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = tracer.span(name, fn)
            setattr(module, attr, wrapped[id(fn)])

    product = ChowRing.product

    def traced_product(ring, lam, mu):
        start = perf_counter()
        out = product(ring, lam, mu)
        tracer.product_s += perf_counter() - start
        tracer.product_calls += 1
        tracer.product_keys.add((ring.n, ring.engine, lam, mu) if lam <= mu else (ring.n, ring.engine, mu, lam))
        return out

    ChowRing.product = traced_product

    chow_mul = ChowClass.__mul__

    def traced_chow_mul(a, b):
        if not isinstance(b, ChowClass):
            return chow_mul(a, b)
        start = perf_counter()
        out = chow_mul(a, b)
        tracer.mul_s += perf_counter() - start
        tracer.mul_calls += 1
        tracer.mul_term_pairs += len(a.terms) * len(b.terms)
        return out

    ChowClass.__mul__ = ChowClass.__rmul__ = traced_chow_mul

    for cls in (LPoly, TPoly):
        def traced_ring_mul(a, b, _mul=cls.__mul__):
            tracer.ring_mul_calls += 1
            return _mul(a, b)

        cls.__mul__ = cls.__rmul__ = traced_ring_mul
