"""Every name read from outside the code that defines it still resolves.

`perfbench/tracing.py` wraps pgpairs names it looks up with `getattr`, and
`perfbench/child.py` calls library functions by name, so a deleted or
renamed one would crash only a benchmark run.  The tracing module is loaded
by path and its `install` is never called, so nothing is wrapped here.

README.md and the tests name tests as `test_<module>.py::<name>`; each such
name must be a top-level function of that module, and no two test modules
define a test of the same name, so a bare test name is unambiguous too.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

from pgpairs import dsl, pairs

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

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


def _top_level_functions(module):
    path = TESTS / f"{module}.py"
    if not path.is_file():
        return set()
    return {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body if isinstance(node, ast.FunctionDef)}


def test_every_test_reference_resolves():
    texts = [path.read_text(encoding="utf-8") for path in (TESTS.parent / "README.md", *sorted(TESTS.glob("*.py")))]
    refs = {m.groups() for text in texts for m in re.finditer(r"\b(test_\w+)\.py::(\w+)", text)}
    assert len(refs) >= 5
    stale = sorted(f"{module}.py::{name}" for module, name in refs if name not in _top_level_functions(module))
    assert not stale, stale


def test_no_two_test_modules_define_a_test_of_the_same_name():
    modules = {}
    for path in sorted(TESTS.glob("test_*.py")):
        for name in _top_level_functions(path.stem):
            if name.startswith("test_"):
                modules.setdefault(name, []).append(path.name)
    assert {name: files for name, files in modules.items() if len(files) > 1} == {}
