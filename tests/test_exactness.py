"""pgpairs computes in exact integers: no float or complex literal, no true
division `/` or `/=`, and no call to `float(` or `complex(` anywhere in the
package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pgpairs"


def _violations(source: str, filename: str = "<string>") -> list:
    """'file:line what' for every inexact construct in `source`."""
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            what = f"{type(node.value).__name__} literal {node.value!r}"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            what = "true division /"
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            what = "true division /="
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
            what = f"call to {node.func.id}("
        else:
            continue
        out.append((node.lineno, f"{filename}:{node.lineno} {what}"))
    return [text for _, text in sorted(out)]


def test_package_source_is_exact():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 8
    found = [v for path in files for v in _violations(path.read_text(), path.name)]
    assert not found, "\n".join(found)


def test_the_scan_finds_each_inexact_construct():
    source = "a = 1.5\nb = 2j\nc = a / b\nc /= 2\nd = float(c)\ne = complex(d)\nf = 7 // 2\nf //= 2\ng = '1/2'\n"
    assert _violations(source) == [
        "<string>:1 float literal 1.5",
        "<string>:2 complex literal 2j",
        "<string>:3 true division /",
        "<string>:4 true division /=",
        "<string>:5 call to float(",
        "<string>:6 call to complex(",
    ]
