"""A small expression language for classes in Z[L].

Grammar (whitespace-insensitive, decimal integers in the ASCII digits 0-9):

    expr := cmp
    cmp  := sum ("==" sum)?
    sum  := prod (("+" | "-") prod)*
    prod := atom (("*" | "div") atom)*
    atom := INT | "L" | ctor "(" args ")" | "(" expr ")"

Constructors: P(n), Gr(2,n), H(2,n), F1(n), F2(n), SumEven(n).  `div` is exact
division; a comparison yields a boolean, anything else an LPoly.

Nesting is bounded by MAX_DEPTH = 100 levels: each parenthesis and each
operator in a chain counts one level, so "1+1+...+1" may have at most 100
operators.  Deeper input is a ParseError at the token that crosses the bound.
An integer literal has at most MAX_DIGITS = 1000 digits, and a constructor
argument is at most MAX_ARG = 1000; a longer literal or a larger argument is a
ParseError at that literal.

Beyond time linear in the length of the text, work is bounded by one budget
of MAX_WORK = 3,000,000 units per expression, each step charged before it
runs.  Gr, H, F1 and F2, which enumerate cells, cost their last argument
squared, and P and SumEven their argument.  A class of degree d whose
largest coefficient has b bits has size (d + 1) * (1 + b // 512): `*` costs
the product of its operands' sizes, and `+`, `-` and `==` their sum.  `div`
costs as `*` with the dividend's largest coefficient grown by the bits that
long division can add to a remainder (`_growth`).  A unit takes under a
microsecond, so the budget is a few seconds.  A step past it is an
InvalidParameter naming its fragment.
"""

from __future__ import annotations

from operator import add, eq, mul, sub

from .errors import EvalError, InvalidParameter, NonExactDivision, ParseError, PGError
from .ring import LPoly, projective_class
from .schubert import grassmannian_class, hyperplane_section_class, sum_even_powers
from .pairs import fiber_classes

_DIGITS = "0123456789"
MAX_DEPTH = 100
MAX_DIGITS = 1000
MAX_ARG = 1000
MAX_WORK = 3_000_000
_UNIT_BITS = 512

# One row per precedence level, loosest first: the operators of the level and
# whether a chain of them may go on after the first.
_LEVELS = ((("==",), False), (("+", "-"), True), (("*", "div"), True))

# name -> (what it takes, fixed leading arguments, lower bound of the last
# argument, class builder applied to the last argument, power of the last
# argument that it is charged)
_CTORS = {
    "P": ("one nonnegative integer", (), 0, projective_class, 1),
    "Gr": ("arguments (2, n) with n >= 4", (2,), 4, grassmannian_class, 2),
    "H": ("arguments (2, n) with n >= 4", (2,), 4, hyperplane_section_class, 2),
    "F1": ("one integer n >= 4", (), 4, lambda n: fiber_classes(n)[0], 2),
    "F2": ("one integer n >= 4", (), 4, lambda n: fiber_classes(n)[1], 2),
    "SumEven": ("one integer n >= 2", (), 2, sum_even_powers, 1),
}

_ARITHMETIC = {"+": add, "-": sub, "*": mul, "==": eq}


def _tokenize(source: str):
    """Tokens are (kind, value, line, column) tuples; the last is ("end", None).
    No two kinds share a value, so the parser tells operators by value alone."""
    tokens = []
    line, line_start, i = 1, 0, 0
    while i < len(source):
        ch, j, column = source[i], i + 1, i - line_start + 1
        if ch == "\n":
            line, line_start = line + 1, j
        elif ch.isspace():
            pass
        elif ch in "+-*()," or source.startswith("==", i):
            j += ch == "="  # "==" is the one two-character operator
            tokens.append(("op", source[i:j], line, column))
        elif ch in _DIGITS:
            while j < len(source) and source[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", line, column)
            tokens.append(("int", int(source[i:j]), line, column))
        elif ch.isalpha():
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            tokens.append(("op" if word == "div" else "name", word, line, column))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, column)
        i = j
    tokens.append(("end", None, line, len(source) - line_start + 1))
    return tokens


# AST nodes: ("int", v) ("L",) ("ctor", name, (ints)) ("bin", op, lhs, rhs)


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        _, found, line, column = self.next()
        if found != value:
            raise ParseError(f"expected {value!r}, found {found!r}", line, column)

    def deeper(self, tok) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", tok[2], tok[3])

    def parse(self):
        node = self.chain(0)
        kind, value, line, column = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected trailing {value!r}", line, column)
        return node

    def chain(self, level: int):
        """One precedence level: operands of the next level joined by this
        level's operators, left to right; each operator counts one level of
        nesting until the chain ends."""
        if level == len(_LEVELS):
            return self.atom()
        ops, repeats = _LEVELS[level]
        start = self.depth
        node = self.chain(level + 1)
        while self.tokens[self.pos][1] in ops:
            tok = self.next()
            self.deeper(tok)
            node = ("bin", tok[1], node, self.chain(level + 1))
            if not repeats:
                break
        self.depth = start
        return node

    def atom(self):
        tok = kind, value, line, column = self.next()
        if kind == "int":
            return ("int", value)
        if value == "L":
            return ("L",)
        if value in _CTORS:
            self.expect("(")
            args = [self.int_arg()]
            while self.tokens[self.pos][1] == ",":
                self.pos += 1
                args.append(self.int_arg())
            self.expect(")")
            return ("ctor", value, tuple(args))
        if kind == "name":
            raise ParseError(f"unknown name {value!r}", line, column)
        if value == "(":
            self.deeper(tok)
            node = self.chain(0)
            self.expect(")")
            self.depth -= 1
            return node
        raise ParseError(f"unexpected {value!r}", line, column)

    def int_arg(self) -> int:
        kind, value, line, column = self.next()
        if kind != "int":
            raise ParseError(f"constructor arguments must be integer literals, found {value!r}", line, column)
        if value > MAX_ARG:
            raise ParseError(f"constructor argument {value} exceeds {MAX_ARG}", line, column)
        return value


def _show(node) -> str:
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "L":
        return "L"
    if kind == "ctor":
        return f"{node[1]}({', '.join(map(str, node[2]))})"
    return f"({_show(node[2])} {node[1]} {_show(node[3])})"


def _size(p: LPoly, extra_bits: int = 0) -> int:
    bits = max(map(abs, p.coeffs_dense())).bit_length()
    return (p.degree + 1) * (1 + (bits + extra_bits) // _UNIT_BITS)


def _growth(a: LPoly, b: LPoly) -> int:
    """Bits by which long division of a by b can grow a remainder: each of
    its deg a - deg b + 1 steps multiplies it by at most 1 + max|b| / |lead
    of b|."""
    c = b.coeffs_dense()
    ratio = -(-max(map(abs, c)) // abs(c[-1]))
    return max(a.degree - b.degree + 1, 0) * ratio.bit_length()


def _charge(budget: list, units: int, node) -> None:
    budget[0] -= units
    if budget[0] < 0:
        raise InvalidParameter(f"more work than MAX_WORK = {MAX_WORK} units: {_show(node)}")


def _eval(node, budget: list):
    kind = node[0]
    if kind == "int":
        return LPoly({0: node[1]})
    if kind == "L":
        return LPoly.monomial(1)
    if kind == "ctor":
        name, args = node[1], node[2]
        takes, fixed, low, build, power = _CTORS[name]
        if not (args[:-1] == fixed and args[-1] >= low):
            raise EvalError(f"{name} takes {takes}", _show(node))
        _charge(budget, args[-1] ** power, node)
        try:
            return build(args[-1])
        except PGError as exc:
            raise EvalError(str(exc), _show(node)) from exc
    op, lhs, rhs = node[1], _eval(node[2], budget), _eval(node[3], budget)
    if isinstance(lhs, bool) or isinstance(rhs, bool):
        raise EvalError("comparison results cannot feed arithmetic", _show(node))
    if op != "div":
        _charge(budget, _size(lhs) * _size(rhs) if op == "*" else _size(lhs) + _size(rhs), node)
        return _ARITHMETIC[op](lhs, rhs)
    if rhs.is_zero():
        raise EvalError("division by zero", _show(node))
    _charge(budget, _size(lhs, _growth(lhs, rhs)) * _size(rhs), node)
    try:
        return lhs.div_exact(rhs)
    except NonExactDivision as exc:
        raise EvalError(f"non-exact division ({exc})", _show(node)) from exc


def eval_dsl(source: str):
    """Parse and evaluate one expression; returns an LPoly or, for a
    comparison, a bool.  ParseError carries the line and column; work past
    MAX_WORK is an InvalidParameter."""
    return _eval(_Parser(source).parse(), [MAX_WORK])
