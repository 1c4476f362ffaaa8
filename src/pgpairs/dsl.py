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
"""

from __future__ import annotations

from operator import add, eq, mul, sub

from .errors import EvalError, NonExactDivision, ParseError, PGError
from .ring import LPoly, projective_class
from .schubert import grassmannian_class, hyperplane_section_class, sum_even_powers
from .pairs import fiber_classes

_DIGITS = "0123456789"
MAX_DEPTH = 100
MAX_DIGITS = 1000
MAX_ARG = 1000

# One row per precedence level, loosest first: the operators of the level and
# whether a chain of them may go on after the first.
_LEVELS = ((("==",), False), (("+", "-"), True), (("*", "div"), True))

# name -> (what it takes, fixed leading arguments, lower bound of the last
# argument, class builder applied to the last argument)
_CTORS = {
    "P": ("one nonnegative integer", (), 0, projective_class),
    "Gr": ("arguments (2, n) with n >= 4", (2,), 4, grassmannian_class),
    "H": ("arguments (2, n) with n >= 4", (2,), 4, hyperplane_section_class),
    "F1": ("one integer n >= 4", (), 4, lambda n: fiber_classes(n)[0]),
    "F2": ("one integer n >= 4", (), 4, lambda n: fiber_classes(n)[1]),
    "SumEven": ("one integer n >= 2", (), 2, sum_even_powers),
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


def _eval(node):
    kind = node[0]
    if kind == "int":
        return LPoly({0: node[1]})
    if kind == "L":
        return LPoly.monomial(1)
    if kind == "ctor":
        name, args = node[1], node[2]
        takes, fixed, low, build = _CTORS[name]
        if not (args[:-1] == fixed and args[-1] >= low):
            raise EvalError(f"{name} takes {takes}", _show(node))
        try:
            return build(args[-1])
        except PGError as exc:
            raise EvalError(str(exc), _show(node)) from exc
    op, lhs, rhs = node[1], _eval(node[2]), _eval(node[3])
    if isinstance(lhs, bool) or isinstance(rhs, bool):
        raise EvalError("comparison results cannot feed arithmetic", _show(node))
    if op != "div":
        return _ARITHMETIC[op](lhs, rhs)
    if rhs.is_zero():
        raise EvalError("division by zero", _show(node))
    try:
        return lhs.div_exact(rhs)
    except NonExactDivision as exc:
        raise EvalError(f"non-exact division ({exc})", _show(node)) from exc


def eval_dsl(source: str):
    """Parse and evaluate one expression; returns an LPoly or, for a
    comparison, a bool.  ParseError carries the line and column."""
    return _eval(_Parser(source).parse())
