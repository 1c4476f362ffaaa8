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

from .errors import EvalError, NonExactDivision, ParseError, PGError
from .ring import LPoly, projective_class
from .schubert import grassmannian_class, hyperplane_section_class, sum_even_powers
from .pairs import fiber_classes

_DIGITS = "0123456789"
MAX_DEPTH = 100
MAX_DIGITS = 1000
MAX_ARG = 1000


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return f"{self.kind}:{self.value!r}@{self.line}:{self.column}"


def _tokenize(source: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if source.startswith("==", i):
            tokens.append(_Token("op", "==", line, col))
            i += 2
            col += 2
            continue
        if ch in "+-*(),":
            tokens.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(source) and source[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", line, col)
            tokens.append(_Token("int", int(source[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "op" if word == "div" else "name"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", None, line, col))
    return tokens


# AST nodes: ("int", v) ("L",) ("ctor", name, [ints], text) ("bin", op, lhs, rhs, text)


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> _Token:
        tok = self.next()
        if tok.kind != "op" or tok.value != value:
            raise ParseError(f"expected {value!r}, found {tok.value!r}", tok.line, tok.column)
        return tok

    def deeper(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", tok.line, tok.column)

    def parse(self):
        node = self.cmp()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {tok.value!r}", tok.line, tok.column)
        return node

    def cmp(self):
        lhs = self.sum()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "==":
            self.next()
            self.deeper(tok)
            rhs = self.sum()
            self.depth -= 1
            return ("bin", "==", lhs, rhs)
        return lhs

    def sum(self):
        start = self.depth
        node = self.prod()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in ("+", "-"):
                self.next()
                self.deeper(tok)
                node = ("bin", tok.value, node, self.prod())
            else:
                self.depth = start
                return node

    def prod(self):
        start = self.depth
        node = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in ("*", "div"):
                self.next()
                self.deeper(tok)
                node = ("bin", tok.value, node, self.atom())
            else:
                self.depth = start
                return node

    def atom(self):
        tok = self.next()
        if tok.kind == "int":
            return ("int", tok.value)
        if tok.kind == "name":
            if tok.value == "L":
                return ("L",)
            if tok.value in _CTORS:
                self.expect("(")
                args = [self._int_arg()]
                while self.peek().kind == "op" and self.peek().value == ",":
                    self.next()
                    args.append(self._int_arg())
                self.expect(")")
                return ("ctor", tok.value, args)
            raise ParseError(f"unknown name {tok.value!r}", tok.line, tok.column)
        if tok.kind == "op" and tok.value == "(":
            self.deeper(tok)
            node = self.cmp()
            self.expect(")")
            self.depth -= 1
            return node
        raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.column)

    def _int_arg(self) -> int:
        tok = self.next()
        if tok.kind != "int":
            raise ParseError(
                f"constructor arguments must be integer literals, found {tok.value!r}",
                tok.line,
                tok.column,
            )
        if tok.value > MAX_ARG:
            raise ParseError(f"constructor argument {tok.value} exceeds {MAX_ARG}", tok.line, tok.column)
        return tok.value


def _ctor_p(args):
    if len(args) != 1 or args[0] < 0:
        raise EvalError("P takes one nonnegative integer", f"P{tuple(args)}")
    return projective_class(args[0])


def _ctor_gr(args):
    if len(args) != 2 or args[0] != 2 or args[1] < 4:
        raise EvalError("Gr takes arguments (2, n) with n >= 4", f"Gr{tuple(args)}")
    return grassmannian_class(args[1])


def _ctor_h(args):
    if len(args) != 2 or args[0] != 2 or args[1] < 4:
        raise EvalError("H takes arguments (2, n) with n >= 4", f"H{tuple(args)}")
    return hyperplane_section_class(args[1])


def _ctor_f1(args):
    if len(args) != 1 or args[0] < 4:
        raise EvalError("F1 takes one integer n >= 4", f"F1{tuple(args)}")
    return fiber_classes(args[0])[0]


def _ctor_f2(args):
    if len(args) != 1 or args[0] < 4:
        raise EvalError("F2 takes one integer n >= 4", f"F2{tuple(args)}")
    return fiber_classes(args[0])[1]


def _ctor_sum_even(args):
    if len(args) != 1 or args[0] < 2:
        raise EvalError("SumEven takes one integer n >= 2", f"SumEven{tuple(args)}")
    return sum_even_powers(args[0])


_CTORS = {
    "P": _ctor_p,
    "Gr": _ctor_gr,
    "H": _ctor_h,
    "F1": _ctor_f1,
    "F2": _ctor_f2,
    "SumEven": _ctor_sum_even,
}


def _show(node) -> str:
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "L":
        return "L"
    if kind == "ctor":
        return f"{node[1]}({', '.join(map(str, node[2]))})"
    op = node[1]
    return f"({_show(node[2])} {op} {_show(node[3])})"


def _eval(node):
    kind = node[0]
    if kind == "int":
        return LPoly({0: node[1]})
    if kind == "L":
        return LPoly.monomial(1)
    if kind == "ctor":
        try:
            return _CTORS[node[1]](node[2])
        except EvalError:
            raise
        except PGError as exc:
            raise EvalError(str(exc), _show(node)) from exc
    op, lhs_node, rhs_node = node[1], node[2], node[3]
    lhs = _eval(lhs_node)
    rhs = _eval(rhs_node)
    if isinstance(lhs, bool) or isinstance(rhs, bool):
        raise EvalError("comparison results cannot feed arithmetic", _show(node))
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "==":
        return lhs == rhs
    if op == "div":
        if rhs.is_zero():
            raise EvalError("division by zero", _show(node))
        try:
            return lhs.div_exact(rhs)
        except NonExactDivision as exc:
            raise EvalError(f"non-exact division ({exc})", _show(node)) from exc
    raise EvalError(f"unknown operator {op!r}", _show(node))


def eval_dsl(source: str):
    """Parse and evaluate one expression; returns an LPoly or, for a
    comparison, a bool.  ParseError carries the line and column."""
    return _eval(_Parser(source).parse())
