"""Text syntax for polynomials and rational functions.

Accepted syntax: integer or a/b rational coefficients, the variable z,
operators + - * / ^ (also **), and parentheses, e.g. "3/4*z^2 - z + 1" or
"(z^2 + 1)/(z - 5)".  Whitespace is ignored.  Exponents may be negative on
nonzero subexpressions.  Any variable other than z is rejected, as is any
non-univariate input.

Expressions evaluate in exact rational-function arithmetic over the given
field, so "1/z^2 - 2 + z^2" and "(1 - z^2)^2/z^2" parse to the same value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .fields import Field, QQ
from .poly import Poly
from .ratfun import INFINITY, RatFun


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPS = set("+-*/^()")
_INFINITY_TOKENS = ("inf", "oo", "infinity")


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens: List[Tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if text.startswith("**", i):
            tokens.append(("op", "^", i))
            i += 2
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, field: Field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> RatFun:
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self) -> RatFun:
        value = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self) -> RatFun:
        value = self.unary()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "*/":
                self.advance()
                rhs = self.unary()
                if op == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero:
                        raise ParseError("division by zero", pos)
                    value = value / rhs
            else:
                return value

    def unary(self) -> RatFun:
        sign = 1
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                if op == "-":
                    sign = -sign
            else:
                break
        value = self.power()
        return -value if sign < 0 else value

    def power(self) -> RatFun:
        base = self.atom()
        kind, op, pos = self.peek()
        if kind == "op" and op == "^":
            self.advance()
            exponent = self.exponent()
            if exponent < 0 and base.is_zero:
                raise ParseError("negative power of zero", pos)
            return base ** exponent
        return base

    def exponent(self) -> int:
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            if value == "-":
                sign = -1
            kind, value, pos = self.peek()
        if kind != "int":
            raise ParseError("expected integer exponent", pos)
        self.advance()
        return sign * value

    def atom(self) -> RatFun:
        kind, value, pos = self.advance()
        if kind == "int":
            return RatFun.constant(self.field.coerce(value), self.field)
        if kind == "name":
            if value != "z":
                raise ParseError(
                    f"unknown variable {value!r}; only univariate input in z "
                    "is accepted", pos)
            return RatFun.gen(self.field)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, z, or '('", pos)


def parse_ratfun(text: str, field: Field = QQ) -> RatFun:
    """Parse text into a rational function over the given field."""
    return _Parser(text, field).parse()


def parse_poly(text: str, field: Field = QQ) -> Poly:
    """Parse text that must denote a polynomial."""
    f = parse_ratfun(text, field)
    if f.den.degree != 0:
        raise ParseError(f"{text!r} is not a polynomial", 0)
    return f.num


def parse_point(text: str, field: Field = QQ):
    """Parse a base-field point or the token 'inf'."""
    stripped = text.strip()
    if stripped in _INFINITY_TOKENS:
        return INFINITY
    f = parse_ratfun(stripped, field)
    if not f.is_constant:
        raise ParseError(f"{text!r} is not a constant point", 0)
    return f.num.coefficient(0)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational scalar such as '3/4' or '-2'."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}: {exc}", 0) from None
