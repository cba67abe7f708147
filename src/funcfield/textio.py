r"""Text syntax for polynomials and rational functions.

Accepted syntax: integer or a/b rational coefficients, the variable z,
operators + - * / ^ (also **), and parentheses, e.g. "3/4*z^2 - z + 1" or
"(z^2 + 1)/(z - 5)".  Whitespace is ignored.  Exponents may be negative on
nonzero subexpressions.  Any variable other than z is rejected, as is any
non-univariate input.

One compiled pattern (`_TOKEN`) splits the text into operators, integers
and names.  Its classes are those of `str`: \s, \d and \w hold the
characters that `isspace`, `isdecimal` and `isalnum` accept, and "_", so
any Unicode decimal digits form an integer ("٣" is 3), and a name is a
run of word characters whose first one is alphabetic or "_".  Any other
character, such as "²" outside a name, is an error at its position.

Expressions evaluate to (numerator, denominator) pairs of polynomials with
one cancellation at the end, so "1/z^2 - 2 + z^2" and "(1 - z^2)^2/z^2"
parse to the same value.  A quotient of two nonconstant polynomials is
cancelled once more before it is raised to a power of 2 or more, so
"((z^2 - 1)/(z - 1))^300" expands (z + 1)^300 and not its uncancelled
form; polynomial bases take no gcd.  A power whose result is predicted
from its base to take more than POWER_BUDGET bytes raises BudgetError
before it is expanded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .budget import BudgetError
from .fields import Field, QQ
from .poly import Poly, _over_lc, poly_gcd
from .ratfun import INFINITY, RatFun

# The largest power the parser expands, in predicted bytes of the result
# (`_power_bytes`); at this size an expansion takes about a second.
POWER_BUDGET = 1_250_000


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_INFINITY_TOKENS = ("inf", "oo", "infinity")

# Operators ("**" before "*"), runs of decimal digits, runs of word
# characters, and any other non-space character, in that order.  Every
# non-space character starts some match, so `finditer` skips exactly the
# whitespace.  `re` has no class for "alphabetic or _", the first
# character of a name (\w also holds numerics such as "²"), so
# `_tokenize` checks it.
_TOKEN = re.compile(r"([-+/^()]|\*\*?)|(\d+)|(\w+)|(\S)")


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens: List[Tuple[str, object, int]] = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        value = match[group]
        if group == 1:
            tokens.append(("op", "^" if value == "**" else value,
                           match.start()))
        elif group == 2:
            tokens.append(("int", int(value), match.start()))
        elif group == 3 and (value[0].isalpha() or value[0] == "_"):
            tokens.append(("name", value, match.start()))
        else:
            raise ParseError(f"unexpected character {value[0]!r}",
                             match.start())
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, field: Field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.one = Poly.one(field)

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

    def times(self, a: Poly, b: Poly) -> Poly:
        """a * b, skipping a factor equal to one (most often the atoms'
        own denominator, `self.one` itself)."""
        one = self.one
        if a is one or a == one:
            return b
        return a if b is one or b == one else a * b

    def parse(self) -> Tuple[Poly, Poly]:
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self) -> Tuple[Poly, Poly]:
        num, den = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rnum, rden = self.term()
                rnum = rnum if op == "+" else -rnum
                if den == rden:
                    num = num + rnum
                else:
                    num = self.times(num, rden) + self.times(rnum, den)
                    den = self.times(den, rden)
            else:
                return num, den

    def term(self) -> Tuple[Poly, Poly]:
        num, den = self.unary()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "*/":
                self.advance()
                rnum, rden = self.unary()
                if op == "/":
                    if rnum.is_zero:
                        raise ParseError("division by zero", pos)
                    rnum, rden = rden, rnum
                num, den = self.times(num, rnum), self.times(den, rden)
            else:
                return num, den

    def unary(self) -> Tuple[Poly, Poly]:
        sign = 1
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                if op == "-":
                    sign = -sign
            else:
                break
        num, den = self.power()
        return (-num, den) if sign < 0 else (num, den)

    def power(self) -> Tuple[Poly, Poly]:
        num, den = self.atom()
        kind, op, pos = self.peek()
        if kind == "op" and op == "^":
            self.advance()
            exponent = self.exponent()
            if exponent < 0:
                if num.is_zero:
                    raise ParseError("negative power of zero", pos)
                num, den, exponent = den, num, -exponent
            if exponent >= 2 and num.degree > 0 and den.degree > 0:
                # a common factor would be raised to the power and only
                # cancelled at the end
                common = poly_gcd(num, den)
                if common.degree > 0:
                    num, den = num // common, den // common
            required = (_power_bytes(num, exponent)
                        + _power_bytes(den, exponent))
            if required > POWER_BUDGET:
                raise BudgetError(required, POWER_BUDGET, "power", "bytes")
            return num ** exponent, den ** exponent
        return num, den

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

    def atom(self) -> Tuple[Poly, Poly]:
        kind, value, pos = self.advance()
        if kind == "int":
            return Poly.constant(value, self.field), self.one
        if kind == "name":
            if value != "z":
                raise ParseError(
                    f"unknown variable {value!r}; only univariate input in z "
                    "is accepted", pos)
            return Poly.gen(self.field), self.one
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, z, or '('", pos)


def _power_bytes(f: Poly, e: int) -> int:
    """A bound on the bytes of f^e for e >= 0, read off f = N / d alone.

    f^e has e deg(f) + 1 coefficients (one for f = 0).  Each numerator of
    N^e is at most |N|_1^e <= 2^B in absolute value, with |N|_1 the sum of
    the absolute values of the coefficients of N and B = e ceil(log2
    |N|_1), so it fits in B // 8 + 1 bytes; a product gives every
    coefficient such a slot of whole bytes, as a Kronecker product does.
    d^e is one more number, bounded the same way.  Over F_p, N holds the
    residues and the bound is that of the same power over Z, which
    reduction mod p only shrinks.
    """
    ints = f._ints
    count = e * (len(ints) - 1) + 1 if ints else 1
    slot = e * (sum(map(abs, ints)) - 1).bit_length() // 8 + 1
    return count * slot + e * (f._den - 1).bit_length() // 8 + 1


def _quotient(text: str, field: Field) -> Optional[Poly]:
    """The parsed value as a polynomial, or None if it is not one."""
    num, den = _Parser(text, field).parse()
    if den.degree == 0:
        return _over_lc(num, den)
    quot, rem = divmod(num, den)
    return None if rem else quot


def parse_ratfun(text: str, field: Field = QQ) -> RatFun:
    """Parse text into a rational function over the given field."""
    return RatFun(*_Parser(text, field).parse())


def parse_poly(text: str, field: Field = QQ) -> Poly:
    """Parse text that must denote a polynomial."""
    value = _quotient(text, field)
    if value is None:
        raise ParseError(f"{text!r} is not a polynomial", 0)
    return value


def parse_point(text: str, field: Field = QQ):
    """Parse a base-field point or the token 'inf'."""
    stripped = text.strip()
    if stripped in _INFINITY_TOKENS:
        return INFINITY
    value = _quotient(stripped, field)
    if value is None or not value.is_constant:
        raise ParseError(f"{text!r} is not a constant point", 0)
    return value.coefficient(0)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational scalar such as '3/4' or '-2'."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}: {exc}", 0) from None


def _checked(value, kind: type, what: str):
    """value, when it is of type `kind` (a JSON true or false is no int)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what}: expected {kind.__name__}, got {value!r}")
    return value
