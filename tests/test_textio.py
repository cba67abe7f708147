"""The text parser: a differential test against RatFun arithmetic on random
expression trees, recorded refusals of malformed input, and the work one
parse may do."""

import operator
import random
from typing import NamedTuple, Optional, Tuple

import pytest

from funcfield import poly, ratfun, textio
from funcfield.budget import BudgetError
from funcfield.cli import dispatch
from funcfield.fields import PrimeField, QQ
from funcfield.ratfun import RatFun
from funcfield.textio import ParseError, parse_point, parse_poly, parse_ratfun

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(97)]
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


class Part(NamedTuple):
    """Rendered text, its value (None once refused) and the first refusal
    (message, position) the parser must raise, positions relative to the
    start of `text`.  `rank` 3 is an atom, 2 a power or signed operand
    (a bare operand of * / + -), 1 a sum or product."""

    text: str
    value: Optional[RatFun]
    refusal: Optional[Tuple[str, int]]
    rank: int


def _cat(*pieces):
    """Concatenate strings and Parts; the first Part refusal, shifted."""
    text, refusal = "", None
    for piece in pieces:
        if isinstance(piece, Part):
            if refusal is None and piece.refusal:
                refusal = (piece.refusal[0], piece.refusal[1] + len(text))
            piece = piece.text
        text += piece
    return text, refusal


def leaf(text, field):
    value = RatFun.gen(field) if text == "z" else \
        RatFun.constant(field.coerce(int(text)), field)
    return Part(text, value, None, 3)


def paren(part):
    text, refusal = _cat("(", part, ")")
    return Part(text, part.value, refusal, 3)


def at_least(part, rank):
    return part if part.rank >= rank else paren(part)


def binary(op, left, right, pad=" "):
    left, right = at_least(left, 2), at_least(right, 2)
    text, refusal = _cat(left, pad + op + pad, right)
    if refusal is None and op == "/" and right.value.is_zero:
        refusal = ("division by zero", len(left.text) + len(pad))
    value = None if refusal else OPS[op](left.value, right.value)
    return Part(text, value, refusal, 1)


def power(base, exponent, op="^"):
    base = at_least(base, 3)
    text, refusal = _cat(base, op, str(exponent))
    if refusal is None and exponent < 0 and base.value.is_zero:
        refusal = ("negative power of zero", len(base.text))
    value = None if refusal else base.value ** exponent
    return Part(text, value, refusal, 2)


def signed(signs, part):
    part = at_least(part, 2)
    text, refusal = _cat(signs, part)
    value = None
    if refusal is None:
        value = -part.value if signs.count("-") % 2 else part.value
    return Part(text, value, refusal, 2)


def random_part(rng, field, depth):
    if depth == 0 or rng.random() < 0.15:
        return leaf(rng.choice(["z", "z", str(rng.randrange(13)),
                                str(rng.choice((97, 100, 194)))]), field)
    sub = lambda: random_part(rng, field, depth - 1)
    shape = rng.choice(["binary"] * 4 + ["power", "signed", "paren",
                                          "shared", "cancel"])
    if shape == "binary":
        return binary(rng.choice("+-*/"), sub(), sub(),
                      rng.choice(("", " ")))
    if shape == "power":
        return power(sub(), rng.randint(-3, 3), rng.choice(("^", "**")))
    if shape == "signed":
        return signed("".join(rng.choice("+-") + rng.choice(("", " "))
                              for _ in range(rng.randint(1, 3))), sub())
    if shape == "paren":
        return paren(paren(sub()))
    if shape == "shared":
        den = sub()
        return binary(rng.choice("+-"), binary("/", sub(), den),
                      binary("/", sub(), den))
    x, one = sub(), leaf("1", field)
    return rng.choice([
        lambda: binary("*", binary("/", one, x), x),
        lambda: binary("/", binary("-", power(x, 2), one),
                       binary("-", x, one)),
        lambda: binary("-", x, x),
        lambda: binary("/", x, x),
        lambda: power(binary("-", x, x), -rng.randint(1, 3)),
    ])()


def assert_refuses(parse, text, field, message, position):
    with pytest.raises(ParseError) as info:
        parse(text, field)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_parser_matches_ratfun_arithmetic_on_random_trees(field):
    rng = random.Random(f"textio-{field}")
    seen = set()
    for _ in range(150):
        part = random_part(rng, field, rng.randint(1, 4))
        text = part.text
        if part.refusal:
            seen.add(part.refusal[0])
            for parse in (parse_ratfun, parse_poly, parse_point):
                assert_refuses(parse, text, field, *part.refusal)
            continue
        value = part.value
        seen.add("constant" if value.is_constant else
                 "polynomial" if value.den.degree == 0 else "fraction")
        parsed = parse_ratfun(text, field)
        assert parsed == value and str(parsed) == str(value), text
        if value.den.degree == 0:
            assert parse_poly(text, field) == value.num, text
        else:
            assert_refuses(parse_poly, text, field,
                           f"{text!r} is not a polynomial", 0)
        if value.is_constant:
            point = parse_point(text, field)
            assert point == value.num.coefficient(0), text
            assert str(point) == str(value.num.coefficient(0))
        else:
            assert_refuses(parse_point, text, field,
                           f"{text!r} is not a constant point", 0)
    assert seen >= {"constant", "polynomial", "fraction", "division by zero",
                    "negative power of zero"}


def test_cancelling_subexpressions_parse_to_their_value():
    assert parse_point("(1/z)*z") == 1
    assert parse_poly("(z^2-1)/(z-1)") == parse_poly("z + 1")
    assert parse_poly("1/(z+1) + z/(z+1)") == parse_poly("1")
    assert parse_point("(z^2 + 1)/(2*z^2 + 2) - 1/2") == 0
    assert parse_poly("(z^2 + 1)/2") == parse_poly("1/2*z^2 + 1/2")
    f5 = PrimeField(5)
    assert parse_poly("(z^5 - z)/(z^4 - 1)", f5) == parse_poly("z", f5)
    assert parse_point("(3*z + 1)/(z + 2)", f5) == 3


# (function, p or 0 for Q, text, message, position): every refusal of
# malformed input, message and position, pinned byte for byte.
MALFORMED = [
    ("ratfun", 0, "", "expected a number, z, or '(' (at position 0)", 0),
    ("ratfun", 0, "   ", "expected a number, z, or '(' (at position 3)", 3),
    ("ratfun", 0, "z +", "expected a number, z, or '(' (at position 3)", 3),
    ("ratfun", 0, "(z", "expected ')' (at position 2)", 2),
    ("ratfun", 0, "((z)", "expected ')' (at position 4)", 4),
    ("ratfun", 0, "z)", "trailing input (at position 1)", 1),
    ("ratfun", 0, "()", "expected a number, z, or '(' (at position 1)", 1),
    ("ratfun", 0, "*z", "expected a number, z, or '(' (at position 0)", 0),
    ("ratfun", 0, "z**", "expected integer exponent (at position 3)", 3),
    ("ratfun", 0, "z^", "expected integer exponent (at position 2)", 2),
    ("ratfun", 0, "z^z", "expected integer exponent (at position 2)", 2),
    ("ratfun", 0, "z^-", "expected integer exponent (at position 3)", 3),
    ("ratfun", 0, "z^--1", "expected integer exponent (at position 3)", 3),
    ("ratfun", 0, "z^(2)", "expected integer exponent (at position 2)", 2),
    ("ratfun", 0, "z^2^3", "trailing input (at position 3)", 3),
    ("ratfun", 0, "z ^ 1.5", "unexpected character '.' (at position 5)", 5),
    ("ratfun", 0, "3*q + 1", "unknown variable 'q'; only univariate input "
     "in z is accepted (at position 2)", 2),
    ("ratfun", 0, "x*y", "unknown variable 'x'; only univariate input in z "
     "is accepted (at position 0)", 0),
    ("ratfun", 0, "z @ 1", "unexpected character '@' (at position 2)", 2),
    ("ratfun", 0, "z z", "trailing input (at position 2)", 2),
    ("ratfun", 0, "2 3", "trailing input (at position 2)", 2),
    ("ratfun", 0, "z_1", "unknown variable 'z_1'; only univariate input in "
     "z is accepted (at position 0)", 0),
    ("ratfun", 0, "Z", "unknown variable 'Z'; only univariate input in z is "
     "accepted (at position 0)", 0),
    ("ratfun", 0, "ｚ + 1", "unknown variable 'ｚ'; only univariate "
     "input in z is accepted (at position 0)", 0),
    ("ratfun", 0, "z²", "unknown variable 'z²'; only univariate "
     "input in z is accepted (at position 0)", 0),
    ("ratfun", 0, "1/0", "division by zero (at position 1)", 1),
    ("ratfun", 0, "1/(z - z)", "division by zero (at position 1)", 1),
    ("ratfun", 0, "z/(1/z - 1/z)", "division by zero (at position 1)", 1),
    ("ratfun", 0, "0^-1", "negative power of zero (at position 1)", 1),
    ("ratfun", 0, "(z - z)^-2", "negative power of zero (at position 7)", 7),
    ("ratfun", 0, "(z/z - 1)**-3",
     "negative power of zero (at position 9)", 9),
    ("ratfun", 0, "1/(z-1) + 2/(z - 1 - z + 1)",
     "division by zero (at position 11)", 11),
    ("ratfun", 0, "(1/0)^-1", "division by zero (at position 2)", 2),
    ("ratfun", 2, "1/2", "division by zero (at position 1)", 1),
    ("ratfun", 2, "z/(z + z)", "division by zero (at position 1)", 1),
    ("ratfun", 2, "(1 + 1)^-1", "negative power of zero (at position 7)", 7),
    ("ratfun", 3, "(3*z)^-1", "negative power of zero (at position 5)", 5),
    ("ratfun", 5, "z^-1/(5*z)", "division by zero (at position 4)", 4),
    ("ratfun", 97, "(z + 97)/(97*z^2)", "division by zero (at position 8)",
     8),
    ("poly", 0, "1/z", "'1/z' is not a polynomial (at position 0)", 0),
    ("poly", 0, "(z^2 + 1)/(z - 1)",
     "'(z^2 + 1)/(z - 1)' is not a polynomial (at position 0)", 0),
    ("poly", 0, "z^-1 + z",
     "'z^-1 + z' is not a polynomial (at position 0)", 0),
    ("poly", 0, "z + q", "unknown variable 'q'; only univariate input in z "
     "is accepted (at position 4)", 4),
    ("poly", 2, "z/(z + 1)",
     "'z/(z + 1)' is not a polynomial (at position 0)", 0),
    ("poly", 3, "1/(z^3 - z)",
     "'1/(z^3 - z)' is not a polynomial (at position 0)", 0),
    ("poly", 5, "(z + 1)^-2*(z + 1)",
     "'(z + 1)^-2*(z + 1)' is not a polynomial (at position 0)", 0),
    ("poly", 97, "1/(z - 1) - 1/(z + 1)",
     "'1/(z - 1) - 1/(z + 1)' is not a polynomial (at position 0)", 0),
    ("point", 0, "z", "'z' is not a constant point (at position 0)", 0),
    ("point", 0, "1/z", "'1/z' is not a constant point (at position 0)", 0),
    ("point", 0, " z^2/(z + 1) ",
     "' z^2/(z + 1) ' is not a constant point (at position 0)", 0),
    ("point", 0, "in", "unknown variable 'in'; only univariate input in z "
     "is accepted (at position 0)", 0),
    ("point", 0, "inf + 1", "unknown variable 'inf'; only univariate input "
     "in z is accepted (at position 0)", 0),
    ("point", 0, "1/(1 - 1)", "division by zero (at position 1)", 1),
    ("point", 2, "z^2 + z",
     "'z^2 + z' is not a constant point (at position 0)", 0),
    ("point", 3, "z^3", "'z^3' is not a constant point (at position 0)", 0),
    ("point", 5, "1/(z^5 - z)",
     "'1/(z^5 - z)' is not a constant point (at position 0)", 0),
    ("point", 97, "(z + 1)/(z + 2)",
     "'(z + 1)/(z + 2)' is not a constant point (at position 0)", 0),
]


@pytest.mark.parametrize("kind,p,text,message,position", MALFORMED)
def test_malformed_input_refusals_are_unchanged(kind, p, text, message,
                                                position):
    parse = {"ratfun": parse_ratfun, "poly": parse_poly,
             "point": parse_point}[kind]
    with pytest.raises(ParseError) as info:
        parse(text, PrimeField(p) if p else QQ)
    assert str(info.value) == message
    assert info.value.position == position


def test_tokenizer_reads_only_decimal_digits():
    with pytest.raises(ParseError) as info:
        parse_ratfun("3²")
    assert str(info.value) == "unexpected character '²' (at position 1)"
    assert info.value.position == 1
    report = dispatch(["deg", "--f", "3²"])
    assert report.exit_code == 2
    assert report.outputs["error"] == str(info.value)
    # Arabic-Indic three is a decimal digit, as int() reads it
    assert parse_ratfun("٣*z") == parse_ratfun("3*z")


RATIONAL_TEXTS = [
    "3*(z - 1)^2*(z + 4)/((z + 2)^3*(z - 7))",
    "-5*(z + 3)*(z - 6)^2/((z + 1)^2*z^3)",
    "1/(z - 2)^3 + 3/(z + 5) - 2*(z - 1)^-2 + z^2 - 4",
    "(z^2 - 1)/(z - 1) + 1/z",
]
F5_POLY_TEXTS = [
    "(3)*z^0 + (1)*z^2 + (4)*z^3",
    "(2)*z^1 + (4)*z^4 + (1)*z^5",
    "(z + 1)^4*(z + 2) - z^3",
    "(z^5 - z)/(z^4 - 1)",
]


@pytest.fixture
def work(monkeypatch):
    """Counts of poly_gcd calls and RatFun constructions."""
    counts = {"gcd": 0, "ratfun": 0}
    gcd = poly.poly_gcd

    def counted_gcd(a, b):
        counts["gcd"] += 1
        return gcd(a, b)
    init, coprime = RatFun.__init__, RatFun._coprime.__func__

    def counted_init(self, *args):
        counts["ratfun"] += 1
        init(self, *args)

    def counted_coprime(cls, *args):
        counts["ratfun"] += 1
        return coprime(cls, *args)
    monkeypatch.setattr(poly, "poly_gcd", counted_gcd)
    monkeypatch.setattr(ratfun, "poly_gcd", counted_gcd)
    monkeypatch.setattr(textio, "poly_gcd", counted_gcd)
    monkeypatch.setattr(RatFun, "__init__", counted_init)
    monkeypatch.setattr(RatFun, "_coprime", classmethod(counted_coprime))
    return counts


def test_parse_poly_takes_no_gcd_and_builds_no_ratfun(work):
    f5 = PrimeField(5)
    for text in F5_POLY_TEXTS:
        parse_poly(text, f5)
        parse_point(f"({text}) - ({text}) + 2", f5)
    parse_poly("3/4*z^2 - (z + 1)^3/2 + 1")
    assert work == {"gcd": 0, "ratfun": 0}


def test_parse_ratfun_takes_one_gcd_and_builds_one_ratfun(work):
    for text in RATIONAL_TEXTS:
        before = dict(work)
        parse_ratfun(text)
        assert work["gcd"] - before["gcd"] <= 1, text
        assert work["ratfun"] - before["ratfun"] == 1, text


def test_a_power_of_a_quotient_is_cancelled_before_it_is_raised(
        work, monkeypatch):
    powers = []
    power = poly.Poly.__pow__

    def recording_pow(self, n):
        powers.append((self.degree, n))
        return power(self, n)

    monkeypatch.setattr(poly.Poly, "__pow__", recording_pow)
    value = parse_ratfun("((z^2 - 1)/(z - 1))^300")
    # one gcd before the power and one at the end; the base is z + 1
    assert work["gcd"] == 2 and (1, 300) in powers
    assert max(degree for degree, _ in powers) == 1
    assert value == parse_ratfun("(z + 1)^300")
    assert parse_ratfun("((z - 1)/(z^2 - 1))^-3") == parse_ratfun("(z + 1)^3")
    # a quotient with nothing in common is raised as it is
    assert parse_ratfun("(z/(z + 1))^2") == parse_ratfun("z^2/(z^2 + 2*z + 1)")


# -- the budget of a power ----------------------------------------------------


def stored_bytes(f):
    """Whole bytes of the stored numerators and denominator of f."""
    return sum(-(-abs(c).bit_length() // 8) for c in f._ints + (f._den,))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_power_bytes_bound_the_expanded_power(field, rng=random.Random(7301)):
    bases = ["z", "1", "2", "-3/4", "z + 1", "z^2 - z - 1", "2*z - 2",
             "(2^64 + 1)*z + 2^64", "z/2 + 1/3", "7*z^3 - 5/6*z + 11"]
    bases += [" + ".join(f"{rng.randint(-99, 99)}*z^{i}"
                         for i in range(rng.randint(1, 6)))
              for _ in range(6)]
    for text in bases:
        if field.characteristic and "/" in text:
            continue
        f = parse_poly(text, field)
        for e in (0, 1, 2, 3, 7, 8, 9, 30):
            assert textio._power_bytes(f, e) >= stored_bytes(f ** e), \
                (text, e)


def test_a_power_over_the_budget_is_refused_before_it_is_expanded(
        monkeypatch):
    powers = []
    power = poly.Poly.__pow__

    def recording_pow(self, n):
        powers.append(n)
        return power(self, n)

    monkeypatch.setattr(poly.Poly, "__pow__", recording_pow)
    for text in ("(z + 1)^200000", "(z + 1)^-200000", "1/(z - 1)^200000",
                 "((z^2 - 1)/(z - 1))^200000", "3^99999999",
                 "z^" + "9" * 400):
        with pytest.raises(BudgetError) as info:
            parse_ratfun(text)
        assert info.value.budget == textio.POWER_BUDGET
        assert info.value.required > textio.POWER_BUDGET
    assert max(powers) == 2  # only the z^2 inside a base was expanded
    # the budget is inclusive: the largest accepted power of z + 1 expands
    base, one = parse_poly("z + 1"), parse_poly("1")

    def required(e):  # numerator and denominator
        return textio._power_bytes(base, e) + textio._power_bytes(one, e)

    monkeypatch.setattr(textio, "POWER_BUDGET", required(40))
    assert parse_poly("(z + 1)^40") == power(base, 40)
    with pytest.raises(BudgetError) as info:
        parse_poly("(z + 1)^41")
    assert info.value.required == required(41)
    # powers of units cost nothing, whatever the exponent
    assert parse_ratfun("(-1)^" + "9" * 400) == RatFun.constant(-1)
