"""Exact arithmetic over the rational function field k(z).

Subpackages by topic: `poly` / `ratfun` for the exact core, `divisors` for
effective divisors on P^1 and the pole-behaviour predicates, `elliptic` for
the reference elliptic surface with heights and Kodaira fibers, `analytic`
for the computable transcendental function, `definability` for slice
enumeration, Hermite reduction and the Frobenius decomposition, and `cli`
for the command-line front end.
"""

from .fields import (Field, FieldMismatchError, FpElement, PrimeField, QQ,
                     RationalField)
from .poly import InseparablePartError, Poly, poly_gcd, radical, \
    squarefree_decomposition
from .ratfun import INFINITY, RatFun, SquareResult
from .textio import ParseError, parse_point, parse_poly, parse_ratfun

__version__ = "0.1.0"

__all__ = [
    "Field", "FieldMismatchError", "FpElement", "PrimeField", "QQ",
    "RationalField", "InseparablePartError", "Poly", "poly_gcd", "radical",
    "squarefree_decomposition", "INFINITY", "RatFun", "SquareResult",
    "ParseError", "parse_point", "parse_poly", "parse_ratfun",
    "__version__",
]
