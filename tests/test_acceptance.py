"""Acceptance suite: the nine headline criteria at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion with its runtime.  Every comparison is exact; the only bands
are the ones the criteria themselves state (height estimates in
[0.45, 0.55], growth ratios in [0.85, 1.15]).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from funcfield.cli import dispatch
from funcfield.definability import (frobenius_decompose, is_derivative,
                                    nonsquare_pair_check)
from funcfield.elliptic import (canonical_height_estimate, default_curve,
                                degree_growth_report, ec_add, ec_multiply,
                                generator_point, naive_height, on_curve)
from funcfield.fields import PrimeField, QQ
from funcfield.poly import Poly, poly_gcd, squarefree_decomposition
from funcfield.ratfun import RatFun
from funcfield.textio import parse_poly
from funcfield.verify import (random_poly, random_ratfun, verify_analytic,
                              verify_divisors, verify_slicer)


@contextmanager
def criterion(number: int, label: str, limit_seconds: float):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed or elapsed >= limit_seconds else "PASS"
        print(f"ACCEPTANCE {number} ({label}): {status} "
              f"[{elapsed:.2f}s, limit {limit_seconds:g}s]")
    assert elapsed < limit_seconds, f"criterion {number} exceeded its runtime"


def _suite_checks(suite):
    return {check.name: check for check in suite.checks}


def test_criterion_1_elliptic_fibers():
    with criterion(1, "elliptic fibers", 1.0):
        report = dispatch(["ec-fibers", "--json", "--stable"])
        assert report.exit_code == 0
        fibers = report.outputs["fibers"]
        block = parse_poly("4*z^3 + 27").monic()
        finite = [f for f in fibers if f["place"] != "inf"]
        assert len(finite) == 1
        assert parse_poly(finite[0]["place"]) == block
        assert finite[0]["geometric_fibers"] == 3
        assert finite[0]["type"] == "I1" and finite[0]["v_delta"] == 1
        infinite = [f for f in fibers if f["place"] == "inf"]
        assert len(infinite) == 1
        assert infinite[0]["type"] == "III*"
        assert infinite[0]["v_c4"] == 3
        assert infinite[0]["v_c6"] >= 5
        assert infinite[0]["v_delta"] == 9
        assert report.outputs["delta_degree_total"] == 12
        assert dispatch(["ec-rank"]).outputs["rank"] == 1


def test_criterion_2_canonical_height():
    with criterion(2, "canonical height", 30.0):
        curve, base = default_curve(), generator_point()
        assert naive_height(curve, ec_multiply(curve, 2, base)) == 2
        for k in (1, 2, 3):
            estimate = canonical_height_estimate(curve, base, k)
            assert Fraction(45, 100) <= estimate <= Fraction(55, 100)


def test_criterion_3_degree_growth():
    with criterion(3, "degree growth", 300.0):
        curve, base = default_curve(), generator_point()
        rows = degree_growth_report(curve, base, 8)
        degrees = {n: degree for n, degree, _ in rows}
        for n, _, ratio in rows:
            if n >= 6:
                assert Fraction(85, 100) <= ratio <= Fraction(115, 100)
        accumulated = base
        for n in range(2, 9):
            accumulated = ec_add(curve, accumulated, base)
            multiple = ec_multiply(curve, n, base)
            assert accumulated == multiple
            assert naive_height(curve, multiple) == degrees[n]


def test_criterion_4_analytic_function():
    with criterion(4, "analytic function", 60.0):
        checks = _suite_checks(verify_analytic())
        assert checks["exact-values-with-zero-tails"].ok
        assert checks["series-parity-positivity"].ok
        assert checks["coefficient-bound-certificate"].ok
        assert (checks["exact-values-with-zero-tails"].detail
                == "first 100 enumerated rationals")
        assert checks["series-parity-positivity"].detail == "degrees up to 40"
        assert (checks["coefficient-bound-certificate"].detail
                == "100 complex rational samples, n <= 10")


def test_criterion_5_divisor_predicates():
    with criterion(5, "divisor predicates", 30.0):
        checks = _suite_checks(verify_divisors())
        assert checks["pole-degree-equals-map-degree"].ok
        assert checks["veps-infinity-multiplicity"].ok
        assert checks["multiplicity-contradiction"].ok
        assert (checks["pole-degree-equals-map-degree"].detail
                == "500 random rational functions")
        assert (checks["veps-infinity-multiplicity"].detail
                == "200 members across eps in {1/4, 1/2, 1}")
        assert (checks["multiplicity-contradiction"].detail
                == "50 random (P, Q, r, eps, m) tuples")


def test_criterion_6_campana_and_pole_counts():
    with criterion(6, "campana and pole counts", 10.0):
        checks = _suite_checks(verify_divisors())
        assert checks["campana-ell-one-accepts-all"].ok
        assert checks["campana-infinity-is-polynomials"].ok
        assert checks["pn-matches-radical-count"].ok
        assert (checks["campana-ell-one-accepts-all"].detail
                == "200 random functions")
        assert (checks["campana-infinity-is-polynomials"].detail
                == "200 mixed samples")
        assert (checks["pn-matches-radical-count"].detail
                == "200 random functions vs radical-degree oracle")


def test_criterion_7_witness_families():
    with criterion(7, "witness families", 10.0):
        z = RatFun.gen(QQ)
        for lam in (Fraction(1), Fraction(2), Fraction(3, 5), Fraction(7)):
            lz = RatFun.constant(lam, QQ) * z
            f = lz ** -2 - 2 + lz ** 2
            assert f.is_square("geometric").ok
            assert (f + 4).is_square("geometric").ok
            assert not nonsquare_pair_check(f).member

            pole = 1 / (z - RatFun.constant(lam, QQ))
            ok, _ = is_derivative(pole)
            assert not ok
            ok, certificate = is_derivative(pole ** 2)
            assert ok and certificate.derivative() == pole ** 2

        rng = random.Random(170017)
        for p in (2, 3):
            field = PrimeField(p)
            zp = RatFun.gen(field)
            for _ in range(50):
                f = random_ratfun(rng, max_degree=4, field=field,
                                  nonzero=True)
                decomposition = frobenius_decompose(f)
                reassembled = sum(
                    (zp ** j * comp ** p
                     for j, comp in enumerate(decomposition.components)),
                    RatFun.zero(field))
                assert reassembled == f
            assert frobenius_decompose(zp).in_d
            assert not frobenius_decompose(zp ** p).in_d
        f2_gen = RatFun.gen(PrimeField(2))
        assert not frobenius_decompose(f2_gen ** 2).in_d


def test_criterion_8_slice_enumeration():
    with criterion(8, "slice enumeration", 5.0):
        suite = verify_slicer()
        assert suite.ok, [check.name for check in suite.checks if not check.ok]


def test_criterion_9_algebra_core():
    with criterion(9, "algebra core", 30.0):
        curve, base = default_curve(), generator_point()
        multiples = {n: ec_multiply(curve, n, base)
                     for n in range(-4, 5) if n}
        rng = random.Random(424242)
        triples = 0
        while triples < 50:
            a, b, c = (rng.choice(list(multiples)) for _ in range(3))
            pa, pb, pc = multiples[a], multiples[b], multiples[c]
            left = ec_add(curve, ec_add(curve, pa, pb), pc)
            right = ec_add(curve, pa, ec_add(curve, pb, pc))
            assert left == right
            assert on_curve(curve, left)
            triples += 1

        for _ in range(500):
            p = random_poly(rng, 4, nonzero=True)
            q = random_poly(rng, 2, nonzero=True)
            product = p * p * q
            rebuilt = Poly.constant(product.lc, QQ)
            for s, e in squarefree_decomposition(product):
                rebuilt = rebuilt * s ** e
                assert poly_gcd(s, s.derivative()).degree == 0
            assert rebuilt == product

        from funcfield.definability import hermite_reduce
        for _ in range(200):
            g = random_ratfun(rng, max_degree=4, nonzero=True)
            h, remainder = hermite_reduce(g)
            assert h.derivative() + remainder == g
            assert poly_gcd(remainder.den,
                            remainder.den.derivative()).degree == 0
