"""analytic-eval: exact values, series and enclosures of the function f.

Each round evaluates f exactly at five consecutive Calkin-Wilf indices of
an ascending sweep starting in [100, 180] (the points share the prefix
q_1..q_m of the sum) and at five isolated deep indices, one from each
stratum of [250, 400) of width 30; it also
runs `series_of_g` with a cutoff from [60, 120] and two `eval_interval`
calls.  Indices are those of the Calkin-Wilf order, so the exact sum at
index i has i terms; a sign is drawn at random because f is even.  Points
reach the library as text and go through `textio.parse_rational`.

Checks: refmath re-evaluates the same finite sum with integers only, modulo
two 61-bit primes, after finding the number of terms from its own
Calkin-Wilf walk.  Series coefficients are checked the same way.  Each
enclosure must contain the exact value at its endpoints, computed with
refmath.f_exact (an exact integer-only evaluation).
"""

from __future__ import annotations

import random
from fractions import Fraction

import refmath
from common import Job, stratified

TRACE_ROUNDS_PER_S = 0.3
MAX_INDEX = 400
SERIES_BUFFER = 8  # the library's extra product terms past N/2
SWEEP_LENGTH = 5
DEEP_STRATA = 5


class Workload:
    def __init__(self, seed: int):
        from funcfield import analytic, textio
        self.analytic, self.textio = analytic, textio
        self.seed = seed
        top = MAX_INDEX + 200
        bounds = refmath.a_bounds(top)
        self.bounds = bounds
        self.bounds_mod = {ell: [b % ell for b in bounds]
                           for ell in refmath.PRIMES}

    def _value_ok(self, value, a):
        for ell in refmath.PRIMES:
            expected = refmath.f_mod(a.numerator, a.denominator, ell,
                                     self.bounds_mod[ell])
            got = refmath.frac_mod(value, ell)
            if expected is None or got is None or expected != got:
                return False
        return True

    def exact_job(self, kind, index, sign):
        a = sign * Fraction(*refmath.cw_pair(index))
        ev, parse = self.analytic.eval_exact, self.textio.parse_rational
        text = str(a)
        return Job(kind, lambda: ev(parse(text)),
                   lambda value: isinstance(value, Fraction)
                   and self._value_ok(value, a))

    def series_job(self, cutoff):
        series_of_g = self.analytic.series_of_g

        def check(series):
            cs = series.coefficients
            if series.cutoff != cutoff or len(cs) != cutoff + 1:
                return False
            if any(cs[k] != 0 for k in range(1, cutoff + 1, 2)):
                return False
            for ell in refmath.PRIMES:
                expected = refmath.series_mod(cutoff, SERIES_BUFFER, ell,
                                              self.bounds_mod[ell])
                if [refmath.frac_mod(cs[2 * j], ell)
                        for j in range(len(expected))] != expected:
                    return False
            return True
        return Job("series_of_g", lambda: series_of_g(cutoff), check)

    def interval_job(self, lo_index, hi_index, terms):
        lo = Fraction(*refmath.cw_pair(lo_index))
        hi = Fraction(*refmath.cw_pair(hi_index))
        if lo > hi:
            lo, hi = hi, lo
        ev, parse = self.analytic.eval_interval, self.textio.parse_rational
        lo_text, hi_text = str(lo), str(hi)

        def check(box):
            for a in (lo, hi):
                num, den = refmath.f_exact(a.numerator, a.denominator,
                                           self.bounds)
                if not box.lo <= Fraction(num, den) <= box.hi:
                    return False
            return True
        return Job("eval_interval",
                   lambda: ev(parse(lo_text), parse(hi_text), terms), check)

    def round(self, r: int):
        rng = random.Random(self.seed * 1_000_003 + r)
        # The sweep starts in one of four narrow windows of [100, 195] and
        # each deep index in a window of 10 at the bottom of its stratum:
        # cost grows like the cube of the index, so narrow windows keep
        # every round, and every seed, in the same cost band.
        start = 100 + 25 * (r % 4) + rng.randint(0, 5)
        jobs = [self.exact_job("eval_exact_sweep", start + i,
                               rng.choice((1, -1)))
                for i in range(SWEEP_LENGTH)]
        jobs += [self.exact_job("eval_exact_deep",
                                250 + 30 * s + rng.randint(0, 9),
                                rng.choice((1, -1)))
                 for s in range(DEEP_STRATA)]
        jobs.append(self.series_job(2 * stratified(rng, 30, 60, 4, r)))
        point = rng.randint(2, 60)
        jobs.append(self.interval_job(point, point, rng.randint(4, 40)))
        jobs.append(self.interval_job(rng.randint(2, 60), rng.randint(2, 60),
                                      rng.randint(4, 40)))
        return jobs

    def warmup(self):
        self.analytic.eval_exact(Fraction(1, 2))
