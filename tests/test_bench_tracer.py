"""The benchmark's tracer (`bench/tracer.py`) still finds what it wraps.

The tracer replaces entry points and operator attributes by name, from
outside the library; an attribute that a refactor drops or moves would
otherwise only show up as a KeyError under `bench/run.py --trace 1`.
"""

from fractions import Fraction
from pathlib import Path

from funcfield.fields import PrimeField, QQ
from funcfield.poly import Poly
from funcfield.ratfun import RatFun

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_runs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    originals = {name: Poly.__dict__[name]
                 for name in ("__init__", "__mul__", "__divmod__")}
    trace = tracer.Tracer()
    try:  # uninstall also undoes a partial install
        trace.install()
        z = RatFun.gen(QQ)
        total = 1 / (z - 1) + z / (2 * z + Fraction(1, 3))
        f97 = PrimeField(97)
        product = Poly([3, 5, 1], f97) * Poly([96, 1], f97)
    finally:
        trace.uninstall()
    # (z^2 + z + 1/3) / (2 z^2 - 5/3 z - 1/3), with a monic denominator
    assert total.num == Poly([Fraction(1, 6), Fraction(1, 2),
                              Fraction(1, 2)], QQ)
    assert total.den == Poly([Fraction(-1, 6), Fraction(-5, 6), 1], QQ)
    assert product == Poly([-3, -2, 4, 1], f97)
    assert all(Poly.__dict__[name] is original
               for name, original in originals.items())
    stats = trace.summarize()[0]
    for name in ("poly.mul", "poly.gcd", "ratfun.arith", "ratfun.init"):
        assert stats[name]["calls"] > 0, name
