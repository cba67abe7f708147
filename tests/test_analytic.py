"""The computable transcendental function and its enumeration machinery."""

import random
from collections import deque
from fractions import Fraction
from itertools import islice
from math import factorial

import pytest

from funcfield import analytic as an


# -- Calkin-Wilf enumeration -------------------------------------------------


def bfs_calkin_wilf(count):
    """Independent breadth-first traversal of the Calkin-Wilf tree."""
    queue = deque([(1, 1)])
    out = []
    while len(out) < count:
        a, b = queue.popleft()
        out.append(Fraction(a, b))
        queue.append((a, a + b))
        queue.append((a + b, b))
    return out


def test_cw_matches_breadth_first_oracle():
    oracle = bfs_calkin_wilf(128)
    assert [an.cw_rational(i) for i in range(1, 129)] == oracle


def test_cw_index_inverts_value():
    for i in range(1, 3000):
        assert an.cw_index(an.cw_rational(i)) == i
    # deep, lopsided paths stay fast because runs of steps are batched
    # through the continued-fraction quotients
    for deep in (Fraction(1, 10**5), Fraction(10**5), Fraction(2, 99991)):
        assert an.cw_rational(an.cw_index(deep)) == deep


def test_q_n_values():
    assert an.q_n(1) == 0
    assert an.q_n(2) == 1
    assert an.q_n(3) == Fraction(1, 4)
    assert an.q_n(4) == 4
    with pytest.raises(ValueError):
        an.q_n(0)


def test_square_index():
    assert an.square_index(0) == 1
    assert an.square_index(1) == 2
    assert an.square_index(-1) == 2
    assert an.square_index(Fraction(1, 2)) == 3
    for n in range(1, 200):
        assert an.square_index(an.enumerated_rational(n)) == n


def test_enumeration_completeness_desk_scale():
    seen = {}
    for n in range(1, 10_001):
        value = an.q_n(n)
        assert value not in seen  # each square appears at most once
        seen[value] = n
    for numerator in range(0, 21):
        for denominator in range(1, 21):
            a = Fraction(numerator, denominator)
            m = an.square_index(a)
            assert an.q_n(m) == a * a
            if m <= 10_000:
                assert seen[a * a] == m


# -- coefficient bounds --------------------------------------------------------


def test_a_bound_values():
    assert an.a_bound(1) == 2  # 1 + ceil(0 + 1)
    assert an.a_bound(2) == 3  # 1 + ceil((0+1)(1+1))
    values = [an.a_bound(n) for n in range(1, 31)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        an.a_bound(0)


def test_product_bound_certificate(rng=random.Random(314159)):
    for _ in range(40):
        re = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        im = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        for n in (1, 4, 9):
            assert an.product_bound_holds(re, im, n)


# -- exact evaluation ----------------------------------------------------------


def test_eval_exact_base_cases():
    assert an.eval_exact(0) == 0
    assert an.eval_exact(1) == Fraction(-1, 4)
    assert an.eval_exact(-1) == an.eval_exact(1)


def test_eval_exact_half_by_hand():
    # m = square_index(1/2) = 3, so two terms survive:
    # P_1(1/2)/(2! A_1) = (0 - 1/4)/4        = -1/16
    # P_2(1/2)/(4! A_2) = (-1/4)(1 - 1/4)/72 = -1/384
    assert an.eval_exact(Fraction(1, 2)) == \
        Fraction(-1, 16) + Fraction(-3, 16 * 72)
    assert an.eval_exact(Fraction(1, 2)) == Fraction(-25, 384)


def test_eval_exact_tail_terms_vanish(rng=random.Random(2718)):
    for _ in range(25):
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        m = an.square_index(a)
        product = Fraction(1)
        for i in range(1, m + 1):
            product *= an.q_n(i) - a * a
        assert product == 0
        for extra in range(1, 4):
            product *= an.q_n(m + extra) - a * a
            assert product == 0


# -- interval evaluation --------------------------------------------------------


def test_interval_contains_exact_values():
    for n in range(1, 15):
        a = an.enumerated_rational(n)
        exact = an.eval_exact(a)
        for terms in (1, 2, 5):
            enclosure = an.eval_interval(a, a, terms)
            assert enclosure.contains(exact)


def test_interval_over_a_window():
    enclosure = an.eval_interval(0, 1, 5)
    assert enclosure.contains(an.eval_exact(0))
    assert enclosure.contains(an.eval_exact(1))
    assert enclosure.contains(an.eval_exact(Fraction(1, 2)))


def test_interval_soundness_fuzz(rng=random.Random(60847)):
    # sample points with small enumeration index: eval_exact sums
    # square_index(a) terms, so far-out rationals are intractable by design
    pool = [an.enumerated_rational(n) for n in range(1, 40)]
    pool += [-a for a in pool]
    for _ in range(25):
        a, b = rng.choice(pool), rng.choice(pool)
        lo, hi = min(a, b), max(a, b)
        enclosure = an.eval_interval(lo, hi, rng.randint(1, 5))
        for point in (lo, hi):
            assert enclosure.contains(an.eval_exact(point))


def test_interval_widths_shrink():
    widths = [an.eval_interval(1, 1, terms).width for terms in range(1, 9)]
    assert all(later <= earlier for earlier, later in zip(widths, widths[1:]))
    with pytest.raises(ValueError):
        an.eval_interval(0, 0, 0)
    with pytest.raises(ValueError):
        an.RatInterval(Fraction(1), Fraction(0))


# -- the even series of g(t) = f(it) ---------------------------------------------


def test_series_parity_and_positivity():
    series = an.series_of_g(20)
    assert series.coefficient(0) == 0
    assert all(series.coefficient(k) == 0 for k in range(1, 21, 2))
    assert all(series.coefficient(k) > 0 for k in range(2, 21, 2))
    # the n = 1 term contributes exactly t^2/(2! A_1) = t^2/4
    assert series.coefficient(2) > Fraction(1, 4)


def test_series_leading_term_value():
    series = an.series_of_g(4)
    # degree-4 contributions: n = 2 leading term 1/(4! A_2) plus n >= 3 tails
    assert series.coefficient(4) > Fraction(1, factorial(4) * 3)
    with pytest.raises(ValueError):
        an.series_of_g(7)
    with pytest.raises(ValueError):
        an.series_of_g(0)


def test_series_buffer_terms_feed_low_degrees():
    # every product past n = 1 contains (q_1 + t^2) = t^2, so longer sums
    # strictly increase the degree-2 coefficient
    assert an.series_of_g(2).coefficient(2) > Fraction(1, 4)


def reference_series(cutoff):
    """The even series by a truncated Fraction convolution, term by term."""
    half = cutoff // 2
    acc = [Fraction(0)] * (half + 1)
    product = [Fraction(1)]
    for n, qn, a_n in islice(an._terms(), half + an._SERIES_BUFFER):
        updated = [Fraction(0)] * min(len(product) + 1, half + 1)
        for j, c in enumerate(product):
            if j < len(updated):
                updated[j] += qn * c
            if j + 1 < len(updated):
                updated[j + 1] += c
        product = updated
        scale = Fraction(1, factorial(2 * n) * a_n)
        for j, c in enumerate(product):
            acc[j] += c * scale
    coefficients = [Fraction(0)] * (cutoff + 1)
    coefficients[::2] = acc
    return tuple(coefficients)


def test_series_matches_truncated_convolution():
    for cutoff in range(2, 121, 2):
        series = an.series_of_g(cutoff)
        assert series.cutoff == cutoff
        assert series.coefficients == reference_series(cutoff), cutoff


# -- graph enumeration ------------------------------------------------------------


def test_graph_points():
    assert an.graph_points(1) == [(Fraction(0), Fraction(0))]
    assert an.graph_points(2) == [(Fraction(0), Fraction(0)),
                                  (Fraction(1), Fraction(-1, 4))]
    assert an.graph_points(5) == an.graph_points(5)
    assert an.graph_points(0) == []
    with pytest.raises(ValueError):
        an.graph_points(-1)
