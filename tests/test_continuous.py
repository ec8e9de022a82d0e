"""Interval unions, measure-based distances, sampling, fuzzy sets.

The exact box integral of |x - y| is cross-checked against numerical
quadrature, so the closed forms never have to vouch for themselves.
"""

import bisect
import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from setmetric import (
    DiscreteMetric,
    DomainError,
    ElementRegistry,
    EmptySetError,
    EuclideanMetric,
    FuzzySet,
    Interval,
    IntervalUnion,
    NullMeasureError,
    ParameterError,
    SamplePlan,
    SamplingError,
    average_metric,
    estimate_average_metric,
    fuzzy_distance,
    interval_average_metric,
    interval_group_average,
    interval_metric_closed_form,
    jaccard,
    sample_count_ratio,
    steinhaus,
)
from setmetric.continuous import (
    MAX_SAMPLES,
    _abs_cross_sum,
    _average_metric_1d,
    _sample_interval_points,
    _sample_sides,
)
from setmetric.verify import random_interval_pair


def quad_mean_abs(a: Interval, b: Interval) -> float:
    """Quadrature oracle for the mean of |x - y| over a box: the inner
    integral in y is elementary piecewise calculus, the outer is numeric
    with breakpoints at the kinks."""
    lo, hi = b.lo, b.hi

    def inner(x):
        if x <= lo:
            return (hi - lo) * ((lo + hi) / 2 - x)
        if x >= hi:
            return (hi - lo) * (x - (lo + hi) / 2)
        return ((x - lo) ** 2 + (hi - x) ** 2) / 2

    points = [p for p in (lo, hi) if a.lo < p < a.hi]
    total, _ = quad(inner, a.lo, a.hi, points=points or None, limit=200)
    return total / (a.length * b.length)


def U(*pairs):
    return IntervalUnion.of(pairs)


def reference_canonical(parts):
    """The sort-and-merge of the constructor, as a plain loop."""
    live = sorted((p for p in parts if p.length > 0), key=lambda p: (p.lo, p.hi))
    merged = []
    for p in live:
        if merged and p.lo <= merged[-1].hi:
            if p.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, p.hi)
        else:
            merged.append(p)
    return tuple(merged)


def reference_intersection(a_parts, b_parts):
    """Every pair of parts intersected, then merged."""
    pieces = []
    for a in a_parts:
        for b in b_parts:
            lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
            if lo < hi:
                pieces.append(Interval(lo, hi))
    return reference_canonical(pieces)


def reference_difference(a_parts, b_parts):
    """Each part of A cut by every part of B in turn, then merged."""
    pieces = []
    for a in a_parts:
        segments = [(a.lo, a.hi)]
        for b in b_parts:
            nxt = []
            for lo, hi in segments:
                if b.hi <= lo or b.lo >= hi:
                    nxt.append((lo, hi))
                    continue
                if b.lo > lo:
                    nxt.append((lo, b.lo))
                if b.hi < hi:
                    nxt.append((b.hi, hi))
            segments = nxt
        pieces.extend(Interval(lo, hi) for lo, hi in segments if lo < hi)
    return reference_canonical(pieces)


# raw constructor input: grid endpoints make parts touch, share endpoints,
# overlap and degenerate often; free floats cover the rest
ENDPOINT = st.one_of(st.integers(-8, 72).map(lambda k: k / 8), st.floats(-1, 9))
RAW_PARTS = st.lists(st.tuples(ENDPOINT, ENDPOINT).map(sorted), max_size=6)


class TestIntervalUnion:
    def test_merging_and_sorting(self):
        u = U((3, 4), (0, 1), (0.5, 2))
        assert [(p.lo, p.hi) for p in u.parts] == [(0.0, 2.0), (3.0, 4.0)]

    def test_touching_parts_merge(self):
        assert len(U((0, 1), (1, 2)).parts) == 1

    def test_degenerate_parts_dropped(self):
        assert U((1, 1)).parts == ()
        assert U((1, 1)).measure == 0.0

    def test_out_of_order_bounds_rejected(self):
        with pytest.raises(ParameterError):
            Interval(2, 1)

    # one bound test: the ±2^1022 comparison is false for inf and nan too
    @pytest.mark.parametrize("lo, hi", [(0, float("inf")), (float("-inf"), 0),
                                        (float("nan"), 1), (0, float("nan"))])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ParameterError, match="^interval bounds must lie within ±2\\^1022: "):
            Interval(lo, hi)

    # a length or a union measure past 2^1023 overflowed to inf
    @pytest.mark.parametrize("lo, hi", [(-1.7e308, 0.0), (0.0, 4.5e307), (-1.5 * 2.0**1022, -1.0)])
    def test_bounds_beyond_2_to_the_1022_rejected(self, lo, hi):
        with pytest.raises(ParameterError, match="2\\^1022"):
            Interval(lo, hi)

    def test_the_widest_union_has_a_finite_measure(self):
        assert U((-2.0**1022, 2.0**1022)).measure == 2.0**1023

    def test_measure(self):
        assert U((0, 1), (2, 4)).measure == 3.0

    def test_membership(self):
        u = U((0, 1), (2, 4))
        assert u.contains(0.5) and u.contains(2.0) and u.contains(4.0)
        assert not u.contains(1.5) and not u.contains(-0.1)

    @settings(max_examples=200)
    @given(
        parts=st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 6)), max_size=8),
        xs=st.lists(st.integers(-25, 30).map(lambda k: k / 2), min_size=1, max_size=20),
    )
    def test_membership_matches_a_scan_of_the_parts(self, parts, xs):
        u = U(*((lo, lo + width) for lo, width in parts))
        for x in xs:
            assert u.contains(x) == any(p.lo <= x <= p.hi for p in u.parts)
        # equality and hash are those of the parts
        twin = IntervalUnion(u.parts)
        assert twin == u and hash(twin) == hash(u)

    # -inf indexed the -inf sentinel after the last end, and -inf <= -inf
    @pytest.mark.parametrize("parts", [(), ((0, 1),), ((0, 1), (2, 3)), ((-5, -4), (0, 0.5), (7, 9))])
    def test_one_point_membership_agrees_with_the_mask(self, parts):
        u = U(*parts)
        rng = random.Random(17)
        points = [rng.uniform(-10, 10) for _ in range(200)]
        points += [bound for p in u.parts for bound in (p.lo, p.hi)]
        assert [u.contains(x) for x in points] == u._inside(np.array(points)).tolist()
        for x in (-math.inf, math.inf, math.nan):
            assert u.contains(x) is False
            assert not u._inside(np.array([x]))[0]

    def test_set_ops_agree_with_pointwise_membership(self):
        rng = random.Random(9)
        for _ in range(50):
            a = U(*[(lo, lo + rng.uniform(0.1, 2)) for lo in
                    (rng.uniform(0, 8) for _ in range(rng.randint(1, 3)))])
            b = U(*[(lo, lo + rng.uniform(0.1, 2)) for lo in
                    (rng.uniform(0, 8) for _ in range(rng.randint(1, 3)))])
            ops = {
                "union": (a.union(b), lambda x: a.contains(x) or b.contains(x)),
                "inter": (a.intersection(b), lambda x: a.contains(x) and b.contains(x)),
                "diff": (a.difference(b), lambda x: a.contains(x) and not b.contains(x)),
                "symdiff": (a.symmetric_difference(b),
                            lambda x: a.contains(x) != b.contains(x)),
            }
            for _ in range(200):
                x = rng.uniform(-1, 11)
                for name, (result, predicate) in ops.items():
                    # skip boundary points: closed intervals make the
                    # difference ambiguous exactly on part edges
                    if any(abs(x - edge) < 1e-9 for p in (*a.parts, *b.parts)
                           for edge in (p.lo, p.hi)):
                        continue
                    assert result.contains(x) == predicate(x), (name, x, a, b)

    @settings(max_examples=400)
    @given(raw_a=RAW_PARTS, raw_b=RAW_PARTS)
    @example(raw_a=[[0, 1], [2, 3]], raw_b=[[1, 2]])
    @example(raw_a=[[0, 2], [1, 1]], raw_b=[])
    def test_set_ops_equal_the_pairwise_loops(self, raw_a, raw_b):
        a, b = U(*raw_a), U(*raw_b)
        a_parts = reference_canonical(Interval(lo, hi) for lo, hi in raw_a)
        b_parts = reference_canonical(Interval(lo, hi) for lo, hi in raw_b)
        assert a.parts == a_parts and b.parts == b_parts
        a_only = reference_difference(a_parts, b_parts)
        b_only = reference_difference(b_parts, a_parts)
        assert a.union(b).parts == reference_canonical(a_parts + b_parts)
        assert a.intersection(b).parts == reference_intersection(a_parts, b_parts)
        assert a.difference(b).parts == a_only
        assert a.symmetric_difference(b).parts == reference_canonical(a_only + b_only)


class TestGroupAverage:
    def test_unit_square_is_one_third(self):
        assert interval_group_average(U((0, 1)), U((0, 1))) == pytest.approx(1 / 3)

    def test_disjoint_equals_center_distance(self):
        assert interval_group_average(U((0, 1)), U((2, 3))) == pytest.approx(2.0)

    def test_null_measure_rejected(self):
        with pytest.raises(NullMeasureError):
            interval_group_average(U((1, 1)), U((1, 1)))

    def test_matches_quadrature(self):
        rng = random.Random(21)
        for _ in range(25):
            a, b = random_interval_pair(rng)
            exact = interval_group_average(U((a.lo, a.hi)), U((b.lo, b.hi)))
            assert exact == pytest.approx(quad_mean_abs(a, b), abs=1e-7)

    def test_multi_part_union(self):
        a = U((0, 1), (2, 3))
        b = U((0.5, 1.5))
        exact = interval_group_average(a, b)
        oracle = (
            quad_mean_abs(Interval(0, 1), Interval(0.5, 1.5)) * 1.0
            + quad_mean_abs(Interval(2, 3), Interval(0.5, 1.5)) * 1.0
        ) / 2.0
        assert exact == pytest.approx(oracle, abs=1e-7)


class TestIntervalMetric:
    def test_equal_unions_give_zero(self):
        a = U((0, 1), (2, 3))
        assert interval_average_metric(a, a) == 0.0

    def test_disjoint_reduces_to_group_average(self):
        assert interval_average_metric(U((0, 1)), U((2, 3))) == pytest.approx(2.0)

    def test_nested_frozen_example(self):
        assert interval_average_metric(U((0, 4)), U((1, 2))) == pytest.approx(1.0)

    def test_null_union_rejected(self):
        with pytest.raises(NullMeasureError):
            interval_average_metric(U((1, 1)), U((2, 2)))

    @pytest.mark.parametrize("a, b", [(U(), U((0, 1))), (U((0, 1)), U((2, 2)))])
    def test_null_operand_rejected(self, a, b):
        with pytest.raises(NullMeasureError):
            interval_average_metric(a, b)

    def test_closed_form_examples(self):
        assert interval_metric_closed_form(Interval(0, 1), Interval(2, 3)) == 2.0
        assert interval_metric_closed_form(Interval(0, 1), Interval(0, 1)) == 0.0
        assert interval_metric_closed_form(Interval(0, 4), Interval(1, 2)) == 1.0

    def test_closed_form_rejects_degenerate(self):
        with pytest.raises(DomainError):
            interval_metric_closed_form(Interval(1, 1), Interval(0, 2))

    def test_closed_form_matches_exact_integration(self):
        rng = random.Random(3)
        worst = 0.0
        for _ in range(1000):
            a, b = random_interval_pair(rng)
            closed = interval_metric_closed_form(a, b)
            numeric = interval_average_metric(U((a.lo, a.hi)), U((b.lo, b.hi)))
            worst = max(worst, abs(closed - numeric))
        assert worst <= 1e-9

    def test_center_distance_without_containment_is_exact(self):
        rng = random.Random(14)
        for _ in range(500):
            a, b = random_interval_pair(rng)
            a_in_b = b.lo <= a.lo and a.hi <= b.hi
            b_in_a = a.lo <= b.lo and b.hi <= a.hi
            if a_in_b or b_in_a:
                continue
            assert interval_metric_closed_form(a, b) == abs(a.center - b.center)

    def test_shared_endpoint_containment_uses_bracket(self):
        # shares an endpoint, proper containment: correction term vanishes
        # because one endpoint gap is zero
        assert interval_metric_closed_form(Interval(0, 1), Interval(0, 2)) == 0.5

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(0, 10).map(lambda v: round(v, 6)),
                    min_size=4, max_size=4, unique=True))
    def test_closed_form_matches_integration_on_arbitrary_endpoints(self, xs):
        x1, x2, x3, x4 = sorted(xs)
        for a, b in [
            (Interval(x1, x2), Interval(x3, x4)),
            (Interval(x1, x3), Interval(x2, x4)),
            (Interval(x1, x4), Interval(x2, x3)),
        ]:
            if a.length == 0 or b.length == 0:
                continue
            closed = interval_metric_closed_form(a, b)
            numeric = interval_average_metric(U((a.lo, a.hi)), U((b.lo, b.hi)))
            assert closed == pytest.approx(numeric, abs=1e-9)


def scaled_up(x, k):
    """An interval or union with its bounds scaled by 2^k."""
    if isinstance(x, Interval):
        return Interval(math.ldexp(x.lo, k), math.ldexp(x.hi, k))
    return IntervalUnion.of(scaled_up(p, k) for p in x.parts)


def spaced(n, offset=0.0):
    """n unit parts at spacing 2 from ``offset``."""
    return U(*[(offset + 2 * k, offset + 2 * k + 1) for k in range(n)])


def spaced_integral(n, x, y) -> Fraction:
    """The double integral of |s - t| over s in X and t in Y, whose parts are
    the intervals ``x`` and ``y`` shifted by 2k for k < n, in O(n): the n - |d|
    pairs of parts at offset d, y shifted by 2d against x, have one integral,
    L^3 / 3 where the two are equal and L_x L_y |c_x - c_y| where they are apart."""
    (x1, x2), (y1, y2) = (map(Fraction, x), map(Fraction, y))
    total = Fraction(0)
    for d in range(1 - n, n):
        z1, z2 = y1 + 2 * d, y2 + 2 * d
        if (z1, z2) == (x1, x2):
            term = (x2 - x1) ** 3 / 3
        else:
            assert z2 <= x1 or x2 <= z1
            term = (x2 - x1) * (z2 - z1) * abs((z1 + z2) - (x1 + x2)) / 2
        total += (n - abs(d)) * term
    return total


# a limit of 10^7 pairs of parts refused these; the sweep is linear in the parts
class TestManyParts:
    def test_group_average_of_3163_parts(self):
        a = spaced(3163)
        exact = spaced_integral(3163, (0, 1), (0, 1)) / 3163**2
        assert interval_group_average(a, a) == float(exact)

    def test_average_metric_of_2237_parts(self):
        n = 2237
        a, b = spaced(n), spaced(n, 0.5)
        # A\B and B\A are the halves [2k, 2k + 0.5] and [2k + 1, 2k + 1.5]
        exact = (spaced_integral(n, (0, 1), (1, 1.5)) * n + spaced_integral(n, (0, 0.5), (0.5, 1.5)) * n
                 ) / (n * n * Fraction(3, 2) * n)
        assert interval_average_metric(a, b) == float(exact)
        big = spaced(3163)
        assert interval_average_metric(big, big) == 0.0


# A product of three lengths overflows from extents of about 5.6e102 on: the
# distances were inf, -inf or nan, or raised OverflowError. Scaling by a power
# of two is exact, so the results are the small ones scaled, bit for bit.
class TestExtremeBounds:
    @pytest.mark.parametrize("k", [400, 1000])
    @pytest.mark.parametrize("distance", [interval_group_average, interval_average_metric])
    def test_union_distances_scale_exactly(self, distance, k):
        a, b = U((0, 1), (3, 4)), U((0, 2))
        assert distance(scaled_up(a, k), scaled_up(b, k)) == math.ldexp(distance(a, b), k)

    @pytest.mark.parametrize("k", [600, 1000])
    def test_closed_form_scales_exactly(self, k):
        a, b = Interval(-1, 1), Interval(0, 0.5)
        assert interval_metric_closed_form(scaled_up(a, k), scaled_up(b, k)) == math.ldexp(
            interval_metric_closed_form(a, b), k)

    def test_decimal_extents(self):
        assert interval_metric_closed_form(Interval(-1e200, 1e200), Interval(0, 0.5)) == pytest.approx(
            5e199, rel=1e-15, abs=0)
        base = interval_average_metric(U((0, 1), (3, 4)), U((0, 2)))
        for extent in (1e200, 1e300):
            got = interval_average_metric(U((0, extent), (3 * extent, 4 * extent)), U((0, 2 * extent)))
            assert got == pytest.approx(base * extent, rel=1e-14, abs=0)
        assert interval_average_metric(U((-1e300, 0)), U((-1e300, 1))) == pytest.approx(0.5, rel=1e-15)

    def test_sampled_estimate_scales_exactly(self):
        a, b = U((-4e307, 4e307)), U((-4e307, 0))
        value = estimate_average_metric(a, b, SamplePlan(a, n=50, seed=0)).value
        a, b = scaled_up(a, -100), scaled_up(b, -100)
        assert value == math.ldexp(estimate_average_metric(a, b, SamplePlan(a, n=50, seed=0)).value, 100)

    # A part of length 1e-300 beside an extent of 8e307: the cubic integral
    # form had no scaling that kept both in range, a DomainError, and the
    # closed form overflowed on s*i before the short interval emptied.
    def test_bounds_too_far_apart_in_scale(self):
        assert interval_average_metric(U((0, 1e-300)), U((-4e307, 4e307))) == 2e307
        assert interval_metric_closed_form(Interval(0, 1e-300), Interval(-1e200, 1e200)) == 5e199

    # mu(B\A) / mu(A∪B) = 2.5e-598 underflowed to 0, so f(A, B) was 0 for A != B
    def test_a_share_below_the_smallest_float_still_counts(self):
        a, b = U((0, 4e307)), U((-1e-290, -1e-300), (0, 4e307))
        assert interval_average_metric(a, b) == pytest.approx(4.9999999995e-291, rel=1e-15, abs=0)


def exact_integral(a_parts, b_parts) -> Fraction:
    """The double integral of |x - y| over the parts, in rationals:
    |t|^3 / 6 is a second antiderivative of |t|."""
    def g(t):
        return abs(t) ** 3 / 6

    total = Fraction(0)
    for a in a_parts:
        a1, a2 = Fraction(a.lo), Fraction(a.hi)
        for b in b_parts:
            b1, b2 = Fraction(b.lo), Fraction(b.hi)
            total += g(b2 - a1) + g(b1 - a2) - g(b2 - a2) - g(b1 - a1)
    return total


def exact_measure(parts) -> Fraction:
    return sum((Fraction(p.hi) - Fraction(p.lo) for p in parts), Fraction(0))


def exact_metric(a_parts, b_parts) -> Fraction:
    """f(A, B) from the definition, with the reference set algebra."""
    b_only, a_only = reference_difference(b_parts, a_parts), reference_difference(a_parts, b_parts)
    return (exact_integral(a_parts, b_only) / exact_measure(a_parts)
            + exact_integral(a_only, b_parts) / exact_measure(b_parts)
            ) / exact_measure(reference_canonical(a_parts + b_parts))


def ulps_off(value: float, exact: Fraction) -> Fraction:
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


# Parts at mixed scales: lengths from 1e-300 to 4e307 beside each other.
MIXED_LO = st.one_of(st.sampled_from([0.0, -1.0, 1e-300, 1e200, -1e200, 4e307, -4e307]),
                     st.floats(-1e3, 1e3), st.floats(-4e307, 4e307))
MIXED_LENGTH = st.builds(operator.mul, st.sampled_from([1e-300, 1e-10, 1.0, 1e200, 4e307]),
                         st.one_of(st.just(1.0), st.floats(0.25, 1.0)))
MIXED_PART = st.builds(lambda lo, length: Interval(lo, min(lo + length, 2.0**1022)),
                       MIXED_LO, MIXED_LENGTH)


@st.composite
def mixed_union(draw, pool):
    """1 to 12 parts at mixed scales. A part starts at a drawn point or at a
    point of ``pool``, ends a drawn length on or at such a point, and reaches
    at most to the next start, so that few parts merge. Unions drawn over one
    pool share their endpoints: their parts touch and overlap."""
    point = st.one_of(st.sampled_from(pool), MIXED_LO)
    los = sorted(set(draw(st.lists(point, min_size=1, max_size=12))))
    parts = []
    for lo, following in zip(los, los[1:] + [2.0**1022]):
        hi = draw(st.one_of(MIXED_LENGTH.map(lambda length: lo + length), point))
        parts.append(Interval(lo, min(max(hi, lo), following)))
    return IntervalUnion(tuple(parts))


MIXED_UNIONS = st.lists(MIXED_LO, min_size=1, max_size=8).flatmap(
    lambda pool: st.tuples(mixed_union(pool), mixed_union(pool))).filter(
    lambda pair: pair[0].measure > 0 and pair[1].measure > 0)


# The union distances are the exact rational values correctly rounded. The
# closed form under containment is within 4 ulps of it (2.6 the most seen in
# 62,000 random cases).
class TestExactOracle:
    @settings(max_examples=300, deadline=None)
    @given(MIXED_UNIONS)
    @example((U((0, 1e-300)), U((-4e307, 4e307))))
    @example((U((0, 4e307)), U((-1e-290, -1e-300), (0, 4e307))))
    @example((U((0, 1.5e-323)), U((5e-324, 2.5e-323))))  # subnormal values
    def test_union_distances(self, pair):
        a, b = pair
        exact = exact_integral(a.parts, b.parts) / (exact_measure(a.parts) * exact_measure(b.parts))
        assert interval_group_average(a, b) == float(exact)
        assert interval_average_metric(a, b) == float(exact_metric(a.parts, b.parts))

    @settings(max_examples=300, deadline=None)
    @given(MIXED_PART, st.floats(0, 1), st.floats(0, 1))
    def test_closed_form_under_containment(self, outer, t1, t2):
        # the inner interval at fractions t1 and t2 of the outer one
        lo, hi = sorted(min(max(outer.lo + outer.length * t, outer.lo), outer.hi) for t in (t1, t2))
        inner = Interval(lo, hi)
        assume(0 < inner.length and inner != outer)
        exact = exact_metric((outer,), (inner,))
        assert ulps_off(interval_metric_closed_form(outer, inner), exact) <= 4
        assert ulps_off(interval_metric_closed_form(inner, outer), exact) <= 4


class TestSteinhaus:
    def test_frozen_example(self):
        assert steinhaus(U((0, 2)), U((1, 3))) == pytest.approx(2 / 3)

    def test_equal_sets(self):
        a = U((0, 1), (4, 5))
        assert steinhaus(a, a) == 0.0

    def test_disjoint_sets(self):
        assert steinhaus(U((0, 1)), U((2, 3))) == 1.0

    def test_null_union_rejected(self):
        with pytest.raises(NullMeasureError):
            steinhaus(U((0, 0)), U((1, 1)))

    # mu(A△B) and mu(A∪B) were two float sums, off by up to ~2.2 ulps
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(MIXED_UNIONS, st.tuples(RAW_PARTS, RAW_PARTS).map(
        lambda raw: (U(*raw[0]), U(*raw[1])))))
    def test_correctly_rounded(self, pair):
        a, b = pair
        assume(a.parts or b.parts)
        mu_a, mu_b = exact_measure(a.parts), exact_measure(b.parts)
        mu_ab = exact_measure(reference_intersection(a.parts, b.parts))
        assert steinhaus(a, b) == float((mu_a + mu_b - 2 * mu_ab) / (mu_a + mu_b - mu_ab))


# A plan over [-0.5, 7.5] whose grid, 0.5, 2.5, 4.5 and 6.5, hits [0, 1]
# but misses [5, 6].
MISSES_5_6 = (U((-0.5, 7.5)), 4, 0, "systematic")


class TestEstimation:
    def test_identical_sets_estimate_zero(self):
        a = U((0, 1))
        plan = SamplePlan(U((0, 1)), n=500, seed=4)
        assert estimate_average_metric(a, a, plan).value == 0.0

    def test_single_shared_point(self):
        a, b = U((0, 1)), U((0.5, 1.5))
        plan = SamplePlan(U((0, 1.5)), n=1, seed=0, mode="systematic")  # the point 0.75
        assert estimate_average_metric(a, b, plan).value == 0.0

    def test_empty_side_raises(self):
        a, b = U((0, 1)), U((5, 6))
        plan = SamplePlan(*MISSES_5_6)
        with pytest.raises(SamplingError):
            estimate_average_metric(a, b, plan)

    # "sample missed a set entirely ...; increase n", which no n could do
    @pytest.mark.parametrize("empty_first", [True, False])
    def test_empty_operand_raises_before_any_draw(self, empty_first, line_registry, euclid,
                                                  monkeypatch):
        monkeypatch.setattr("numpy.random.default_rng", None)  # a draw would fail otherwise
        for full, empty, population in ((line_registry.set_of([0, 1]), line_registry.set_of([]),
                                         line_registry.universe()),
                                        (U((0, 1)), U(), U((0, 2)))):
            a, b = (empty, full) if empty_first else (full, empty)
            with pytest.raises(EmptySetError,
                               match="^estimate_average_metric requires non-empty sets$"):
                estimate_average_metric(a, b, SamplePlan(population, n=10**6, seed=0), metric=euclid)

    def test_seeded_convergence(self):
        a, b, p = U((0, 1)), U((0.5, 1.5)), U((0, 1.5))
        reference = interval_average_metric(a, b)
        assert reference == pytest.approx(0.5)
        err = {}
        for n in (100, 10000):
            value = estimate_average_metric(a, b, SamplePlan(p, n=n, seed=0)).value
            err[n] = abs(value - reference)
        assert err[10000] <= 0.05 * reference
        assert err[10000] <= err[100]

    def test_systematic_mode(self):
        a, b, p = U((0, 1)), U((0.5, 1.5)), U((0, 1.5))
        value = estimate_average_metric(a, b, SamplePlan(p, n=3000, seed=0, mode="systematic")).value
        assert value == pytest.approx(0.5, abs=5e-3)

    def test_determinism(self):
        a, b, p = U((0, 1)), U((0.5, 1.5)), U((0, 1.5))
        one = estimate_average_metric(a, b, SamplePlan(p, n=2000, seed=11))
        two = estimate_average_metric(a, b, SamplePlan(p, n=2000, seed=11))
        assert one == two

    def test_finite_population_mode(self, line_registry, euclid):
        a = line_registry.set_of([0, 1, 2])
        b = line_registry.set_of([2, 3, 4])
        plan = SamplePlan(line_registry.universe(), n=400, seed=5)
        result = estimate_average_metric(a, b, plan, metric=euclid)
        # with 400 draws over 10 ids the sample almost surely covers both sets
        assert result.value == pytest.approx(average_metric(euclid, a, b))

    def test_finite_population_needs_metric(self, line_registry):
        a = line_registry.set_of([0, 1])
        plan = SamplePlan(line_registry.universe(), n=10, seed=0)
        with pytest.raises(ParameterError):
            estimate_average_metric(a, a, plan)

    def test_empty_finite_population_rejected(self, line_registry, euclid):
        a = line_registry.set_of([0, 1])
        plan = SamplePlan(line_registry.set_of([]), n=10, seed=0)
        with pytest.raises(ParameterError):
            estimate_average_metric(a, a, plan, metric=euclid)

    def test_plan_validation(self):
        with pytest.raises(ParameterError):
            SamplePlan(U((0, 1)), n=0)
        with pytest.raises(ParameterError):
            SamplePlan(U((0, 1)), n=10, mode="sorted")

    @pytest.mark.parametrize("field, value", [
        ("n", 2.5), ("n", float("nan")), ("n", True), ("seed", 1.5), ("seed", False),
    ])
    def test_counts_and_seeds_must_be_integers(self, field, value):
        # they failed late with a bare TypeError from numpy or range
        what = "sample count" if field == "n" else "sampling seed"
        with pytest.raises(ParameterError, match=f"^{what} must be an integer, got {value!r}$"):
            SamplePlan(U((0, 1)), **{"n": 5, field: value})
        assert SamplePlan(U((0, 1)), **{"n": 5, field: np.int64(3)}) == SamplePlan(
            U((0, 1)), **{"n": 5, field: 3})

    def test_negative_seed_rejected(self, line_registry):
        # numpy refused it only when the sample was drawn, with a ValueError
        for population in (U((0, 1)), line_registry.universe()):
            with pytest.raises(ParameterError, match="^sampling seed must be >= 0, got -1$"):
                SamplePlan(population, n=5, seed=-1)

    def test_systematic_mode_needs_an_interval_population(self, line_registry):
        # the mode was ignored: the same sample as mode="random"
        with pytest.raises(ParameterError, match="systematic sampling needs an interval population"):
            SamplePlan(line_registry.universe(), n=10, mode="systematic")

    def test_vectorized_cross_sum_matches_brute_force(self):
        rng = np.random.default_rng(2)
        xs = np.unique(rng.random(40))
        ys = np.unique(rng.random(25))
        brute = sum(abs(x - y) for x in xs for y in ys)
        assert _abs_cross_sum(xs, ys) == pytest.approx(brute)

    def test_vectorized_metric_matches_flat_metric(self, euclid):
        rng = np.random.default_rng(7)
        xs = np.unique(np.round(rng.random(12), 6))
        ys = np.unique(np.round(rng.random(9), 6))
        registry = ElementRegistry({float(v): float(v) for v in np.union1d(xs, ys)})
        a = registry.set_of([float(v) for v in xs])
        b = registry.set_of([float(v) for v in ys])
        assert _average_metric_1d(xs, ys) == pytest.approx(average_metric(euclid, a, b))

    # Points scaled by max|x| cancelled in the prefix sums: off by 2e-9 at
    # 1e6 and by 4e-2 at 1e15. Translated by the least point they are not.
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e9, 1e12, 1e15])
    def test_1d_metric_matches_an_exact_oracle_at_any_offset(self, offset):
        points = np.unique(offset + np.random.default_rng(0).random(3000))
        xs, ys = points[points < offset + 0.5], points[points > offset + 0.3]

        def exact_cross_sum(xs, ys):
            prefix = list(itertools.accumulate(map(Fraction, ys), initial=Fraction(0)))
            total = Fraction(0)
            for x in map(Fraction, xs):
                k = bisect.bisect_right(ys, x)
                total += x * (2 * k - len(ys)) + prefix[-1] - 2 * prefix[k]
            return total

        a, b = set(xs.tolist()), set(ys.tolist())
        n_union = len(a | b)
        exact = (exact_cross_sum(xs.tolist(), sorted(b - a)) / (n_union * len(a))
                 + exact_cross_sum(sorted(a - b), ys.tolist()) / (n_union * len(b)))
        assert abs(Fraction(_average_metric_1d(xs, ys)) - exact) <= exact * Fraction(1e-12)


class TestSampleSides:
    @settings(max_examples=200, deadline=None)
    @given(
        raw_a=RAW_PARTS,
        raw_b=RAW_PARTS,
        population=st.sampled_from([U((0, 8)), U((0, 4), (5, 9))]),
        n=st.sampled_from([8, 16, 32, 500]),
        seed=st.integers(0, 3),
        mode=st.sampled_from(["random", "systematic"]),
    )
    # a systematic grid of 8 points over [0, 8] lands on both ends of [0.5, 1.5]
    @example(raw_a=[[0.5, 1.5]], raw_b=[[1.5, 3.5]], population=U((0, 8)), n=8,
             seed=0, mode="systematic")
    def test_mask_equals_a_scan_of_the_parts(self, raw_a, raw_b, population, n, seed, mode):
        a, b = U(*raw_a).intersection(population), U(*raw_b).intersection(population)
        plan = SamplePlan(population, n=n, seed=seed, mode=mode)
        points = _sample_interval_points(population, plan)
        for u, side in zip((a, b), _sample_sides(a, b, plan)):
            scan = [x for x in points.tolist() if any(p.lo <= x <= p.hi for p in u.parts)]
            assert side.tolist() == scan


SAMPLERS = [functools.partial(estimate_average_metric, metric=EuclideanMetric()),
            sample_count_ratio]


class TestOperandKinds:
    @pytest.mark.parametrize("sample", SAMPLERS, ids=["estimate", "ratio"])
    def test_interval_operands_over_a_finite_population(self, sample, line_registry):
        plan = SamplePlan(line_registry.universe(), n=50, seed=0)
        with pytest.raises(ParameterError, match="FiniteSet operands"):
            sample(U((0, 3)), U((2, 5)), plan)

    @pytest.mark.parametrize("sample", SAMPLERS, ids=["estimate", "ratio"])
    def test_finite_operands_over_an_interval_population(self, sample, line_registry):
        a, b = line_registry.set_of([0, 1, 2]), line_registry.set_of([2, 3])
        plan = SamplePlan(U((0, 9)), n=50, seed=0)
        with pytest.raises(ParameterError, match="IntervalUnion operands"):
            sample(a, b, plan)

    @pytest.mark.parametrize("sample", SAMPLERS, ids=["estimate", "ratio"])
    def test_callable_operand(self, sample):
        plan = SamplePlan(U((0, 9)), n=50, seed=0)
        with pytest.raises(ParameterError, match="IntervalUnion operands"):
            sample(lambda x: 0 <= x <= 3, U((2, 5)), plan)

    def test_population_of_another_kind(self):
        with pytest.raises(ParameterError, match="IntervalUnion or a FiniteSet"):
            SamplePlan([0, 1, 2], n=50, seed=0)


class TestCoverage:
    # the population must hold A and B; the estimate read 0.252 for the
    # exact 0.5, and the ratio 2.006 for 1.0
    @pytest.mark.parametrize("sample", SAMPLERS, ids=["estimate", "ratio"])
    def test_interval_population_missing_part_of_an_operand(self, sample):
        plan = SamplePlan(U((0, 1)), n=20000, seed=1)
        with pytest.raises(ParameterError, match=r"^sampling population does not cover "
                                                 r"the operands \(uncovered measure 0.5\)$"):
            sample(U((0, 1)), U((0.5, 1.5)), plan)

    # the estimate read 5.5 for the exact 6.5
    @pytest.mark.parametrize("sample", SAMPLERS, ids=["estimate", "ratio"])
    def test_finite_population_missing_operand_ids(self, sample, line_registry):
        a, b = line_registry.set_of([0, 1]), line_registry.set_of([6, 7, 8])
        plan = SamplePlan(line_registry.set_of(range(7)), n=500, seed=0)
        with pytest.raises(ParameterError, match=r"^sampling population does not cover "
                                                 r"the operands \(ids outside it: 2\)$"):
            sample(a, b, plan)


class TestSampleCount:
    # a plan allocates nothing: these construct plans only, never draw
    @pytest.mark.parametrize("n", [0, -1, MAX_SAMPLES + 1, 10**18])
    def test_out_of_range_rejected(self, n, line_registry):
        for population in (U((0, 1)), line_registry.universe()):
            with pytest.raises(ParameterError, match="sample count"):
                SamplePlan(population, n=n, seed=0)

    def test_ceiling_accepted_and_far_above_the_benchmark(self):
        assert SamplePlan(U((0, 1)), n=MAX_SAMPLES, seed=0).n == MAX_SAMPLES
        assert MAX_SAMPLES >= 100 * 100_000


class TestSampleCountRatio:
    def test_identical_sets(self):
        a = U((0, 1))
        assert sample_count_ratio(a, a, SamplePlan(U((0, 1)), n=100, seed=0)) == 1.0

    def test_length_ratio(self):
        a, b, p = U((0, 1)), U((0, 2)), U((0, 2))
        ratio = sample_count_ratio(a, b, SamplePlan(p, n=20000, seed=1))
        assert ratio == pytest.approx(0.5, rel=0.05)

    def test_zero_numerator(self):
        a, b = U((5, 6)), U((0, 1))
        assert sample_count_ratio(a, b, SamplePlan(*MISSES_5_6)) == 0.0

    def test_empty_denominator_raises(self):
        a, b = U((0, 1)), U((5, 6))
        with pytest.raises(SamplingError):
            sample_count_ratio(a, b, SamplePlan(*MISSES_5_6))


class TestFuzzy:
    def test_membership_validation(self):
        with pytest.raises(ParameterError):
            FuzzySet({"a": 1.5})
        with pytest.raises(ParameterError):
            FuzzySet({"a": 0.0})

    def test_alpha_cut(self):
        f = FuzzySet({"a": 1.0, "b": 0.4, "c": 0.7})
        assert f.alpha_cut(0.5) == {"a", "c"}
        assert f.alpha_cut(1.0) == {"a"}

    def test_equal_fuzzy_sets_distance_zero(self):
        reg = ElementRegistry({"a": None, "b": None})
        f = FuzzySet({"a": 1.0, "b": 0.3})
        assert fuzzy_distance(DiscreteMetric(1.0), reg, f, f) == 0.0

    def test_crisp_sets_reduce_to_jaccard(self):
        reg = ElementRegistry({"a": None, "b": None, "c": None})
        fa = FuzzySet({"a": 1.0, "b": 1.0})
        fb = FuzzySet({"b": 1.0, "c": 1.0})
        d = fuzzy_distance(DiscreteMetric(1.0), reg, fa, fb,
                           alpha_grid=[1.0], alpha_weight=0.0)
        assert d == pytest.approx(jaccard(reg.set_of(["a", "b"]), reg.set_of(["b", "c"])))

    def test_identical_cuts_across_grid_give_zero(self):
        reg = ElementRegistry({"a": None, "b": None})
        fa = FuzzySet({"a": 1.0, "b": 0.6})
        fb = FuzzySet({"a": 1.0, "b": 0.6})
        assert fuzzy_distance(DiscreteMetric(1.0), reg, fa, fb,
                              alpha_grid=[0.5, 1.0]) == 0.0

    def test_levels_with_empty_cut_are_dropped(self):
        reg = ElementRegistry({"a": None, "b": None})
        fa = FuzzySet({"a": 0.4})
        fb = FuzzySet({"a": 1.0, "b": 1.0})
        # levels above 0.4 leave fa's cut empty; the rest still work
        value = fuzzy_distance(DiscreteMetric(1.0), reg, fa, fb,
                               alpha_grid=[0.3, 0.9], alpha_weight=0.0)
        assert value == pytest.approx(jaccard(reg.set_of(["a"]), reg.set_of(["a", "b"])))

    def test_no_usable_level_raises(self):
        reg = ElementRegistry({"a": None, "b": None})
        fa = FuzzySet({"a": 0.2})
        fb = FuzzySet({"b": 0.9})
        with pytest.raises(DomainError):
            fuzzy_distance(DiscreteMetric(1.0), reg, fa, fb, alpha_grid=[0.5])

    def test_alpha_term_contributes(self):
        # same cuts at different levels differ only through the alpha weight
        reg = ElementRegistry({"a": None})
        fa = FuzzySet({"a": 1.0})
        fb = FuzzySet({"a": 0.5})
        d0 = fuzzy_distance(DiscreteMetric(1.0), reg, fa, fb,
                            alpha_grid=[0.5, 1.0], alpha_weight=0.0)
        d1 = fuzzy_distance(DiscreteMetric(1.0), reg, fa, fb,
                            alpha_grid=[0.5, 1.0], alpha_weight=1.0)
        assert d0 == 0.0  # identical cut sets at the surviving level
        assert d1 == 0.0  # both cuts are {a} at level 0.5; 1.0 is dropped
        fc = FuzzySet({"a": 1.0})
        fd = FuzzySet({"a": 1.0})
        assert fuzzy_distance(DiscreteMetric(1.0), reg, fc, fd,
                              alpha_grid=[0.5, 1.0], alpha_weight=3.0) == 0.0
