"""Power means, composed distances, discrete closed forms, log-cardinality."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setmetric import (
    DiscreteMetric,
    EuclideanMetric,
    ParameterError,
    average_metric,
    closed_form_pointwise_discrete,
    closed_form_sidewise_discrete,
    exp_mean,
    hausdorff,
    jaccard,
    log_cardinality_distance,
    pointwise_mean_distance,
    power_mean,
    random_point_registry,
    sidewise_mean_distance,
    subset_triple_sampler,
)
from setmetric import power_means
from setmetric.power_means import _mean_rows

INF = float("inf")


class TestPowerMean:
    def test_arithmetic(self):
        assert power_mean([1, 2, 3], 1.0) == pytest.approx(2.0)

    def test_geometric_limit(self):
        assert power_mean([1, 2, 4], 0.0) == pytest.approx(2.0)

    def test_zero_value_with_negative_order(self):
        assert power_mean([1, 0, 4], -1.0) == 0.0

    def test_infinite_orders_ignore_weights(self):
        values = [1.0, 5.0, 3.0]
        assert power_mean(values, INF) == 5.0
        assert power_mean(values, -INF) == 1.0

    def test_harmonic(self):
        assert power_mean([1, 2, 4], -1.0) == pytest.approx(3 / (1 + 0.5 + 0.25))

    def test_zero_value_with_positive_order(self):
        assert power_mean([0.0, 2.0], 2.0) == pytest.approx(math.sqrt(2))
        assert power_mean([0.0, 0.0], 3.0) == 0.0

    def test_large_order_does_not_overflow(self):
        assert power_mean([1e3, 2e3], 500.0) == pytest.approx(2e3, rel=1e-2)

    @pytest.mark.parametrize("p, expected", [
        (2.0, 1e300 / math.sqrt(2.0)),
        (0.5, 2.5e299),
        (1e-300, 1.0),  # the geometric mean
        (-1.0, 2e-300),  # harmonic: the ratio overflows instead
    ])
    def test_ratio_underflow(self, p, expected):
        # 1e-300 / 1e300 underflows to 0, whose log is undefined
        assert power_mean([1e300, 1e-300], p) == pytest.approx(expected, rel=1e-12, abs=0)

    # 1e300 / 5e-324 overflows: at -1e-10 the mean raised OverflowError, at
    # -5e-324 it was inf; both lie next to the geometric mean
    def test_ratio_overflow_near_order_zero(self):
        values, p = [5e-324, 1e300], -1e-10
        geometric = power_mean(values, 0.0)
        assert geometric == pytest.approx(math.sqrt(5e-324) * 1e150, rel=1e-12, abs=0)
        # two values at equal weight: M_p = G exp(p s^2 / 2 + O(p^3 s^4)), s
        # half the spread of their logs
        s = (math.log(1e300) - math.log(5e-324)) / 2
        assert power_mean(values, p) == pytest.approx(geometric * math.exp(p * s * s / 2), rel=1e-12, abs=0)
        assert power_mean(values, -5e-324) == geometric

    # 1e300 / 5e-324 overflows, and its log was read as inf: the term of 1e300
    # counted as 0 instead of (1e300 / 5e-324)^p, and the mean was 6.263026e-294
    def test_ratio_overflow_keeps_its_term(self):
        values, p = [5e-324, 1e300], -0.01
        expected = 6.262659932695864915e-294  # from a 60-digit evaluation
        assert power_mean(values, p) == pytest.approx(expected, rel=1e-12, abs=0)
        assert _mean_rows(1, np.array([values]), p)[0] == pytest.approx(expected, rel=1e-12, abs=0)

    # e^-700 / e^28 is subnormal, and its log kept too few bits: the mean was
    # off by 1.3e-9 relative
    def test_subnormal_ratio_keeps_its_bits(self):
        values, p = [math.exp(28), math.exp(-700)], 0.00390625
        expected = 2.4358233827397885692e-59  # from an 80-digit evaluation
        assert power_mean(values, p) == pytest.approx(expected, rel=1e-12, abs=0)
        assert _mean_rows(1, np.array([values]), p)[0] == pytest.approx(expected, rel=1e-12, abs=0)

    # the mean lies more than e^708 below the factored maximum e^546, so e^y
    # underflowed and the mean was 0
    def test_mean_far_below_the_factored_extreme(self):
        values, p = [math.exp(546), math.exp(-444), math.exp(-700)], 1.2e-237
        expected = 2.6954623744224761454e-87  # the geometric mean, from an 80-digit evaluation
        assert power_mean(values, p) == pytest.approx(expected, rel=1e-12, abs=0)
        assert _mean_rows(1, np.array([values]), p)[0] == pytest.approx(expected, rel=1e-12, abs=0)

    # inf / inf is nan: the mean was nan, and a math domain error beside a zero
    @pytest.mark.parametrize("values, p, expected", [
        ([INF, 1.0], 2.0, INF),
        ([INF, 1.0], 0.5, INF),
        ([INF, 0.0], 2.0, INF),
        ([INF], 2.0, INF),
        ([INF], -2.0, INF),
        ([INF, 1.0], -2.0, math.sqrt(2.0)),  # a negative order gives inf no weight
        # the mean is 2^1e10 * 2.5e-94, past the largest float: this overflowed
        ([2.5e-94, INF], -1e-10, INF),
    ])
    def test_infinite_values(self, values, p, expected):
        assert power_mean(values, p) == pytest.approx(expected, rel=1e-15)

    # the sum of the values overflowed: fsum raised OverflowError
    def test_arithmetic_mean_whose_sum_overflows(self):
        assert power_mean([1e308, 1e308], 1.0) == 1e308
        assert power_mean([1.7e308, 1.7e308, 1.0], 1.0) == float((2 * Fraction(1.7e308) + 1) / 3)
        assert _mean_rows(1, np.array([[1e308, 1e308]]), 1.0).tolist() == [1e308]

    def test_errors(self):
        with pytest.raises(ParameterError):
            power_mean([], 1.0)
        with pytest.raises(ParameterError):
            power_mean([-1.0], 1.0)
        with pytest.raises(ParameterError, match="NaN value"):
            power_mean([1.0, math.nan], 2.0)

    @settings(max_examples=200)
    @given(
        values=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8),
        p_lo=st.floats(-20, 20),
        p_hi=st.floats(-20, 20),
    )
    @example(values=[0.75, 0.125], p_lo=0.0, p_hi=5e-324)
    def test_monotone_in_order(self, values, p_lo, p_hi):
        lo, hi = sorted((p_lo, p_hi))
        assert power_mean(values, lo) <= power_mean(values, hi) + 1e-9


class TestExpMean:
    def test_zero_order_is_arithmetic(self):
        assert exp_mean([1, 2, 3], 0.0) == pytest.approx(2.0)

    def test_frozen_example(self):
        assert exp_mean([0, 1], 1.0) == pytest.approx(math.log((1 + math.e) / 2))

    def test_infinite_order_is_max(self):
        assert exp_mean([3.0, 7.0, 5.0], INF) == 7.0
        assert exp_mean([3.0, 7.0, 5.0], -INF) == 3.0

    def test_shifted_exponentials_survive_large_arguments(self):
        # naive exp(p * x) would overflow at p * x = 1400
        assert exp_mean([700.0, 699.0], 2.0) == pytest.approx(700.0, abs=0.5)

    def test_agrees_with_naive_formula_when_safe(self):
        values, p = [0.3, 1.2, 2.0], -1.7
        naive = math.log(sum(math.exp(p * v) for v in values) / len(values)) / p
        assert exp_mean(values, p) == pytest.approx(naive)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ParameterError, match="NaN value"):
            exp_mean([1.0, math.nan], 2.0)

    @pytest.mark.parametrize("values, p, limit", [
        ([1.0, 2.0], 1e308, 2.0),
        ([-1.0, -2.0], -1e308, -2.0),
        ([-2.0, -3.0], 1e308, -2.0),  # every p * x overflows to -inf
    ])
    def test_overflowing_exponent_gives_the_limit(self, values, p, limit):
        # p * x overflows: the mean was nan
        assert exp_mean(values, p) == limit

    # the sum of the values overflowed: fsum raised OverflowError
    def test_arithmetic_mean_whose_sum_overflows(self):
        assert exp_mean([1e308, 1e308], 0.0) == 1e308
        assert exp_mean([1e308, 1e308, -1.0], 0.0) == float((2 * Fraction(1e308) - 1) / 3)
        assert _mean_rows(0, np.array([[1e308, 1e308]]), 0.0).tolist() == [1e308]

    # fsum raised a bare ValueError
    def test_opposite_infinities_have_no_arithmetic_mean(self):
        with pytest.raises(ParameterError, match=r"\+inf and -inf"):
            exp_mean([INF, -INF], 0.0)

    @pytest.mark.parametrize("p", [5e-324, -5e-324])
    def test_subnormal_order_stays_within_range(self, p):
        assert 0.125 <= exp_mean([0.75, 0.125], p) <= 0.75

    def test_values_whose_difference_overflows(self):
        # 1e308 - (-1e308) overflows: the mean is log(cosh(0.01)) / 1e-310
        expected = 4.99991666888880627e305  # from a 60-digit evaluation
        assert exp_mean([1e308, -1e308], 1e-310) == pytest.approx(expected, rel=1e-12)

    def test_difference_overflow_beside_an_infinite_value(self):
        # 1e308 - (-1e308) overflows, and the largest value is inf, whose
        # e^(p v) is 0 at this order
        expected = -9.8901387711331891437e307  # from an 80-digit evaluation
        assert exp_mean([INF, -1e308, 1e308], -1e-306) == pytest.approx(expected, rel=1e-12)

    # an infinite value's v - m is inf or nan: the first case ran out of
    # recursion halving the values, and [inf] at order -1 was nan
    @pytest.mark.parametrize("values, p, expected", [
        ([INF, 0.0], 1.0, INF),
        ([INF, 0.0], -1.0, math.log(2.0)),
        ([INF, 0.0], 0.0, INF),
        ([INF], 1.0, INF),
        ([INF], -1.0, INF),
        ([INF], 0.0, INF),
        ([-INF, 0.0], 1.0, -math.log(2.0)),
        ([-INF, 0.0], -1.0, -INF),
    ])
    def test_infinite_values(self, values, p, expected):
        assert exp_mean(values, p) == pytest.approx(expected, rel=1e-15)

    # e^v rounds by about 1e-16 relative, which log turns into an absolute
    # error, and where the mean cancels both forms are off by some ulps of the
    # largest |v|: hence the absolute part of the tolerance
    @settings(max_examples=300)
    @given(
        values=st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=6),
        p=st.one_of(st.floats(-50.0, 50.0),
                    st.sampled_from([0.0, 1e-3, -1e-3, 1e-300, -1e-300, 1e300, INF, -INF])),
    )
    def test_is_the_log_of_the_power_mean_of_the_exponentials(self, values, p):
        got = exp_mean(values, p)
        want = math.log(power_mean([math.exp(v) for v in values], p))
        scale = max(1.0, max(map(abs, values)))
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * scale)


@pytest.fixture(scope="module")
def plane():
    registry = random_point_registry(random.Random(8), size=12, dim=2)
    return registry, EuclideanMetric()


class TestComposedDistances:
    def test_pointwise_hand_example(self, line_registry, euclid):
        a, b = line_registry.set_of([0]), line_registry.set_of([0, 1])
        assert pointwise_mean_distance(euclid, a, b, i=1, j=1, p=1, q=1) == 0.5

    def test_pointwise_hausdorff_setting(self, line_registry, euclid):
        a, b = line_registry.set_of([0, 1]), line_registry.set_of([0, 5])
        assert pointwise_mean_distance(euclid, a, b, p=INF, q=-INF) == 4.0

    def test_pointwise_equal_sets(self, line_registry, euclid):
        s = line_registry.set_of([1, 4])
        assert pointwise_mean_distance(euclid, s, s, i=1, j=1, p=1, q=1) == 0.0

    def test_sidewise_hand_example(self, line_registry, euclid):
        a, b = line_registry.set_of([0]), line_registry.set_of([0, 1])
        v = sidewise_mean_distance(euclid, a, b)
        assert v == 0.25
        assert 2 * v == average_metric(euclid, a, b)

    def test_sidewise_hausdorff_setting(self, line_registry, euclid):
        a, b = line_registry.set_of([0, 1]), line_registry.set_of([0, 5])
        assert sidewise_mean_distance(euclid, a, b, r=INF, p=INF, q=-INF) == 4.0

    def test_sidewise_equal_sets(self, line_registry, euclid):
        s = line_registry.set_of([2, 3])
        assert sidewise_mean_distance(euclid, s, s) == 0.0

    def test_specialization_identities(self, plane):
        registry, m = plane
        rng = random.Random(31)
        sampler = subset_triple_sampler(registry, 1, 6)
        for _ in range(100):
            a, b, _ = sampler(rng)
            f = average_metric(m, a, b)
            h = hausdorff(m, a, b)
            for i, j in itertools.product((0, 1), repeat=2):
                u = pointwise_mean_distance(m, a, b, i=i, j=j, p=i, q=j)
                assert u == pytest.approx(f, abs=1e-9)
            for k, i, j in itertools.product((0, 1), repeat=3):
                v = sidewise_mean_distance(m, a, b, k=k, i=i, j=j, r=k, p=i, q=j)
                assert 2 * v == pytest.approx(f, abs=1e-9)
            assert pointwise_mean_distance(m, a, b, p=INF, q=-INF) == pytest.approx(h, abs=1e-12)
            assert sidewise_mean_distance(m, a, b, r=INF, p=INF, q=-INF) == pytest.approx(h, abs=1e-12)

    # the means of a kind are looked up at each call, so a patched module
    # function is called: an inner mean from each of 0 and 5, then the outer
    @pytest.mark.parametrize("name, kind", [("power_mean", 1), ("exp_mean", 0)])
    def test_patched_mean_is_called(self, line_registry, euclid, name, kind):
        mean, orders = getattr(power_means, name), []

        def recording(values, p):
            orders.append(p)
            return mean(values, p)

        a, b = line_registry.set_of([0, 1, 2]), line_registry.set_of([1, 2, 5])
        expected = pointwise_mean_distance(euclid, a, b, i=kind, j=kind, p=2.0, q=-1.0)
        with mock.patch.object(power_means, name, recording):
            got = pointwise_mean_distance(euclid, a, b, i=kind, j=kind, p=2.0, q=-1.0)
        assert got == expected
        assert orders == [-1.0, -1.0, 2.0]

    def test_bad_mean_kind_rejected(self, line_registry, euclid):
        with pytest.raises(ParameterError):
            pointwise_mean_distance(euclid, line_registry.set_of([0]),
                                    line_registry.set_of([1]), i=2, j=1)


class TestDiscreteClosedForms:
    def test_pointwise_frozen_example(self, line_registry):
        a, b = line_registry.set_of([1, 2]), line_registry.set_of([2, 3])
        expected = math.log((2 * math.e + 1) / 3)
        assert closed_form_pointwise_discrete(a, b, 1.0, 1.0) == pytest.approx(expected)

    def test_pointwise_equal_sets(self, line_registry):
        s = line_registry.set_of([1, 2])
        assert closed_form_pointwise_discrete(s, s, 1.0, 1.0) == 0.0

    def test_pointwise_limit_is_scaled_jaccard(self, line_registry):
        a, b = line_registry.set_of([1, 2]), line_registry.set_of([2, 3])
        lam = 1.75
        assert closed_form_pointwise_discrete(a, b, 0.0, lam) == pytest.approx(
            lam * jaccard(a, b)
        )
        assert closed_form_pointwise_discrete(a, b, 1e-6, lam) == pytest.approx(
            lam * jaccard(a, b), abs=1e-4
        )

    def test_pointwise_rejects_negative_order(self, line_registry):
        with pytest.raises(ParameterError):
            closed_form_pointwise_discrete(
                line_registry.set_of([1]), line_registry.set_of([2]), -1.0
            )

    def test_sidewise_frozen_example(self, line_registry):
        a, b = line_registry.set_of([1]), line_registry.set_of([2])
        expected = -math.log((math.exp(-1) + 1) / 2)
        assert closed_form_sidewise_discrete(a, b, -1.0, 1.0) == pytest.approx(expected)

    def test_sidewise_equal_sets(self, line_registry):
        s = line_registry.set_of([3, 4])
        assert closed_form_sidewise_discrete(s, s, -1.0, 1.0) == 0.0

    def test_sidewise_limit_is_half_scaled_jaccard(self, line_registry):
        # the sidewise composition carries a factor 1/2 against the
        # pointwise one, and its order-zero limit inherits it
        a, b = line_registry.set_of([1, 2]), line_registry.set_of([2, 3])
        lam = 1.75
        assert closed_form_sidewise_discrete(a, b, 0.0, lam) == pytest.approx(
            0.5 * lam * jaccard(a, b)
        )
        assert closed_form_sidewise_discrete(a, b, -1e-6, lam) == pytest.approx(
            0.5 * lam * jaccard(a, b), abs=1e-4
        )

    def test_sidewise_rejects_positive_order(self, line_registry):
        with pytest.raises(ParameterError):
            closed_form_sidewise_discrete(
                line_registry.set_of([1]), line_registry.set_of([2]), 1.0
            )

    @pytest.mark.parametrize("form, p", [
        (closed_form_pointwise_discrete, 1.0),
        (closed_form_sidewise_discrete, -1.0),
    ])
    def test_infinite_scale_rejected(self, line_registry, form, p):
        a, b = line_registry.set_of([1, 2]), line_registry.set_of([2, 3])
        with pytest.raises(ParameterError, match="finite and positive"):
            form(a, b, p, INF)

    def test_closed_forms_match_generic_composition(self, line_registry):
        rng = random.Random(4)
        m = DiscreteMetric(1.0)
        sampler = subset_triple_sampler(line_registry, 1, 6)
        for _ in range(40):
            a, b, _ = sampler(rng)
            for p in (0.5, 1.0, 3.0):
                for q in (-1.0, 0.0, 1.0, INF):
                    generic = pointwise_mean_distance(m, a, b, i=0, j=0, p=p, q=q)
                    assert generic == pytest.approx(
                        closed_form_pointwise_discrete(a, b, p, 1.0), abs=1e-9
                    )
            for p in (-0.5, -1.0, -3.0, 0.0):
                generic = sidewise_mean_distance(m, a, b, k=0, i=0, j=0, r=0.0, p=p, q=1.0)
                assert generic == pytest.approx(
                    closed_form_sidewise_discrete(a, b, p, 1.0), abs=1e-9
                )

    def test_huge_order_is_stable(self, line_registry):
        a, b = line_registry.set_of([1, 2]), line_registry.set_of([2, 3])
        value = closed_form_pointwise_discrete(a, b, 1000.0, 1.0)
        assert math.isfinite(value)
        assert value == pytest.approx(1.0, abs=1e-2)  # approaches lam as p grows

    @pytest.mark.parametrize("p, lam", [(INF, 1.0), (INF, 0.25), (1e300, 1e300)])
    def test_overflowing_order_times_scale_gives_the_limit(self, line_registry, p, lam):
        # p * lam overflows: this was inf / inf, nan, at p = inf and inf at p = 1e300
        a, b = line_registry.set_of([1, 2]), line_registry.set_of([2, 3])
        assert closed_form_pointwise_discrete(a, b, p, lam) == pytest.approx(lam)


# each returned nan
@pytest.mark.parametrize("call", [
    lambda a, b: power_mean([1.0, 2.0], math.nan),
    lambda a, b: exp_mean([1.0, 2.0], math.nan),
    lambda a, b: closed_form_pointwise_discrete(a, b, math.nan),
    lambda a, b: closed_form_sidewise_discrete(a, b, math.nan),
], ids=["power_mean", "exp_mean", "pointwise_closed_form", "sidewise_closed_form"])
def test_nan_order_rejected(line_registry, call):
    a, b = line_registry.set_of([1, 2]), line_registry.set_of([2, 3])
    with pytest.raises(ParameterError, match="order p must be a number, inf or -inf, got nan"):
        call(a, b)


class TestLogCardinalityDistance:
    def test_frozen_example(self, line_registry):
        a, b = line_registry.set_of([1, 2]), line_registry.set_of([2, 3])
        assert log_cardinality_distance(a, b, 0.5) == pytest.approx(math.log(1.5))

    def test_metric_mode_self_distance(self, line_registry):
        s = line_registry.set_of([1, 2])
        assert log_cardinality_distance(s, s, 0.5) == 0.0

    def test_partial_mode_self_distance(self, line_registry):
        s = line_registry.set_of([1, 2, 3, 4])
        assert log_cardinality_distance(s, s, 0.0) == pytest.approx(math.log(4))

    def test_self_distance_formula_exact_for_dyadic_nu(self, line_registry):
        for size in (1, 2, 3, 5, 8):
            s = line_registry.set_of(list(range(size)))
            for nu in (0.0, 0.25, 0.5):
                assert log_cardinality_distance(s, s, nu) == (1 - 2 * nu) * math.log(size)

    def test_triangle_equivalence(self, line_registry):
        # at nu = 1/2 the triangle inequality is the same statement as
        # |A∪B| |B∪C| >= |A∪C| |B|
        rng = random.Random(6)
        sampler = subset_triple_sampler(line_registry, 1, 8)
        for _ in range(300):
            a, b, c = sampler(rng)
            lhs = (
                log_cardinality_distance(a, b, 0.5)
                + log_cardinality_distance(b, c, 0.5)
                - log_cardinality_distance(a, c, 0.5)
            )
            product_form = len(a.ids | b.ids) * len(b.ids | c.ids) >= len(a.ids | c.ids) * len(b)
            assert (lhs >= -1e-12) == product_form
            assert product_form  # holds for every sampled triple

    def test_nu_range_enforced(self, line_registry):
        a, b = line_registry.set_of([1]), line_registry.set_of([2])
        with pytest.raises(ParameterError):
            log_cardinality_distance(a, b, 0.75)
        with pytest.raises(ParameterError):
            log_cardinality_distance(a, b, -0.1)
