"""Power means, composed distances, discrete closed forms, log-cardinality."""

import itertools
import math
import random

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

INF = float("inf")


class TestPowerMean:
    def test_arithmetic(self):
        assert power_mean([1, 2, 3], None, 1.0) == pytest.approx(2.0)

    def test_geometric_limit(self):
        assert power_mean([1, 2, 4], None, 0.0) == pytest.approx(2.0)

    def test_zero_value_with_negative_order(self):
        assert power_mean([1, 0, 4], None, -1.0) == 0.0

    def test_infinite_orders_ignore_weights(self):
        values = [1.0, 5.0, 3.0]
        weights = [1.0, 0.0, 0.5]
        assert power_mean(values, weights, INF) == 5.0
        assert power_mean(values, weights, -INF) == 1.0

    def test_zero_weight_zero_value_does_not_collapse(self):
        # the excluded term would otherwise force the negative-order mean to 0
        assert power_mean([2.0, 0.0], [1.0, 0.0], -2.0) == pytest.approx(2.0)

    def test_harmonic(self):
        assert power_mean([1, 2, 4], None, -1.0) == pytest.approx(3 / (1 + 0.5 + 0.25))

    def test_zero_value_with_positive_order(self):
        assert power_mean([0.0, 2.0], None, 2.0) == pytest.approx(math.sqrt(2))
        assert power_mean([0.0, 0.0], None, 3.0) == 0.0

    def test_weighted_arithmetic(self):
        assert power_mean([1, 3], [0.25, 0.75], 1.0) == pytest.approx(2.5)

    def test_large_order_does_not_overflow(self):
        assert power_mean([1e3, 2e3], None, 500.0) == pytest.approx(2e3, rel=1e-2)

    @pytest.mark.parametrize("p, expected", [
        (2.0, 1e300 / math.sqrt(2.0)),
        (0.5, 2.5e299),
        (1e-300, 1.0),  # the geometric mean
        (-1.0, 2e-300),  # harmonic: the ratio overflows instead
    ])
    def test_ratio_underflow(self, p, expected):
        # 1e-300 / 1e300 underflows to 0, whose log is undefined
        assert power_mean([1e300, 1e-300], None, p) == pytest.approx(expected)

    # 1e300 / 5e-324 overflows: at -1e-10 the mean raised OverflowError, at
    # -5e-324 it was inf; both lie next to the geometric mean
    def test_ratio_overflow_near_order_zero(self):
        values, p = [5e-324, 1e300], -1e-10
        geometric = power_mean(values, None, 0.0)
        assert geometric == pytest.approx(math.sqrt(5e-324) * 1e150)
        # two values at equal weight: M_p = G exp(p s^2 / 2 + O(p^3 s^4)), s
        # half the spread of their logs
        s = (math.log(1e300) - math.log(5e-324)) / 2
        assert power_mean(values, None, p) == pytest.approx(geometric * math.exp(p * s * s / 2))
        assert power_mean(values, None, -5e-324) == geometric

    def test_errors(self):
        with pytest.raises(ParameterError):
            power_mean([], None, 1.0)
        with pytest.raises(ParameterError):
            power_mean([1, 2], [1.0], 1.0)
        with pytest.raises(ParameterError):
            power_mean([-1.0], None, 1.0)
        with pytest.raises(ParameterError):
            power_mean([1.0, 2.0], [0.0, 0.0], 1.0)
        with pytest.raises(ParameterError, match="NaN value"):
            power_mean([1.0, math.nan], None, 2.0)
        with pytest.raises(ParameterError, match="NaN weight"):
            power_mean([1.0, 2.0], [1.0, math.nan], 2.0)

    @settings(max_examples=200)
    @given(
        values=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8),
        p_lo=st.floats(-20, 20),
        p_hi=st.floats(-20, 20),
    )
    @example(values=[0.75, 0.125], p_lo=0.0, p_hi=5e-324)
    def test_monotone_in_order(self, values, p_lo, p_hi):
        lo, hi = sorted((p_lo, p_hi))
        assert power_mean(values, None, lo) <= power_mean(values, None, hi) + 1e-9


class TestExpMean:
    def test_zero_order_is_arithmetic(self):
        assert exp_mean([1, 2, 3], None, 0.0) == pytest.approx(2.0)

    def test_frozen_example(self):
        assert exp_mean([0, 1], None, 1.0) == pytest.approx(math.log((1 + math.e) / 2))

    def test_infinite_order_is_max(self):
        assert exp_mean([3.0, 7.0, 5.0], None, INF) == 7.0
        assert exp_mean([3.0, 7.0, 5.0], None, -INF) == 3.0

    def test_shifted_exponentials_survive_large_arguments(self):
        # naive exp(p * x) would overflow at p * x = 1400
        assert exp_mean([700.0, 699.0], None, 2.0) == pytest.approx(700.0, abs=0.5)

    def test_agrees_with_naive_formula_when_safe(self):
        values, weights, p = [0.3, 1.2, 2.0], [0.2, 0.5, 1.0], -1.7
        naive = math.log(
            sum(w * math.exp(p * v) for v, w in zip(values, weights)) / sum(weights)
        ) / p
        assert exp_mean(values, weights, p) == pytest.approx(naive)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ParameterError):
            exp_mean([1.0], [0.0], 1.0)
        with pytest.raises(ParameterError, match="NaN value"):
            exp_mean([1.0, math.nan], None, 2.0)
        with pytest.raises(ParameterError, match="NaN weight"):
            exp_mean([1.0, 2.0], [1.0, math.nan], 2.0)

    @pytest.mark.parametrize("values, weights, p, limit", [
        ([1.0, 2.0], None, 1e308, 2.0),
        ([-1.0, -2.0], None, -1e308, -2.0),
        ([-2.0, -3.0], None, 1e308, -2.0),  # every p * x overflows to -inf
        ([1.0, 2.0, 5.0], [1.0, 1.0, 0.0], 1e308, 2.0),  # a zero weight drops 5.0
    ])
    def test_overflowing_exponent_gives_the_limit(self, values, weights, p, limit):
        # p * x overflows: the mean was nan
        assert exp_mean(values, weights, p) == limit

    @pytest.mark.parametrize("p", [5e-324, -5e-324])
    def test_subnormal_order_stays_within_range(self, p):
        assert 0.125 <= exp_mean([0.75, 0.125], None, p) <= 0.75


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
