"""The batched cross distances against a pure-Python reference.

From ``core._BLOCK_MIN_PAIRS`` pairs on, the finite-set distances under a
Euclidean or table metric read their cross distances in batches instead of
calling ``distance`` per pair: the sums and ``hausdorff`` as exact Python
rows (``core._exact_rows``), the row-wise means of ``power_means`` from a
numpy block (``core._cross_rows``). The L_p and discrete metrics stay on the
pair-by-pair path and are checked here too.
The reference below calls ``distance`` per pair and follows each definition
directly. Tolerances, fixed before the block was written: minima and maxima
exact, sums 1e-13 relative, means 1e-12 relative; the rows are held to the
pair-by-pair pass bit for bit.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setmetric import (
    DiscreteMetric,
    DomainError,
    Element,
    ElementRegistry,
    EuclideanMetric,
    LpMetric,
    MatrixMetric,
    ParameterError,
    average_metric,
    exp_mean,
    group_average,
    hausdorff,
    min_cross_distance,
    pair_sum,
    point_set_distance,
    pointwise_mean_distance,
    power_mean,
    semi_metric,
    sidewise_mean_distance,
)
from setmetric import core, power_means

SUM_REL = 1e-13
MEAN_REL = 1e-12

# ---------------------------------------------------------------------------
# Reference: one ``distance`` call per pair
# ---------------------------------------------------------------------------


def ref_d(m, registry):
    return lambda x, y: m.distance(registry.element(x), registry.element(y))


def ref_sum(m, registry, xs, ys):
    d = ref_d(m, registry)
    return math.fsum(d(x, y) for x in xs for y in ys)


def ref_average_metric(m, a, b):
    b_only = [y for y in b if y not in a]
    a_only = [x for x in a if x not in b]
    n_union = len(a) + len(b_only)
    return (ref_sum(m, a.registry, a, b_only) / (n_union * len(a))
            + ref_sum(m, a.registry, a_only, b) / (n_union * len(b)))


def ref_hausdorff(m, a, b):
    d = ref_d(m, a.registry)
    return max(max(min(d(x, y) for y in b) for x in a),
               max(min(d(y, x) for x in a) for y in b))


def ref_inner_means(m, side, inner, q):
    """x -> inner mean of the distances from x into ``side``."""
    d = ref_d(m, side.registry)
    return lambda x: inner([d(x, y) for y in side], q)


def mean(kind):
    return power_mean if kind == 1 else exp_mean


def ref_pointwise(m, a, b, i, j, p, q):
    into_a = ref_inner_means(m, a, mean(j), q)
    into_b = ref_inner_means(m, b, mean(j), q)
    union = a.union(b).members
    values = [0.0 if x in a and x in b else (into_a(x) if x in b else into_b(x)) for x in union]
    return mean(i)(values, p)


def ref_sidewise(m, a, b, k, i, j, r, p, q):
    union = a.union(b).members
    branches = []
    for side in (a, b):
        into = ref_inner_means(m, side, mean(j), q)
        branches.append(mean(i)([0.0 if x in side else into(x) for x in union], p))
    return mean(k)(branches, r)


def close(got, ref, rel, scale=None):
    return abs(got - ref) <= rel * abs(ref if scale is None else scale)


# ---------------------------------------------------------------------------
# Cases: four ground metrics, operands below and above the threshold
# ---------------------------------------------------------------------------

# small operands give at most 15 x 15 = 225 pairs, large ones at least 17 x 17 = 289
SIZES = {"small": (1, 15), "large": (17, 40)}
# the limits, the subnormal orders next to 0, and orders so large that every
# term but the extreme one vanishes
ORDERS = [-math.inf, -1e300, -1.0, -5e-324, 0.0, 5e-324, 0.5, 1.0, 2.0, 1e300, math.inf]


@st.composite
def cases(draw, kind, regime):
    n = 60
    dim = draw(st.integers(1, 4))
    coord = st.floats(-1000, 1000, allow_nan=False)
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
    if draw(st.booleans()):
        # distinct ids at one point: cross distances of 0 inside a row
        points = [points[k % 10] for k in range(n)]
    registry = ElementRegistry(dict(enumerate(points)))
    if kind == "euclidean":
        m = EuclideanMetric()
    elif kind == "lp":
        m = LpMetric(draw(st.sampled_from([1.0, 1.5, 3.0])))
    elif kind == "discrete":
        m = DiscreteMetric(draw(st.sampled_from([1.0, 0.3, 2.5])))
    else:
        # L1 distances of points on a coarse grid: ties and zeros (a pseudo
        # table), and an asymmetry inside the tolerance, which Hausdorff's
        # two directions must each see
        grid = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                             min_size=n, max_size=n))
        values = [[abs(x1 - x2) / 8 + abs(y1 - y2) / 8 + (4e-13 if i < j else 0.0)
                   for j, (x2, y2) in enumerate(grid)] for i, (x1, y1) in enumerate(grid)]
        m = MatrixMetric(list(range(n)), values, pseudo=True)
    lo, hi = SIZES[regime]
    ids = st.lists(st.integers(0, n - 1), min_size=lo, max_size=hi, unique=True)
    a, b = registry.set_of(draw(ids)), registry.set_of(draw(ids))
    return m, a, b


KINDS = ["euclidean", "lp", "discrete", "matrix"]
COMMON = dict(max_examples=30, deadline=None)


@pytest.mark.parametrize("regime", list(SIZES))
@pytest.mark.parametrize("kind", KINDS)
class TestAgainstReference:
    @settings(**COMMON)
    @given(data=st.data())
    def test_sums(self, kind, regime, data):
        m, a, b = data.draw(cases(kind, regime))
        s_ab = ref_sum(m, a.registry, a, b)
        assert close(pair_sum(m, a, b), s_ab, SUM_REL)
        assert close(group_average(m, a, b), s_ab / (len(a) * len(b)), SUM_REL)
        assert close(average_metric(m, a, b), ref_average_metric(m, a, b), SUM_REL)
        shared = a.intersection(b)
        ref_semi = (s_ab - ref_sum(m, a.registry, shared, shared)) / (len(a) * len(b))
        # a difference of two sums: relative to the sums, not to the difference
        assert close(semi_metric(m, a, b), ref_semi, SUM_REL, scale=s_ab / (len(a) * len(b)))

    @settings(**COMMON)
    @given(data=st.data())
    def test_minima_and_maxima_exact(self, kind, regime, data):
        m, a, b = data.draw(cases(kind, regime))
        d = ref_d(m, a.registry)
        assert hausdorff(m, a, b) == ref_hausdorff(m, a, b)
        assert min_cross_distance(m, a, b) == min(d(x, y) for x in a for y in b)
        x = a.members[0]
        assert point_set_distance(m, a.registry.element(x), b) == min(d(x, y) for y in b)

    @settings(**COMMON)
    @given(data=st.data(), kinds=st.tuples(*[st.integers(0, 1)] * 3),
           orders=st.tuples(*[st.sampled_from(ORDERS)] * 3))
    def test_means(self, kind, regime, data, kinds, orders):
        m, a, b = data.draw(cases(kind, regime))
        (k, i, j), (r, p, q) = kinds, orders
        got = pointwise_mean_distance(m, a, b, i=i, j=j, p=p, q=q)
        assert math.isclose(got, ref_pointwise(m, a, b, i, j, p, q), rel_tol=MEAN_REL)
        got = sidewise_mean_distance(m, a, b, k=k, i=i, j=j, r=r, p=p, q=q)
        assert math.isclose(got, ref_sidewise(m, a, b, k, i, j, r, p, q), rel_tol=MEAN_REL)


# ---------------------------------------------------------------------------
# The exact rows and the early-exit scan against the pair-by-pair pass
# ---------------------------------------------------------------------------

# magnitudes from 1e-300 to 1e300, which the numpy block refused, and ordinary ones
WIDE = st.one_of(st.sampled_from([0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0]),
                 st.floats(-1e300, 1e300), st.floats(-1000, 1000))


@st.composite
def exact_cases(draw):
    """A Euclidean metric over 50 points, two ids sharing one payload, or an
    asymmetric pseudo table over 50 ids, with two operands of 16 to 40 ids."""
    n = 50
    if draw(st.booleans()):
        dim = draw(st.integers(1, 4))
        points = draw(st.lists(st.tuples(*[WIDE] * dim), min_size=n, max_size=n))
        points[1] = points[0]
        registry, m = ElementRegistry(dict(enumerate(points))), EuclideanMetric()
    else:
        # L1 distances on a coarse grid, with ties and zeros, and d(x, y)
        # above d(y, x) by 4e-13, inside the tolerance, for x before y
        grid = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                             min_size=n, max_size=n))
        values = [[abs(x1 - x2) / 8 + abs(y1 - y2) / 8 + (4e-13 if i < j else 0.0)
                   for j, (x2, y2) in enumerate(grid)] for i, (x1, y1) in enumerate(grid)]
        registry = ElementRegistry(dict.fromkeys(range(n)))
        m = MatrixMetric(list(range(n)), values, pseudo=True)
    ids = st.lists(st.integers(0, n - 1), min_size=16, max_size=40, unique=True)
    return m, registry.set_of(draw(ids)), registry.set_of(draw(ids))


def assert_rows_equal_the_pair_loop(m, a, b):
    assert core._exact_rows(m, a.registry, a.members, b.members) is not None
    for fn in (pair_sum, group_average, average_metric, semi_metric, hausdorff):
        got = fn(m, a, b)
        with mock.patch.object(core, "_BLOCK_MIN_PAIRS", math.inf):
            expected = fn(m, a, b)
        assert got.hex() == expected.hex(), fn.__name__


@settings(max_examples=100, deadline=None)
@given(case=exact_cases())
def test_exact_rows_equal_the_pair_by_pair_pass_bit_for_bit(case):
    assert_rows_equal_the_pair_loop(*case)


def test_exact_rows_near_the_largest_float():
    # distances from 1.3e308 up, and past the largest float, where math.dist
    # returns inf: the sums overflow and Hausdorff's minima pass 1e308
    points = {k: (1.2e308 - k * 1e303,) for k in range(20)}
    points.update({20 + k: (-1e307 - k * 1e303,) for k in range(20)})
    points.update({40 + k: (-1.7e308 + k * 1e303,) for k in range(20)})
    registry, m = ElementRegistry(points), EuclideanMetric()
    a, b, c = (registry.set_of(range(k, k + 20)) for k in (0, 20, 40))
    assert math.isinf(hausdorff(m, a, c))
    for x, y in ((a, b), (b, a), (a, c), (a.union(b), b.union(c))):
        assert_rows_equal_the_pair_loop(m, x, y)


# values a block row can hold: zeros, ties, and distances far enough apart
# that their ratio underflows or overflows
ROW_VALUES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, 1e300]),
                       st.floats(0, 1e6))


# 1e-300: small enough for p * log(ratio) to be tiny, large enough to keep
# clear of the order-0 cutoff, so a ratio that underflows shows
# -1e-10: near order 0, where a ratio that overflows once overflowed the mean
@settings(max_examples=500, deadline=None)
@given(rows=st.lists(st.lists(ROW_VALUES, min_size=4, max_size=4), min_size=1, max_size=6),
       j=st.integers(0, 1), q=st.sampled_from(ORDERS + [1e-300, -1e-10]))
@example(rows=[[5e-324, 1e300, 1.0, 3.0], [0.5, 1.0, 1.0, 3.0]], j=1, q=-1e-10)
@example(rows=[[5e-324, 1e300, 1e300, 1e300]], j=1, q=-5e-324)
@example(rows=[[1.0, 3.0, 0.5, 0.0], [1e300, 0.5, 1.0, 3.0]], j=0, q=1e300)
def test_row_means_match_the_scalar_means(rows, j, q):
    for row, got in zip(rows, power_means._mean_rows(j, np.array(rows), q).tolist()):
        # where p * x or a ratio overflows, both forms take the limit: no nan
        assert math.isclose(got, mean(j)(row, q), rel_tol=MEAN_REL)


def general_branch(j, row, q):
    """Whether the scalar mean of ``row`` is m e^y or m + y, y the powered
    branch of ``_log_scale``: for a power mean, a positive m, every ratio to
    m of a positive value a normal float, and e^y a normal float."""
    m = max(row) if q > 0 else min(row)
    if not j:
        logs = [v - m for v in row]
    elif m == 0.0 or any(v and not sys.float_info.min <= v / m < math.inf for v in row):
        return False
    else:
        logs = [math.log(v / m) if v else -math.inf for v in row]
    y = power_means._log_scale(logs, q)
    return y is not None and (not j or math.log(sys.float_info.min) <= y <= math.log(sys.float_info.max))


# orders and values that reach the rare branches: the order-0 cutoff, ratios
# that are subnormal, 0 or inf, and e^y outside the normal floats
RARE_VALUES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1.7e308]), st.floats(0.01, 100.0))


# the row forms once copied the rare branches of the scalar means, and two of
# them came out 1 ulp off: the geometric mean at the cutoff and log(v) - log(m)
@settings(max_examples=1000, deadline=None)
@given(rows=st.integers(1, 5).flatmap(
           lambda n: st.lists(st.lists(RARE_VALUES, min_size=n, max_size=n), min_size=1, max_size=6)),
       j=st.integers(0, 1), q=st.sampled_from([s * x for s in (1, -1) for x in (5e-324, 1e-300, 1e10, 1e300)]))
@example(rows=[[0.3908128980303037, 2.766377979520266, 0.9411775494583565, 2.1611804033401993]],
         j=1, q=5e-324)
@example(rows=[[3.3377944101852945e-279, 1e300]], j=1, q=1e10)
def test_row_means_off_the_general_branch_are_the_scalar_means(rows, j, q):
    for row, got in zip(rows, power_means._mean_rows(j, np.array(rows), q).tolist()):
        if general_branch(j, row, q):
            assert math.isclose(got, mean(j)(row, q), rel_tol=MEAN_REL)
        else:
            assert got == mean(j)(row, q)


def test_large_operands_take_the_block_and_small_ones_do_not():
    registry = ElementRegistry({i: (float(i), float(i % 7)) for i in range(80)})
    table = [[abs(i - j) for j in range(80)] for i in range(80)]
    big, small = registry.set_of(range(40)), registry.set_of(range(8))
    for batched in (core._exact_rows, core._cross_rows):
        for m in (EuclideanMetric(), MatrixMetric(range(80), table)):
            assert batched(m, registry, big.members, big.members) is not None
            # the verify suites' operands have at most 8 members: they stay scalar
            assert batched(m, registry, small.members, small.members) is None
        for m in (LpMetric(3.0), DiscreteMetric()):
            assert batched(m, registry, big.members, big.members) is None


@pytest.mark.parametrize("size", [8, 40], ids=["scalar", "block"])
@pytest.mark.parametrize("distance, order", [
    (pointwise_mean_distance, "p"),
    # the block path returned the q = 0 value, the scalar path blamed a NaN value
    (pointwise_mean_distance, "q"),
    (sidewise_mean_distance, "r"),
    (sidewise_mean_distance, "p"),
    (sidewise_mean_distance, "q"),
])
def test_nan_order_is_rejected_on_both_paths(size, distance, order):
    registry = ElementRegistry({i: (float(i), float(i % 7)) for i in range(80)})
    a, b = registry.set_of(range(size)), registry.set_of(range(size // 2, size // 2 + size))
    m = EuclideanMetric()
    assert (core._cross_rows(m, registry, a.members, b.members) is not None) == (size == 40)
    with pytest.raises(ParameterError, match=f"order {order} must be a number, inf or -inf, got nan"):
        distance(m, a, b, **{order: math.nan})


def test_subclass_with_own_distance_stays_scalar():
    class Doubled(EuclideanMetric):
        def distance(self, x, y):
            return 2.0 * super().distance(x, y)

    registry = ElementRegistry({i: (float(i),) for i in range(60)})
    a, b = registry.set_of(range(30)), registry.set_of(range(20, 60))
    assert core._cross_rows(Doubled(), registry, a.members, b.members) is None
    assert core._exact_rows(Doubled(), registry, a.members, b.members) is None
    assert pair_sum(Doubled(), a, b) == 2.0 * pair_sum(EuclideanMetric(), a, b)


# ---------------------------------------------------------------------------
# The Euclidean block, value by value
# ---------------------------------------------------------------------------

# the magnitudes a registry may hold and still take the block, and zero
admitted = st.one_of(
    st.floats(2.0**-450, 2.0**500),
    st.floats(-(2.0**500), -(2.0**-450)),
    st.floats(-1000, 1000).filter(lambda v: v == 0.0 or abs(v) >= 2.0**-450),
    st.sampled_from([0.0, -0.0, 2.0**-450, 1.0, 3.0]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6))
def test_euclidean_block_is_within_a_few_ulps_of_distance(data, dim):
    rows = st.lists(st.tuples(*[admitted] * dim), min_size=1, max_size=12)
    xs, ys = data.draw(rows), data.draw(rows)
    m = EuclideanMetric()
    block = m._block(np.array(xs), np.array(ys)).tolist()
    for x, row in zip(xs, block):
        for y, got in zip(ys, row):
            expected = m.distance(Element(0, x), Element(1, y))
            assert abs(got - expected) <= (dim + 4) * 2.0**-53 * expected


@pytest.mark.parametrize("coordinate", [1e200, 1e-200, math.inf])
def test_payloads_outside_the_block_range_keep_the_exact_rows(coordinate):
    points = {i: (float(i), coordinate if i % 2 else 0.0) for i in range(40)}
    if coordinate == math.inf:
        # ElementRegistry.add rejects it: its distances were inf - inf, nan
        with pytest.raises(ParameterError, match="non-finite coordinate in the payload of 1"):
            ElementRegistry(points)
        return
    registry = ElementRegistry(points)
    a = registry.universe()
    m = EuclideanMetric()
    # the block refuses the magnitude, math.dist takes it
    assert core._cross_rows(m, registry, a.members, a.members) is None
    assert core._exact_rows(m, registry, a.members, a.members) is not None
    assert pair_sum(m, a, a) == ref_sum(m, registry, a, a)


@pytest.mark.parametrize("stray", [None, (1.0, 2.0), (1e200, 0.0, 0.0)], ids=["none", "2-d", "1e200"])
def test_a_payload_outside_the_operands_keeps_them_on_the_block(stray):
    # admission is decided over the operands' ids, not over the registry
    points = dict(enumerate(map(tuple, np.random.default_rng(11).standard_normal((40, 3)).tolist())))
    points[40] = stray
    registry = ElementRegistry(points)
    m = EuclideanMetric()
    # 30 x 30 pairs, and 30 x 10 on each side of the average metric
    a, b = registry.set_of(range(30)), registry.set_of(range(10, 40))
    assert core._cross_rows(m, registry, a.members, b.members) is not None
    assert close(average_metric(m, a, b), ref_average_metric(m, a, b), SUM_REL)
    assert hausdorff(m, a, b) == ref_hausdorff(m, a, b)
    assert math.isclose(pointwise_mean_distance(m, a, b), ref_pointwise(m, a, b, 1, 1, 1.0, 1.0),
                        rel_tol=MEAN_REL)


def test_payloads_of_2_to_the_20_coordinates_stay_scalar():
    # 2**20 squares of differences up to 2**501 could sum to 2**1022
    zeros = [0.0] * 2**20  # both payloads hold one float object: about 16 MB
    registry = ElementRegistry({0: zeros, 1: zeros})
    assert EuclideanMetric()._operand(registry, [0, 1]) is None


def test_hausdorff_is_exact_where_the_block_is_not():
    gen = np.random.default_rng(5)
    m = EuclideanMetric()
    for _ in range(20):
        registry = ElementRegistry(dict(enumerate(map(tuple, gen.standard_normal((70, 3)).tolist()))))
        a, b = registry.set_of(range(40)), registry.set_of(range(25, 70))
        block = np.concatenate(list(core._cross_rows(m, registry, a.members, b.members)))
        d = ref_d(m, registry)
        # the block differs from distance somewhere, so exactness is not free
        assert block.tolist() != [[d(x, y) for y in b] for x in a]
        assert hausdorff(m, a, b) == ref_hausdorff(m, a, b)


def test_hausdorff_is_exact_on_near_ties():
    # points on a sphere of radius 0.7 around c: every distance is 0.7 to
    # within a few ulps; at this seed the block's smallest and largest values
    # are not where the exact smallest and largest distances are, and the
    # scan's rows are math.dist itself
    c = (0.1, 0.2, 0.3)
    u = np.random.default_rng(42).standard_normal((300, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    points = [c, *map(tuple, (np.array(c) + 0.7 * u).tolist())]
    registry = ElementRegistry(dict(enumerate(points)))
    m, center, sphere = EuclideanMetric(), registry.set_of([0]), registry.set_of(range(1, 301))
    d = np.array([m.distance(registry.element(0), e) for e in sphere.elements()])
    block = np.concatenate(list(core._cross_rows(m, registry, (0,), sphere.members)))[0]
    assert d[block == block.min()].min() != d.min()
    assert d[block == block.max()].max() != d.max()
    for xs, ys, expected in [((0,), sphere.members, d.min()), (sphere.members, (0,), d.max())]:
        form = core._exact_rows(m, registry, xs, ys)
        assert core._largest_least(xs, ys, form, -math.inf) == expected
    assert hausdorff(m, center, sphere) == ref_hausdorff(m, center, sphere)


def test_hausdorff_on_a_ray_sorted_by_distance():
    # ids in order of distance along a ray: scanned in id order, the k-th
    # member of B would read k members of A before its row could stop (126,249
    # distances in all, against 6,630 in the scan's pseudo-random order)
    registry = ElementRegistry({k: (float(k), 0.0, 0.0) for k in range(1000)})
    m = EuclideanMetric()
    a, b = registry.set_of(range(500)), registry.set_of(range(500, 1000))
    assert hausdorff(m, a, b) == hausdorff(m, b, a) == 500.0
    # sharing half: 0 and 999 are each 250 from the other set
    a, b = registry.set_of(range(750)), registry.set_of(range(250, 1000))
    assert hausdorff(m, a, b) == 250.0
    assert hausdorff(m, a, a) == 0.0


def test_block_sums_are_symmetric():
    # one correctly rounded fsum over a symmetric block: f(A, B) = f(B, A)
    # exactly; distances of 1 and 1e15 make rounded partial sums differ
    gen = np.random.default_rng(7)
    m = EuclideanMetric()
    for _ in range(10):
        points = gen.standard_normal((300, 3)) * np.where(gen.random((300, 1)) < 0.2, 1e15, 1.0)
        registry = ElementRegistry(dict(enumerate(map(tuple, points.tolist()))))
        a, b = registry.set_of(range(200)), registry.set_of(range(60, 300))
        for fn in (pair_sum, group_average, average_metric, semi_metric):
            assert fn(m, a, b) == fn(m, b, a)


def test_wide_rows_are_tiled_without_changing_values():
    n = core._TILE_VALUES + 100
    registry = ElementRegistry({i: (float(i % 97), float(i % 13)) for i in range(n)})
    m = EuclideanMetric()
    xs, ys = (5, 17), registry.ids()
    chunks = list(core._cross_rows(m, registry, xs, ys))
    whole = m._block(m._operand(registry, xs), m._operand(registry, ys))
    assert np.concatenate(chunks).tolist() == whole.tolist()
    narrow = list(core._cross_rows(m, registry, ys[:100], ys[:100]))
    assert all(c.size <= core._TILE_VALUES for c in narrow)


# ---------------------------------------------------------------------------
# Bad payloads in large operands fail as on the scalar path
# ---------------------------------------------------------------------------

# family -> (function, the first pair in the scalar path's order that holds element 17)
FAMILIES = {
    "pair_sum": (pair_sum, (0, 17)),
    "group_average": (group_average, (0, 17)),
    "average_metric": (average_metric, (17, 30)),
    "semi_metric": (semi_metric, (0, 17)),
    "hausdorff": (hausdorff, (0, 17)),
    "min_cross_distance": (min_cross_distance, (0, 17)),
    "pointwise": (pointwise_mean_distance, (0, 17)),
    "sidewise": (sidewise_mean_distance, (30, 17)),
}


@pytest.mark.parametrize("bad, message", [
    (None, "vector metric needs numeric payloads, got {x!r}/{y!r}"),
    ((1.0, 2.0), "dimension mismatch: {x!r} has "),
])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_bad_payload_in_large_operand_names_the_same_pair(family, bad, message):
    points = {i: (float(i), 0.5 * i, 1.0) for i in range(40)}
    points[17] = bad
    registry = ElementRegistry(points)
    a, b = registry.set_of(range(0, 30)), registry.set_of(range(10, 40))
    fn, (x, y) = FAMILIES[family]
    with pytest.raises(DomainError) as raised:
        fn(EuclideanMetric(), a, b)
    assert str(raised.value).startswith(message.format(x=x, y=y))


@pytest.mark.parametrize("flip", [False, True], ids=["3-d first", "2-d first"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_operands_of_different_dimensions_raise_as_the_scalar_path(family, flip, monkeypatch):
    # each operand alone is admitted; together they stay on the scalar path
    points = {i: (float(i), 0.5 * i, 1.0) for i in range(20)}
    points.update({i: (float(i), 0.5 * i) for i in range(20, 40)})
    registry = ElementRegistry(points)
    a, b = registry.set_of(range(20)), registry.set_of(range(20, 40))
    if flip:
        a, b = b, a
    fn = FAMILIES[family][0]
    assert core._cross_rows(EuclideanMetric(), registry, a.members, b.members) is None
    with pytest.raises(DomainError, match="dimension mismatch") as raised:
        fn(EuclideanMetric(), a, b)
    monkeypatch.setattr(core, "_BLOCK_MIN_PAIRS", math.inf)
    with pytest.raises(DomainError) as scalar:
        fn(EuclideanMetric(), a, b)
    assert str(raised.value) == str(scalar.value)
