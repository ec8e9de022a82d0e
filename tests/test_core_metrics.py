"""Core distance family: frozen examples, brute-force oracles, invariants."""

import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setmetric import (
    DiscreteMetric,
    DomainError,
    Element,
    ElementRegistry,
    EmptySetError,
    EuclideanMetric,
    LpMetric,
    MatrixMetric,
    ParameterError,
    RegistryMismatchError,
    UnknownIdError,
    average_metric,
    group_average,
    hausdorff,
    jaccard,
    min_cross_distance,
    pair_sum,
    point_set_distance,
    pointwise_mean_distance,
    semi_metric,
    sidewise_mean_distance,
    symdiff_cardinality,
    triangle_surplus,
)
from setmetric.axioms import random_point_registry, subset_triple_sampler
from setmetric.core import MAX_TABLE_IDS, _cross_rows


def brute_pair_sum(m, a, b):
    return sum(m.distance(x, y) for x in a.elements() for y in b.elements())


def brute_f(m, a, b):
    """Independent evaluation of the average metric from its definition."""
    union = a.ids | b.ids
    b_only = [b.registry.element(i) for i in b.ids - a.ids]
    a_only = [a.registry.element(i) for i in a.ids - b.ids]
    first = sum(m.distance(x, y) for x in a.elements() for y in b_only)
    second = sum(m.distance(x, y) for x in a_only for y in b.elements())
    return first / (len(union) * len(a)) + second / (len(union) * len(b))


class TestRegistryAndSets:
    def test_duplicate_id_rejected(self):
        reg = ElementRegistry({1: None})
        with pytest.raises(ParameterError):
            reg.add(1)

    # f({a}, {b}) was 0.0 for two points without coordinates
    @pytest.mark.parametrize("payload", [[], ()])
    def test_empty_coordinates_rejected(self, payload):
        with pytest.raises(ParameterError, match="^no coordinates in the payload of 'a'$"):
            ElementRegistry({"a": payload, "b": payload})

    def test_members_deduplicated_and_sorted(self, line_registry):
        s = line_registry.set_of([3, 1, 3, 2, 1])
        assert s.members == (1, 2, 3)

    def test_equal_membership_compares_equal(self, line_registry):
        assert line_registry.set_of([2, 1]) == line_registry.set_of([1, 2, 2])

    def test_unregistered_member_rejected(self, line_registry):
        with pytest.raises(UnknownIdError):
            line_registry.set_of([99])

    def test_set_algebra(self, line_registry):
        a = line_registry.set_of([1, 2])
        b = line_registry.set_of([2, 3])
        assert a.union(b).members == (1, 2, 3)
        assert a.intersection(b).members == (2,)
        assert a.difference(b).members == (1,)
        assert a.symmetric_difference(b).members == (1, 3)

    def test_cross_registry_algebra_rejected(self, line_registry):
        other = ElementRegistry({1: 1.0, 2: 2.0})
        with pytest.raises(RegistryMismatchError):
            line_registry.set_of([1]).union(other.set_of([2]))

    def test_empty_set_constructible(self, line_registry):
        assert len(line_registry.set_of([])) == 0


class TestBaseMetrics:
    def test_discrete_identity(self):
        m = DiscreteMetric(1.0)
        assert m.distance(Element("a"), Element("a")) == 0.0

    def test_discrete_scaled(self):
        m = DiscreteMetric(2.5)
        assert m.distance(Element("a"), Element("b")) == 2.5

    def test_discrete_scale_must_be_positive(self):
        with pytest.raises(ParameterError):
            DiscreteMetric(0.0)

    # an infinite scale printed inf for f and nan inside the power means
    @pytest.mark.parametrize("lam", [math.inf, math.nan, -1.0, True])
    def test_discrete_scale_must_be_finite(self, lam):
        with pytest.raises(ParameterError, match="finite and positive"):
            DiscreteMetric(lam)

    def test_euclidean_3_4_5(self):
        m = EuclideanMetric()
        assert m.distance(Element(0, (0.0, 0.0)), Element(1, (3.0, 4.0))) == 5.0

    def test_euclidean_dimension_mismatch(self):
        m = EuclideanMetric()
        with pytest.raises(DomainError):
            m.distance(Element(0, (0.0,)), Element(1, (0.0, 1.0)))

    def test_lp_one(self):
        m = LpMetric(1.0)
        assert m.distance(Element(0, (0.0, 0.0)), Element(1, (3.0, 4.0))) == 7.0

    # the sum of the powers overflowed to inf, or underflowed to 0 and put two
    # distinct points at distance 0
    @pytest.mark.parametrize("x, y, expected", [
        ((0.0, 0.0), (1.3e154, 1.3e154), 1.3e154 * math.sqrt(2.0)),
        ((0.0,), (1e-200,), 1e-200),
        ((1e-200, 0.0), (0.0, 1e-200), 1e-200 * math.sqrt(2.0)),
    ])
    def test_lp_powers_out_of_range(self, x, y, expected):
        got = LpMetric(2.0).distance(Element(0, x), Element(1, y))
        assert got == pytest.approx(expected, rel=1e-15, abs=0)

    def test_lp_power_overflow(self):
        # 2e200 ** 3 raises OverflowError rather than giving inf
        got = LpMetric(3.0).distance(Element(0, (1e200,)), Element(1, (-1e200,)))
        assert got == 2e200

    # the sum of the powers, taken unscaled, was up to 230 ulps off at
    # p = 1.5 and scale 1e-200, and 116 ulps at 1e100. Factored, the most
    # seen over 14,000 random pairs of 1 to 4 coordinates was 2.18 ulps at
    # p = 1.5 (2.0 at p = 3, 1.94 at p = 7): besides the powers, the rounded
    # exponent 1/p, the root and the product each add error
    @pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
    def test_lp_within_3_ulps_of_a_60_digit_value(self, p):
        rng = random.Random(int(p * 10))
        m = LpMetric(p)
        for scale in (1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e200):
            for _ in range(60):
                dim = rng.randint(1, 4)
                x, y = ([rng.uniform(-scale, scale) for _ in range(dim)] for _ in range(2))
                got = m.distance(Element(0, tuple(x)), Element(1, tuple(y)))
                with localcontext() as ctx:
                    ctx.prec = 60
                    exact = sum(abs(Decimal(u) - Decimal(v)) ** Decimal(p)
                                for u, v in zip(x, y)) ** (1 / Decimal(p))
                    assert abs(Decimal(got) - exact) <= 3 * Decimal(math.ulp(float(exact)))

    def test_lp_requires_p_at_least_one(self):
        for p in (0.5, math.inf, math.nan):
            with pytest.raises(ParameterError):
                LpMetric(p)

    def test_matrix_valid_table(self):
        m = MatrixMetric(["a", "b", "c"], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        assert m.distance(Element("a"), Element("c")) == 3.0

    def test_matrix_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            MatrixMetric(["a", "b"], [[0, 1], [2, 0]])

    def test_matrix_negative_rejected(self):
        with pytest.raises(ParameterError):
            MatrixMetric(["a", "b"], [[0, -1], [-1, 0]])

    def test_matrix_triangle_violation_rejected(self):
        m = MatrixMetric(["a", "b", "c"], [[0, 1, 9], [1, 0, 2], [9, 2, 0]])
        with pytest.raises(ParameterError):
            m.distance(Element("a"), Element("b"))

    def test_matrix_off_diagonal_zero_needs_pseudo_flag(self):
        table = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
        with pytest.raises(ParameterError):
            MatrixMetric(["a", "b", "c"], table)
        m = MatrixMetric(["a", "b", "c"], table, pseudo=True)
        assert m.distance(Element("a"), Element("b")) == 0.0

    @pytest.mark.parametrize("pseudo", ["false", 0, 1, None])
    def test_matrix_pseudo_must_be_a_bool(self, pseudo):
        # bool("false") is True: the table was built as a pseudo-metric and read 0.0
        with pytest.raises(ParameterError, match="^matrix metric pseudo must be a bool, got "):
            MatrixMetric(["a", "b"], [[0, 0], [0, 0]], pseudo=pseudo)

    def test_matrix_unknown_id(self):
        m = MatrixMetric(["a", "b"], [[0, 1], [1, 0]])
        with pytest.raises(UnknownIdError):
            m.distance(Element("a"), Element("zz"))

    def test_matrix_id_limit_checked_before_the_table(self):
        with pytest.raises(ParameterError, match="from 1 to 1,000 ids, got 1,001"):
            MatrixMetric(range(MAX_TABLE_IDS + 1), [])

    def test_matrix_of_no_ids_rejected(self):
        with pytest.raises(ParameterError, match="^matrix metric needs from 1 to 1,000 ids, got 0$"):
            MatrixMetric([], [])

    def test_matrix_cell_of_exactly_the_tolerance_is_a_zero(self):
        # the tolerance is inclusive: a cell between distinct ids counts as a
        # zero up to TOLERANCE itself, and one ulp above it as a distance
        def table(cell):
            return [[0.0, cell], [cell, 0.0]]

        tolerance = MatrixMetric.TOLERANCE
        with pytest.raises(ParameterError, match="^zero distance between distinct ids 'a' and 'b'"):
            MatrixMetric(["a", "b"], table(tolerance))
        above = math.nextafter(tolerance, math.inf)
        assert MatrixMetric(["a", "b"], table(above)).distance(Element("a"), Element("b")) == above
        assert MatrixMetric(["a", "b"], table(tolerance), pseudo=True).pseudo


def reference_matrix_check(ids, values, pseudo=False, tolerance=1e-12):
    """The table checks as plain loops, in the order whose first failure
    ``MatrixMetric`` must report."""
    rows = tuple(tuple(float(v) for v in row) for row in values)
    n = len(ids)
    for i in range(n):
        for j in range(n):
            if math.isnan(rows[i][j]):
                raise ParameterError(f"undefined distance between {ids[i]!r} and {ids[j]!r}")
            if math.isinf(rows[i][j]):
                raise ParameterError(f"infinite distance between {ids[i]!r} and {ids[j]!r}")
    for i in range(n):
        if abs(rows[i][i]) > tolerance:
            raise ParameterError(f"nonzero self-distance for id {ids[i]!r}")
        for j in range(n):
            if rows[i][j] < -tolerance:
                raise ParameterError(f"negative distance between {ids[i]!r} and {ids[j]!r}")
            if abs(rows[i][j] - rows[j][i]) > tolerance:
                raise ParameterError(f"asymmetric table at {ids[i]!r}/{ids[j]!r}")
            if i != j and not pseudo and rows[i][j] <= tolerance:
                raise ParameterError(
                    f"zero distance between distinct ids {ids[i]!r} and "
                    f"{ids[j]!r}; flag the table as pseudo to allow it"
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][k] > rows[i][j] + rows[j][k] + tolerance:
                    raise ParameterError(
                        "triangle inequality fails for ids "
                        f"({ids[i]!r}, {ids[j]!r}, {ids[k]!r})"
                    )


def check_outcome(check):
    try:
        check()
    except ParameterError as exc:
        return str(exc)
    return None


@st.composite
def corrupted_tables(draw):
    """L1 distances of grid points, or a random symmetric table (which breaks
    the triangle inequality at many (i, j, k) at once), then a few cells
    overwritten."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        grid = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                             min_size=n, max_size=n))
        values = [[abs(x1 - x2) + abs(y1 - y2) for x2, y2 in grid] for x1, y1 in grid]
    else:
        upper = draw(st.lists(st.integers(1, 9), min_size=n * n, max_size=n * n))
        values = [[0 if i == j else upper[min(i, j) * n + max(i, j)] for j in range(n)]
                  for i in range(n)]
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    junk = st.sampled_from([0.0, -1.0, -1e-13, 1e-13, 0.5, 3.0, 100.0, math.nan, math.inf])
    for i, j in draw(st.lists(cell, max_size=3)):
        values[i][j] = draw(junk)
        if draw(st.booleans()):
            values[j][i] = values[i][j]
    return [f"id{k}" for k in range(n)], values, draw(st.booleans())


class TestMatrixValidation:
    @settings(max_examples=400, deadline=None)
    @given(table=corrupted_tables())
    def test_same_first_failure_as_the_loops(self, table):
        ids, values, pseudo = table
        expected = check_outcome(lambda: reference_matrix_check(ids, values, pseudo))
        first = Element(ids[0])
        assert check_outcome(
            lambda: MatrixMetric(ids, values, pseudo=pseudo).distance(first, first)) == expected


def first_triangle_failure(values, tolerance=1e-12):
    """(i, j, k) of the first failing triangle in loop order, one row of i at a time."""
    table = np.array(values, dtype=float)
    for i in range(len(table)):
        violated = table[i] > (table[i][:, None] + table) + tolerance
        if violated.any():
            return (i, *divmod(int(np.argmax(violated)), len(table)))
    return None


class TestDeferredTriangleCheck:
    """A table is built after its cell checks; its first read checks the triangles."""

    IDS = ["a", "b", "c"]
    VALUES = [[0, 1, 9], [1, 0, 2], [9, 2, 0]]  # d(a, c) > d(a, b) + d(b, c)
    MESSAGE = r"^triangle inequality fails for ids \('a', 'b', 'c'\)$"

    def test_built_without_the_check(self):
        m = MatrixMetric(self.IDS, self.VALUES)
        assert (m.ids, m.pseudo, m.symmetric) == (("a", "b", "c"), False, True)
        assert m._rows == ((0.0, 1.0, 9.0), (1.0, 0.0, 2.0), (9.0, 2.0, 0.0))

    def test_every_read_raises(self):
        m = MatrixMetric(self.IDS, self.VALUES)
        for _ in range(2):  # a failed check leaves nothing half set
            with pytest.raises(ParameterError, match=self.MESSAGE):
                m.distance(Element("a"), Element("a"))
            assert "_table" not in vars(m) and "_index" not in vars(m)

    def test_the_first_block_read_raises(self):
        # 20 x 20 = 400 pairs take the block path; ids beyond the triangle come first
        ids = self.IDS + [f"x{k}" for k in range(37)]
        values = [[0.0 if i == j else 10.0 for j in range(40)] for i in range(40)]
        for i, row in enumerate(self.VALUES):
            values[i][:3] = row
        registry = ElementRegistry(dict.fromkeys(ids))
        m = MatrixMetric(ids, values)
        with pytest.raises(ParameterError, match=self.MESSAGE):
            _cross_rows(m, registry, ids[:20], ids[20:])
        with pytest.raises(ParameterError, match=self.MESSAGE):
            group_average(m, registry.set_of(ids[:20]), registry.set_of(ids[20:]))

    @pytest.mark.parametrize("seed", range(6))
    def test_blocks_of_rows_report_the_first_failure_in_loop_order(self, seed):
        # 200 ids: three rows per block, so a failure may fall anywhere in one
        rng = random.Random(seed)
        xs = [rng.uniform(0, 100) for _ in range(200)]
        values = [[abs(x - y) for y in xs] for x in xs]
        for _ in range(seed):
            i, j = rng.sample(range(200), 2)
            values[i][j] = values[j][i] = values[i][j] * 3 + 1
        ids = [f"t{k}" for k in range(200)]
        m = MatrixMetric(ids, values)
        expected = first_triangle_failure(values)
        if expected is None:
            assert m.distance(Element("t0"), Element("t1")) == values[0][1]
        else:
            i, j, k = expected
            with pytest.raises(ParameterError) as info:
                m.distance(Element("t0"), Element("t1"))
            assert str(info.value) == (
                f"triangle inequality fails for ids ({ids[i]!r}, {ids[j]!r}, {ids[k]!r})")


class TestPointAndInfDistances:
    def test_point_in_set_gives_zero(self, line_registry, euclid):
        x = line_registry.element(0)
        assert point_set_distance(euclid, x, line_registry.set_of([0, 1])) == 0.0

    def test_point_to_set_min_over_candidates(self, line_registry, euclid):
        x = line_registry.element(5)
        assert point_set_distance(euclid, x, line_registry.set_of([0, 1])) == 4.0

    def test_point_to_set_discrete(self, line_registry):
        m = DiscreteMetric(1.0)
        x = line_registry.element(9)
        assert point_set_distance(m, x, line_registry.set_of([0, 1, 2])) == 1.0

    def test_point_to_set_empty_rejected(self, line_registry, euclid):
        with pytest.raises(EmptySetError):
            point_set_distance(euclid, line_registry.element(0), line_registry.set_of([]))

    def test_inf_shared_element(self, line_registry, euclid):
        assert min_cross_distance(euclid, line_registry.set_of([0, 1]),
                                  line_registry.set_of([1, 2])) == 0.0

    def test_inf_brute_force(self, line_registry, euclid):
        a, b = line_registry.set_of([0, 1]), line_registry.set_of([3, 5])
        brute = min(abs(x - y) for x in (0, 1) for y in (3, 5))
        assert min_cross_distance(euclid, a, b) == brute == 2.0

    def test_inf_discrete_disjoint(self, line_registry):
        m = DiscreteMetric(1.5)
        assert min_cross_distance(m, line_registry.set_of([0]),
                                  line_registry.set_of([1])) == 1.5


class TestPairSum:
    def test_frozen_example(self, line_registry, euclid):
        a, b = line_registry.set_of([0, 1]), line_registry.set_of([2, 3])
        assert pair_sum(euclid, a, b) == pytest.approx(8.0)

    def test_empty_side_is_zero(self, line_registry, euclid):
        assert pair_sum(euclid, line_registry.set_of([0, 1]), line_registry.set_of([])) == 0.0

    def test_single_identical_point(self, line_registry, euclid):
        x = line_registry.set_of([4])
        assert pair_sum(euclid, x, x) == 0.0

    def test_symmetry(self, line_registry, euclid):
        a, b = line_registry.set_of([0, 2, 5]), line_registry.set_of([1, 9])
        assert pair_sum(euclid, a, b) == pair_sum(euclid, b, a)

    def test_disjoint_decomposition(self, euclid):
        rng = random.Random(11)
        registry = random_point_registry(rng, size=10, dim=2)
        for _ in range(50):
            ids = rng.sample(range(10), 8)
            a, b = ids[:4], ids[4:]
            whole = pair_sum(euclid, registry.set_of(a), registry.set_of(b))
            parts = sum(
                pair_sum(euclid, registry.set_of(a[:2] if i == 0 else a[2:]),
                         registry.set_of(b[:2] if j == 0 else b[2:]))
                for i in (0, 1) for j in (0, 1)
            )
            assert whole == pytest.approx(parts, abs=1e-12)

    def test_matches_brute_force(self, euclid):
        rng = random.Random(5)
        registry = random_point_registry(rng, size=8, dim=2)
        sampler = subset_triple_sampler(registry, 1, 6)
        for _ in range(30):
            a, b, _ = sampler(rng)
            assert pair_sum(euclid, a, b) == pytest.approx(brute_pair_sum(euclid, a, b))

    # fsum raised OverflowError
    def test_sum_past_the_largest_float_is_inf(self, line_registry):
        m = DiscreteMetric(1e308)
        assert pair_sum(m, line_registry.set_of([0]), line_registry.set_of([1])) == 1e308
        assert pair_sum(m, line_registry.set_of([0]), line_registry.set_of([1, 2])) == math.inf


class TestTriangleSurplus:
    def test_collinear_equality_case(self, line_registry, euclid):
        a, b, c = (line_registry.set_of([i]) for i in (0, 1, 3))
        assert triangle_surplus(euclid, a, b, c) == pytest.approx(0.0)

    def test_identical_singletons(self, line_registry, euclid):
        x = line_registry.set_of([4])
        assert triangle_surplus(euclid, x, x, x) == 0.0

    def test_discrete_disjoint_singletons(self, line_registry):
        m = DiscreteMetric(1.0)
        a, b, c = (line_registry.set_of([i]) for i in (0, 1, 2))
        assert triangle_surplus(m, a, b, c) == pytest.approx(1.0)

    def test_nonnegative_for_metric_ground(self, euclid):
        rng = random.Random(23)
        registry = random_point_registry(rng, size=12, dim=2)
        sampler = subset_triple_sampler(registry, 1, 8)
        assert all(
            triangle_surplus(euclid, *sampler(rng)) >= -1e-12 for _ in range(400)
        )

    def test_empty_operand_rejected(self, line_registry, euclid):
        with pytest.raises(EmptySetError):
            triangle_surplus(euclid, line_registry.set_of([]),
                             line_registry.set_of([1]), line_registry.set_of([2]))

    # a pair sum raised OverflowError, and |C| s(A, B) = inf made inf - inf = nan
    @pytest.mark.parametrize("c", [[2, 3], [2]])
    def test_overflow_is_a_domain_error(self, line_registry, c):
        a, b = line_registry.set_of([0]), line_registry.set_of([1])
        with pytest.raises(DomainError, match="passes the largest float"):
            triangle_surplus(DiscreteMetric(1e308), a, b, line_registry.set_of(c))


class TestGroupAverage:
    def test_half(self, line_registry, euclid):
        assert group_average(euclid, line_registry.set_of([0]),
                             line_registry.set_of([0, 1])) == 0.5

    def test_identical_singleton(self, line_registry, euclid):
        x = line_registry.set_of([0])
        assert group_average(euclid, x, x) == 0.0

    def test_two(self, line_registry, euclid):
        assert group_average(euclid, line_registry.set_of([0, 1]),
                             line_registry.set_of([2, 3])) == 2.0

    def test_nonzero_self_distance(self, line_registry, euclid):
        s = line_registry.set_of([0, 1])
        assert group_average(euclid, s, s) == 0.5


class TestAverageMetric:
    def test_half(self, line_registry, euclid):
        assert average_metric(euclid, line_registry.set_of([0]),
                              line_registry.set_of([0, 1])) == 0.5

    def test_equal_sets_give_zero(self, line_registry, euclid):
        s = line_registry.set_of([2, 5, 7])
        assert average_metric(euclid, s, s) == 0.0

    def test_discrete_equals_jaccard(self, line_registry):
        m = DiscreteMetric(1.0)
        a, b = line_registry.set_of([1, 2]), line_registry.set_of([2, 3])
        assert average_metric(m, a, b) == pytest.approx(2 / 3, abs=1e-15)
        assert jaccard(a, b) == pytest.approx(2 / 3, abs=1e-15)

    def test_matches_direct_definition(self, euclid):
        rng = random.Random(17)
        registry = random_point_registry(rng, size=10, dim=2)
        sampler = subset_triple_sampler(registry, 1, 8)
        for _ in range(100):
            a, b, _ = sampler(rng)
            assert average_metric(euclid, a, b) == pytest.approx(brute_f(euclid, a, b))

    def test_singleton_isometry(self, euclid):
        rng = random.Random(2)
        registry = random_point_registry(rng, size=8, dim=2)
        for ia in range(8):
            for ib in range(8):
                f = average_metric(euclid, registry.set_of([ia]), registry.set_of([ib]))
                d = euclid.distance(registry.element(ia), registry.element(ib))
                assert f == d

    def test_disjoint_reduces_to_group_average(self, line_registry, euclid):
        a, b = line_registry.set_of([0, 1]), line_registry.set_of([5, 9])
        assert average_metric(euclid, a, b) == pytest.approx(group_average(euclid, a, b))

    def test_registry_mismatch_rejected(self, line_registry, euclid):
        other = ElementRegistry({0: 0.0})
        with pytest.raises(RegistryMismatchError):
            average_metric(euclid, line_registry.set_of([0]), other.set_of([0]))

    def test_empty_rejected(self, line_registry, euclid):
        with pytest.raises(EmptySetError):
            average_metric(euclid, line_registry.set_of([]), line_registry.set_of([1]))

    def test_pseudo_ground_distance_propagates(self):
        # two distinct ids at ground distance zero collapse the set distance
        table = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
        m = MatrixMetric(["a", "b", "c"], table, pseudo=True)
        reg = ElementRegistry({"a": None, "b": None, "c": None})
        assert average_metric(m, reg.set_of(["a"]), reg.set_of(["b"])) == 0.0


class TestSemiMetric:
    def test_equal_sets_give_zero(self, line_registry, euclid):
        s = line_registry.set_of([0, 3])
        assert semi_metric(euclid, s, s) == 0.0

    def test_frozen_example(self, line_registry, euclid):
        a, b = line_registry.set_of([0, 1]), line_registry.set_of([1, 2])
        # s(A,B) = 1+2+0+1 = 4, shared part contributes 0, so 4/4
        assert semi_metric(euclid, a, b) == 1.0

    def test_disjoint_equals_group_average(self, line_registry, euclid):
        a, b = line_registry.set_of([0, 1]), line_registry.set_of([4, 7])
        assert semi_metric(euclid, a, b) == group_average(euclid, a, b)


class TestHausdorff:
    def test_brute_force_example(self, line_registry, euclid):
        a, b = line_registry.set_of([0, 1]), line_registry.set_of([0, 5])
        directed = max(
            max(min(abs(x - y) for y in (0, 5)) for x in (0, 1)),
            max(min(abs(x - y) for x in (0, 1)) for y in (0, 5)),
        )
        assert hausdorff(euclid, a, b) == directed == 4.0

    def test_equal_sets(self, line_registry, euclid):
        s = line_registry.set_of([1, 2, 3])
        assert hausdorff(euclid, s, s) == 0.0

    def test_discrete_distinct_sets(self, line_registry):
        m = DiscreteMetric(2.0)
        assert hausdorff(m, line_registry.set_of([0, 1]), line_registry.set_of([1, 2])) == 2.0

    @pytest.mark.parametrize("symmetric, calls", [(True, 6), (False, 12)])
    def test_one_pass_under_a_symmetric_metric(self, line_registry, symmetric, calls):
        # on the scalar path, each pair is evaluated once where d(x, y) is
        # d(y, x) bit for bit, and in both orders otherwise
        class Counting(EuclideanMetric):
            def distance(self, x, y):
                seen.append((x.id, y.id))
                return super().distance(x, y)

        Counting.symmetric = symmetric
        seen = []
        a, b = line_registry.set_of([0, 1]), line_registry.set_of([1, 2, 6])
        # each direction decides once: 6 is 5 from A, no member of A is over 1 from B
        assert (hausdorff(Counting(), a, b), hausdorff(Counting(), b, a)) == (5.0, 5.0)
        assert len(seen) == 2 * calls

    # The work of the scalar path, which an EuclideanMetric subclass always
    # takes, on |A| = 5 and |B| = 7 sharing 2 members: |A||B| for pair_sum, g
    # and symmetric h, twice that for asymmetric h, |A||B∖A| + |A∖B||B| for
    # f, u and v, and |A∖B||B| + |A∩B||B∖A| for e.
    @pytest.mark.parametrize("distance, symmetric, calls", [
        (pair_sum, True, 35),
        (group_average, True, 35),
        (hausdorff, True, 35),
        (hausdorff, False, 70),
        (average_metric, True, 46),
        (pointwise_mean_distance, True, 46),
        (sidewise_mean_distance, True, 46),
        (semi_metric, True, 31),
    ])
    def test_ground_distance_calls_of_the_scalar_path(self, line_registry, distance,
                                                      symmetric, calls):
        class Counting(EuclideanMetric):
            def distance(self, x, y):
                seen.append((x.id, y.id))
                return super().distance(x, y)

        Counting.symmetric = symmetric
        seen = []
        distance(Counting(), line_registry.set_of(range(5)), line_registry.set_of(range(3, 10)))
        assert len(seen) == calls

    def test_tolerance_asymmetric_table(self):
        # symmetric within the 1e-12 tolerance, not bit for bit: d(B, A)
        # takes d(y, x), not the column of d(x, y)
        table = MatrixMetric(["a", "b", "c"], [[0, 1, 2], [1 + 1e-13, 0, 1], [2, 1, 0]])
        assert not table.symmetric
        registry = ElementRegistry(dict.fromkeys(["a", "b", "c", "y", "z"]))
        a, b = registry.set_of(["a"]), registry.set_of(["b"])
        assert hausdorff(table, a, b) == hausdorff(table, b, a) == 1 + 1e-13
        # the first failing pair in the order of the two directed passes:
        # d(a, b), d(a, y) fails before any d(z, .) or d(y, .)
        a, b = registry.set_of(["a", "z"]), registry.set_of(["b", "y"])
        with pytest.raises(UnknownIdError, match="^id not in distance table: 'y'$"):
            hausdorff(table, a, b)

    def test_one_pass_fails_at_the_first_pair(self):
        registry = ElementRegistry({"a": (0.0,), "b": (1.0,), "c": (2.0,), "d": (0.0, 0.0)})
        a, b = registry.set_of(["a", "b"]), registry.set_of(["c", "d"])
        with pytest.raises(DomainError, match="^dimension mismatch: 'a' has 1 coordinates, 'd' has 2$"):
            hausdorff(EuclideanMetric(), a, b)


class TestJaccardAndSymdiff:
    def test_two_thirds(self, line_registry):
        assert jaccard(line_registry.set_of([1, 2]),
                       line_registry.set_of([2, 3])) == pytest.approx(2 / 3)

    def test_equal_sets(self, line_registry):
        s = line_registry.set_of([1, 2])
        assert jaccard(s, s) == 0.0

    def test_disjoint_sets(self, line_registry):
        assert jaccard(line_registry.set_of([1]), line_registry.set_of([2])) == 1.0

    def test_one_empty_side(self, line_registry):
        assert jaccard(line_registry.set_of([1, 2]), line_registry.set_of([])) == 1.0

    def test_both_empty_rejected(self, line_registry):
        with pytest.raises(EmptySetError):
            jaccard(line_registry.set_of([]), line_registry.set_of([]))

    def test_symdiff_examples(self, line_registry):
        a, b = line_registry.set_of([1, 2]), line_registry.set_of([2, 3])
        assert symdiff_cardinality(a, b) == 2
        assert symdiff_cardinality(a, a) == 0
        assert symdiff_cardinality(a, line_registry.set_of([])) == len(a)


class TestBlockFallback:
    """An id outside a distance table sends operands of 256 pairs or more to
    the scalar path, which raises the same error as for small operands."""

    class Scalar(MatrixMetric):
        """A subclass always takes the scalar path."""

    @pytest.mark.parametrize("distance", [
        pair_sum, group_average, average_metric, semi_metric, hausdorff,
        pointwise_mean_distance, sidewise_mean_distance,
    ])
    def test_unknown_id_named_as_on_the_scalar_path(self, distance):
        ids = [f"t{k:02d}" for k in range(40)]
        values = [[abs(i - j) for j in range(40)] for i in range(40)]
        registry = ElementRegistry(dict.fromkeys(ids + ["zz"]))
        a, b = registry.set_of(ids[:20] + ["zz"]), registry.set_of(ids[10:])
        # every function, through A∖B × B or A × B∖A, meets zz in a block of 256 pairs or more
        assert len(a.difference(b)) * len(b) >= 256 and len(a) * len(b.difference(a)) >= 256
        errors = []
        for m in (MatrixMetric(ids, values), self.Scalar(ids, values)):
            with pytest.raises(UnknownIdError) as caught:
                distance(m, a, b)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] == "id not in distance table: 'zz'"
