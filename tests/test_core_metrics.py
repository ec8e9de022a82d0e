"""Core distance family: frozen examples, brute-force oracles, invariants."""

import math
import random

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
    semi_metric,
    symdiff_cardinality,
    triangle_surplus,
)
from setmetric.axioms import random_point_registry, subset_triple_sampler


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
    @pytest.mark.parametrize("lam", [math.inf, math.nan, -1.0])
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
        with pytest.raises(ParameterError):
            MatrixMetric(["a", "b", "c"], [[0, 1, 9], [1, 0, 2], [9, 2, 0]])

    def test_matrix_off_diagonal_zero_needs_pseudo_flag(self):
        table = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
        with pytest.raises(ParameterError):
            MatrixMetric(["a", "b", "c"], table)
        m = MatrixMetric(["a", "b", "c"], table, pseudo=True)
        assert m.distance(Element("a"), Element("b")) == 0.0

    def test_matrix_unknown_id(self):
        m = MatrixMetric(["a", "b"], [[0, 1], [1, 0]])
        with pytest.raises(UnknownIdError):
            m.distance(Element("a"), Element("zz"))


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
        assert check_outcome(lambda: MatrixMetric(ids, values, pseudo=pseudo)) == expected


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
