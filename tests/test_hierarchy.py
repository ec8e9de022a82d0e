"""Nested sets, the level-k metric, containing collections, duality."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from setmetric import (
    DiscreteMetric,
    DomainError,
    ElementRegistry,
    EmptySetError,
    EuclideanMetric,
    LevelMismatchError,
    NestedSet,
    ParameterError,
    average_metric,
    check_axioms,
    containing_collection,
    duality_ratio,
    nested_average_metric,
    nested_triple_sampler,
    random_point_registry,
    subset_triple_sampler,
)
from setmetric.hierarchy import MAX_DUALITY_MEMBERS


class TestNestedSet:
    def test_leaf_level_zero(self):
        assert NestedSet.leaf(3).level == 0

    def test_duplicates_removed(self):
        a = NestedSet.build([[1, 2], [2, 1], [3]])
        assert len(a.value) == 2  # {1,2} appears once

    def test_order_insensitive_equality(self):
        assert NestedSet.build([[1, 2], [3]]) == NestedSet.build([[3], [2, 1]])

    def test_mixed_levels_rejected(self):
        with pytest.raises(LevelMismatchError):
            NestedSet.of([NestedSet.leaf(1), NestedSet.build([2])])

    def test_empty_collection_rejected(self):
        with pytest.raises(EmptySetError):
            NestedSet.of([])

    def test_children_sorted_canonically(self):
        a = NestedSet.build([[3], [1, 2]])
        assert [repr(c) for c in a.children()] == ["{3}", "{1, 2}"]


class TestNestedMetric:
    # The registry fixture is read-only, so sharing it across examples is safe.
    @pytest.mark.parametrize("registry_kind", ["line", "random"])
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_level_one_equals_flat_metric_exactly(self, registry_kind, line_registry, euclid, data):
        if registry_kind == "line":
            registry = line_registry
        else:
            coord = st.floats(-100, 100, allow_nan=False)
            points = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
            registry = ElementRegistry(dict(enumerate(points)))
        ids = st.sets(st.sampled_from(registry.ids()), min_size=1)
        a, b = registry.set_of(data.draw(ids)), registry.set_of(data.draw(ids))
        na = NestedSet.of(NestedSet.leaf(i) for i in a)
        nb = NestedSet.of(NestedSet.leaf(i) for i in b)
        assert nested_average_metric(euclid, registry, na, nb) == average_metric(euclid, a, b)

    def test_level_one_matches_flat_metric(self, line_registry, euclid):
        rng = random.Random(12)
        sampler = subset_triple_sampler(line_registry, 1, 6)
        for _ in range(60):
            a, b, _ = sampler(rng)
            na = NestedSet.of(NestedSet.leaf(i) for i in a)
            nb = NestedSet.of(NestedSet.leaf(i) for i in b)
            assert nested_average_metric(euclid, line_registry, na, nb) == pytest.approx(
                average_metric(euclid, a, b)
            )

    def test_level_three_memoised_equals_unmemoised_recursion(self):
        registry = random_point_registry(random.Random(5), size=8, dim=2)

        def counting_metric():
            calls = Counter()

            class Counting(EuclideanMetric):
                def distance(self, x, y):
                    calls[x.id, y.id] += 1
                    return super().distance(x, y)

            return Counting(), calls

        def flat(m, a, b):
            sets = [registry.set_of(leaf.value for leaf in s.value) for s in (a, b)]
            return average_metric(m, *sets)

        def reference(m, a, b, level_one_pairs):
            """The level-k metric by plain recursion, without a memo; records
            each distinct ordered pair of level-1 sets it evaluates."""
            if a.level == 1:
                level_one_pairs.add((a, b))
                return flat(m, a, b)
            b_only, a_only = b.value - a.value, a.value - b.value
            n_union = len(a.value) + len(b_only)
            s1 = math.fsum(reference(m, x, y, level_one_pairs) for x in a.value for y in b_only)
            s2 = math.fsum(reference(m, x, y, level_one_pairs) for x in a_only for y in b.value)
            return s1 / (n_union * len(a.value)) + s2 / (n_union * len(b.value))

        rng = random.Random(6)
        sampler = nested_triple_sampler(registry, inner_size=(1, 4), outer_size=(2, 3))
        for _ in range(8):
            a, b = (NestedSet.of(sampler(rng)) for _ in range(2))
            assert a.level == b.level == 3
            pairs = set()
            expected = reference(counting_metric()[0], a, b, pairs)
            m, calls = counting_metric()
            assert nested_average_metric(m, registry, a, b) == expected
            # one flat average_metric per distinct pair of level-1 sets: a leaf
            # pair is evaluated only as often as those flat metrics evaluate it
            m_flat, flat_calls = counting_metric()
            for sa, sb in pairs:
                flat(m_flat, sa, sb)
            assert calls == flat_calls

    def test_level_zero_is_ground_distance(self, line_registry, euclid):
        assert nested_average_metric(
            euclid, line_registry, NestedSet.leaf(2), NestedSet.leaf(7)
        ) == 5.0

    def test_equal_collections_give_zero(self, line_registry, euclid):
        a = NestedSet.build([[1, 2], [3, 4]])
        assert nested_average_metric(euclid, line_registry, a, a) == 0.0

    def test_singleton_collections_reduce_to_inner_distance(self, line_registry):
        m = DiscreteMetric(1.0)
        a = NestedSet.build([[1]])
        b = NestedSet.build([[2]])
        assert nested_average_metric(m, line_registry, a, b) == 1.0

    def test_level_mismatch_rejected(self, line_registry, euclid):
        with pytest.raises(LevelMismatchError):
            nested_average_metric(
                euclid, line_registry, NestedSet.build([[1]]), NestedSet.build([1])
            )

    def test_level_two_axioms(self):
        registry = random_point_registry(random.Random(77), size=10, dim=2)
        m = EuclideanMetric()
        report = check_axioms(
            lambda a, b: nested_average_metric(m, registry, a, b),
            nested_triple_sampler(registry),
            n=300,
            seed=77,
            tolerance=1e-9,
        )
        assert report.ok


class TestContainingCollection:
    def test_two_element_ground_set(self, line_registry):
        coll = containing_collection(0, line_registry.set_of([0, 1]))
        as_id_sets = {frozenset(c.value for c in subset.children())
                      for subset in coll.children()}
        assert as_id_sets == {frozenset({0}), frozenset({0, 1})}

    def test_singleton_ground_set(self, line_registry):
        coll = containing_collection(3, line_registry.set_of([3]))
        assert len(coll.value) == 1

    def test_cardinality_is_two_to_n_minus_one(self, line_registry):
        coll = containing_collection(0, line_registry.set_of([0, 1, 2, 3]))
        assert len(coll.value) == 8

    def test_member_required(self, line_registry):
        with pytest.raises(DomainError):
            containing_collection(9, line_registry.set_of([0, 1]))

    def test_size_cap(self):
        from setmetric import ElementRegistry

        reg = ElementRegistry({i: None for i in range(25)})
        with pytest.raises(ParameterError):
            containing_collection(0, reg.universe())

    def test_one_bound_for_both_enumerations(self):
        # containing_collection and duality_ratio stop at the same ground size
        reg = ElementRegistry({i: None for i in range(MAX_DUALITY_MEMBERS + 1)})
        largest = reg.set_of(range(MAX_DUALITY_MEMBERS))
        assert len(containing_collection(0, largest).value) == 2 ** 11
        with pytest.raises(ParameterError, match="would enumerate 2\\^12 subsets"):
            containing_collection(0, reg.universe())
        with pytest.raises(ParameterError, match="2..12 elements, got 13"):
            duality_ratio(reg.universe(), 1.0)


class TestDuality:
    def test_two_point_ground_set_is_exactly_half(self, line_registry):
        kappa, table = duality_ratio(line_registry.set_of([0, 1]), 1.0)
        assert kappa == 0.5
        assert table == ((0, 1, 0.5),)

    def test_infinite_scale_rejected(self, line_registry):
        with pytest.raises(ParameterError, match="finite and positive"):
            duality_ratio(line_registry.set_of([0, 1]), math.inf)

    def test_ratio_constant_and_bounded(self, line_registry):
        for size in (2, 3, 4, 5):
            kappa, table = duality_ratio(line_registry.set_of(list(range(size))), 1.0)
            assert 0.0 < kappa < 1.0
            values = [d for _, _, d in table]
            assert max(values) - min(values) <= 1e-9

    def test_scale_factors_through(self, line_registry):
        ground = line_registry.set_of([0, 1, 2])
        kappa1, _ = duality_ratio(ground, 1.0)
        kappa2, table2 = duality_ratio(ground, 2.0)
        assert kappa1 == kappa2
        assert table2[0][2] == 2.0 * kappa1

    @pytest.mark.parametrize("lam", [5e-324, 1e-300, 0.3, 2.5, 1e300, 1e308])
    def test_kappa_is_independent_of_the_scale(self, line_registry, lam):
        # lam scales only the returned rows: kappa is the unit-scale value bit
        # for bit, also where lam * kappa underflows to 0 or nears the float max
        for size in (2, 3, 5):
            ground = line_registry.set_of(range(size))
            kappa1, _ = duality_ratio(ground, 1.0)
            kappa, table = duality_ratio(ground, lam)
            assert kappa == kappa1
            assert {d for _, _, d in table} == {lam * kappa1}

    def test_closed_form_by_hand(self):
        assert kappa_closed_form(2) == Fraction(1, 2)
        assert kappa_closed_form(3) == Fraction(35, 72)

    @pytest.mark.parametrize("size", range(2, 9))
    def test_kappa_within_one_ulp_of_the_closed_form(self, line_registry, size):
        # f rounds two quotients, not one, so kappa may miss the correctly
        # rounded value by 1 ulp (it does at size 6)
        kappa, _ = duality_ratio(line_registry.set_of(range(size)), 1.0)
        exact = kappa_closed_form(size)
        assert abs(Fraction(kappa) - exact) <= math.ulp(float(exact))

    def test_matches_nested_metric_route(self, line_registry):
        m = DiscreteMetric(1.0)
        for size in (2, 3):
            ground = line_registry.set_of(list(range(size)))
            _, table = duality_ratio(ground, 1.0)
            for ia, ib, expected in table:
                ca = containing_collection(ia, ground)
                cb = containing_collection(ib, ground)
                assert nested_average_metric(m, line_registry, ca, cb) == pytest.approx(expected)

    def test_symdiff_of_containing_collections(self, line_registry):
        # |C(a) symdiff C(b)| = 2^(n-1) for any distinct pair: a constant,
        # hence trivially a pseudo-metric on the ground set
        for size in (2, 3, 4):
            ground = line_registry.set_of(list(range(size)))
            colls = {
                eid: {frozenset(c.value for c in subset.children())
                      for subset in containing_collection(eid, ground).children()}
                for eid in ground
            }
            for x, y in itertools.combinations(ground.members, 2):
                assert len(colls[x] ^ colls[y]) == 2 ** (size - 1)
            for x in ground:
                assert len(colls[x] ^ colls[x]) == 0

    @pytest.mark.parametrize("lam", [1.0, 0.3, 2.5])
    def test_bitmask_blocks_equal_the_set_computation(self, line_registry, lam):
        def jaccard(s, t):
            return len(s ^ t) / len(s | t)

        def level_two(ca, cb):
            """The average construction on collections of frozensets under the
            unit discrete metric, summed pair by pair with fsum."""
            b_only, a_only = cb - ca, ca - cb
            n_union = len(ca) + len(b_only)
            s1 = math.fsum(jaccard(s, t) for s in ca for t in b_only)
            s2 = math.fsum(jaccard(s, t) for s in a_only for t in cb)
            return s1 / (n_union * len(ca)) + s2 / (n_union * len(cb))

        for size in range(2, 8):
            ground = line_registry.set_of(range(size))
            colls = {
                eid: frozenset(frozenset(c.value for c in subset.children())
                               for subset in containing_collection(eid, ground).children())
                for eid in ground
            }
            _, table = duality_ratio(ground, lam)
            assert table == tuple(
                (x, y, lam * level_two(colls[x], colls[y]))
                for x, y in itertools.combinations(ground.members, 2)
            )

    def test_ground_set_size_limits(self, line_registry):
        with pytest.raises(ParameterError):
            duality_ratio(line_registry.set_of([0]), 1.0)


def kappa_closed_form(n: int) -> Fraction:
    """κ(n) under the discrete metric, exact: with m = n - 2, the pairs
    S ∋ a, T ∋ b, a ∉ T grouped by t = |(S ∪ T) ∖ {a, b}| and
    u = |(S △ T) ∖ {a, b}| number C(m,t) C(t,u) 2^u for each of b ∈ S and
    b ∉ S, at Jaccard distances (1 + u)/(2 + t) and (2 + u)/(2 + t)."""
    m = n - 2
    total = sum(Fraction(math.comb(m, t) * math.comb(t, u) * 2 ** u * (3 + 2 * u), 2 + t)
                for t in range(m + 1) for u in range(t + 1))
    return 2 * total / (3 * 2 ** (n - 2) * 2 ** (n - 1))
