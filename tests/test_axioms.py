"""Behavioral tests for the randomized axiom checker and its samplers."""

import json
import random
from unittest import mock

import pytest

from setmetric import (
    DiscreteMetric,
    ElementRegistry,
    EuclideanMetric,
    MatrixMetric,
    ParameterError,
    average_metric,
    chained_overlap_sampler,
    check_axioms,
    group_average,
    nested_triple_sampler,
    random_point_registry,
    semi_metric,
    subset_triple_sampler,
    triangle_surplus,
)
from setmetric import axioms


@pytest.fixture
def plane_pool():
    return random_point_registry(random.Random(42), size=12, dim=2)


def f_fn(registry):
    m = EuclideanMetric()
    return lambda a, b: average_metric(m, a, b)


def test_average_metric_has_no_violations(plane_pool):
    report = check_axioms(
        f_fn(plane_pool), subset_triple_sampler(plane_pool), n=1000, seed=0
    )
    assert report.ok
    assert report.checked == 1000


def test_reports_are_deterministic_per_seed(plane_pool):
    m = EuclideanMetric()
    g = lambda a, b: group_average(m, a, b)
    one = check_axioms(g, subset_triple_sampler(plane_pool), n=200, seed=9)
    two = check_axioms(g, subset_triple_sampler(plane_pool), n=200, seed=9)
    assert one == two
    other = check_axioms(g, subset_triple_sampler(plane_pool), n=200, seed=10)
    assert other != one


def test_group_average_violates_self_distance_only(plane_pool):
    m = EuclideanMetric()
    report = check_axioms(
        lambda a, b: group_average(m, a, b),
        subset_triple_sampler(plane_pool),
        n=500,
        seed=3,
    )
    counts = report.counts()
    assert counts.get("M2", 0) > 0
    assert counts.get("M5", 0) == 0
    assert counts.get("M1", 0) == 0
    assert counts.get("M4", 0) == 0


def test_semi_metric_counterexample_family(plane_pool):
    """The chained-overlap family must defeat the triangle inequality, and
    the defect must equal triangle_surplus(d, h, e) / (|A| |B| |C|)."""
    m = EuclideanMetric()
    e = lambda a, b: semi_metric(m, a, b)
    sampler = chained_overlap_sampler(plane_pool)
    report = check_axioms(e, sampler, n=200, seed=1, axioms=("M5",))
    assert report.counts().get("M5", 0) > 0

    rng = random.Random(1)
    for _ in range(100):
        a, b, c = sampler(rng)
        delta = plane_pool.set_of(a.ids - c.ids)
        eta = plane_pool.set_of(a.ids & c.ids)
        eps = plane_pool.set_of(c.ids - a.ids)
        violation = e(a, c) - e(a, b) - e(b, c)
        predicted = triangle_surplus(m, delta, eta, eps) / (len(a) * len(b) * len(c))
        assert violation == pytest.approx(predicted, abs=1e-12)


def test_semi_metric_passes_pair_axioms(plane_pool):
    m = EuclideanMetric()
    report = check_axioms(
        lambda a, b: semi_metric(m, a, b),
        subset_triple_sampler(plane_pool),
        n=1000,
        seed=5,
        axioms=("M1", "M2", "M3", "M4"),
    )
    assert report.ok


def test_pseudo_ground_distance_keeps_other_axioms():
    # a and b are distinct ids at ground distance zero
    reg = ElementRegistry({"a": None, "b": None, "c": None, "d": None})
    table = [
        [0.0, 0.0, 1.0, 3.0],
        [0.0, 0.0, 1.0, 3.0],
        [1.0, 1.0, 0.0, 2.0],
        [3.0, 3.0, 2.0, 0.0],
    ]
    m = MatrixMetric(["a", "b", "c", "d"], table, pseudo=True)
    dist = lambda x, y: average_metric(m, x, y)
    sampler = subset_triple_sampler(reg, 1, 4)
    report = check_axioms(dist, sampler, n=800, seed=2,
                          axioms=("M1", "M2", "M4", "M5"))
    assert report.ok
    identity = check_axioms(dist, sampler, n=800, seed=2, axioms=("M3",))
    assert identity.counts().get("M3", 0) > 0


def test_report_serializes_to_json(plane_pool):
    m = EuclideanMetric()
    report = check_axioms(
        lambda a, b: group_average(m, a, b),
        subset_triple_sampler(plane_pool),
        n=50,
        seed=0,
    )
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["checked"] == 50
    assert payload["ok"] == report.ok
    for violation in payload["violations"]:
        assert violation["axiom"] in {"M1", "M2", "M3", "M4", "M5"}
        assert violation["magnitude"] > report.tolerance


def test_invalid_arguments_rejected(plane_pool):
    fn = f_fn(plane_pool)
    sampler = subset_triple_sampler(plane_pool)
    with pytest.raises(ParameterError):
        check_axioms(fn, sampler, n=0)
    with pytest.raises(ParameterError):
        check_axioms(fn, sampler, n=10, axioms=("M9",))
    with pytest.raises(ParameterError):
        check_axioms(fn, sampler, n=10, tolerance=-1.0)
    with pytest.raises(ParameterError, match="got nan"):
        check_axioms(fn, sampler, n=10, tolerance=float("nan"))


@pytest.mark.parametrize("n", [2.5, float("nan"), True])
def test_sample_count_must_be_an_integer(n):
    # a float failed late in range(), and True checked one triple
    def untouched(*args):
        raise AssertionError("called before the count was checked")

    with pytest.raises(ParameterError, match=f"^sample count must be an integer, got {n!r}$"):
        check_axioms(untouched, untouched, n=n)


@pytest.mark.parametrize("field, value, what", [
    ("size", 12.0, "point count"), ("size", True, "point count"),
    ("dim", 2.0, "dimension"), ("dim", True, "dimension"),
])
def test_point_count_and_dimension_must_be_integers(field, value, what):
    # size=12.0 failed in range() with a bare TypeError, and size=True built one point
    rng = mock.Mock(spec=random.Random, uniform=lambda *args: 0.5)
    with pytest.raises(ParameterError, match=f"^{what} must be an integer, got {value!r}$"):
        random_point_registry(rng, **{field: value})


@pytest.mark.parametrize("field, what", [("size", "point count"), ("dim", "dimension")])
def test_pool_needs_a_point_and_a_dimension(field, what):
    # dim=0 failed as "no coordinates in the payload of 0", size=0 only in the sampler
    rng = mock.Mock(spec=random.Random, uniform=lambda *args: 0.5)
    with pytest.raises(ParameterError, match=f"^{what} must be >= 1, got 0$"):
        random_point_registry(rng, **{field: 0})


@pytest.mark.parametrize("lo, hi", [(0, 2), (5, 3)])
def test_subset_sizes_must_be_ordered_from_1(plane_pool, lo, hi):
    # 0:2 drew empty sets, and 5:3 drew 3:3; the test comes before HI is
    # lowered to the pool size
    with pytest.raises(ParameterError, match=rf"^subset sizes need 1 <= min_size <= max_size, "
                                             rf"got min_size={lo}, max_size={hi}$"):
        subset_triple_sampler(plane_pool, lo, hi)


def _untouched(*args):
    raise AssertionError("drew before the arguments were checked")


_POOL = random_point_registry(random.Random(0), size=12, dim=2)
_EMPTY = ElementRegistry()
_NO_DRAW = mock.Mock(spec=random.Random, uniform=_untouched)


# Each sampler and the pool builder decide their own arguments when called:
# a refusal deferred to the first draw would surface as a bare ValueError or
# EmptySetError deep inside check_axioms, if at all.
@pytest.mark.parametrize("call", [
    lambda: subset_triple_sampler(_POOL, 1.5, 3),
    lambda: subset_triple_sampler(_POOL, True, 3),
    lambda: subset_triple_sampler(_POOL, 1, 3.0),
    lambda: subset_triple_sampler(_POOL, 0, 2),
    lambda: subset_triple_sampler(_POOL, 5, 3),
    lambda: subset_triple_sampler(_EMPTY, 1, 3),
    lambda: nested_triple_sampler(_POOL, inner_size=(0, 4)),
    lambda: nested_triple_sampler(_POOL, inner_size=(1.5, 3)),
    lambda: nested_triple_sampler(_POOL, inner_size=(4, 2)),
    lambda: nested_triple_sampler(_POOL, outer_size=(0, 2)),
    lambda: nested_triple_sampler(_POOL, outer_size=(3, 1)),
    lambda: nested_triple_sampler(_POOL, outer_size=(1, True)),
    lambda: nested_triple_sampler(_EMPTY),
    lambda: chained_overlap_sampler(ElementRegistry({0: None, 1: None})),
    lambda: random_point_registry(_NO_DRAW, size=0),
    lambda: random_point_registry(_NO_DRAW, size=2.0),
    lambda: random_point_registry(_NO_DRAW, dim=0),
    lambda: random_point_registry(_NO_DRAW, dim=True),
    lambda: random_point_registry(_NO_DRAW, size=axioms.MAX_COORDINATES, dim=2),
], ids=["subset-float", "subset-bool", "subset-float-max", "subset-zero", "subset-order",
        "subset-empty-pool", "inner-zero", "inner-float", "inner-order", "outer-zero",
        "outer-order", "outer-bool", "nested-empty-pool", "chained-small-pool", "pool-size",
        "pool-size-float", "pool-dim", "pool-dim-bool", "pool-coordinates"])
def test_refusals_come_at_construction(call):
    with pytest.raises(ParameterError):
        call()


def test_valid_sizes_draw_as_before():
    # one helper draws both samplers' sets: rng.sample(ids, rng.randint(lo, hi))
    ids = list(_POOL.ids())
    rng, ref = random.Random(3), random.Random(3)
    a, b, c = subset_triple_sampler(_POOL, 2, 20)(rng)
    assert [s.ids for s in (a, b, c)] == [
        frozenset(ref.sample(ids, ref.randint(2, 12))) for _ in range(3)]
    assert rng.random() == ref.random()


def test_resource_limits_are_checked_before_any_work():
    def untouched(*args):
        raise AssertionError("called before the limit was checked")

    with pytest.raises(ParameterError, match="at most 100,000 samples"):
        check_axioms(untouched, untouched, n=axioms.MAX_TRIPLES + 1)
    rng = mock.Mock(spec=random.Random, uniform=untouched)
    with pytest.raises(ParameterError, match="coordinates exceed 100,000"):
        random_point_registry(rng, size=10**12, dim=10**6)
    with pytest.raises(ParameterError, match="coordinates exceed 100,000"):
        random_point_registry(rng, size=axioms.MAX_COORDINATES // 2 + 1, dim=2)


def test_partial_axioms_for_log_cardinality():
    from setmetric import log_cardinality_distance

    reg = random_point_registry(random.Random(0), size=12, dim=2)
    sampler = subset_triple_sampler(reg)
    report = check_axioms(
        lambda a, b: log_cardinality_distance(a, b, 0.25),
        sampler, n=800, seed=0,
        axioms=("M1", "M3", "M4", "partial-M5"),
    )
    assert report.ok
    # full M5 set flags the non-zero self distance through M2
    full = check_axioms(
        lambda a, b: log_cardinality_distance(a, b, 0.25),
        sampler, n=200, seed=0,
    )
    assert full.counts().get("M2", 0) > 0


def test_discrete_metric_distances_are_jaccard_scaled(plane_pool):
    # sanity: under a scaled discrete ground distance the checker sees a
    # metric for any positive scale
    m = DiscreteMetric(2.5)
    report = check_axioms(
        lambda a, b: average_metric(m, a, b),
        subset_triple_sampler(plane_pool),
        n=400,
        seed=7,
    )
    assert report.ok


# A negative, an asymmetric and a non-partial distance over the numbers of one
# triple: each fails exactly one axiom, by the magnitude recorded.
@pytest.mark.parametrize("dist, wanted, expected", [
    (lambda x, y: -1.0 if x != y else 0.0, ("M1",),
     axioms.Violation("M1", ("0", "1"), 1.0)),
    (lambda x, y: 2.0 * (x - y) if x > y else float(y - x), ("M4",),
     axioms.Violation("M4", ("0", "1"), 1.0)),
    (lambda x, y: abs(x - y) + (5.0 if x == y == 1 else 0.0), axioms.PARTIAL_AXIOMS,
     axioms.Violation("partial-M5", ("0", "1", "2"), 5.0)),
])
def test_violations_recorded(dist, wanted, expected):
    report = check_axioms(dist, lambda rng: (0, 1, 2), n=1, axioms=wanted)
    assert report.violations == (expected,)
