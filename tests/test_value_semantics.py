"""Value semantics of the package's records and validated values.

Each class compares equal, and hashes alike, by its type and fields, with the
hash of the tuple of its fields (so sets of these values iterate in the same
order), prints the repr the code shows, and refuses assignment.
"""

import copy
import pickle
import random

import pytest

from setmetric import (
    AxiomReport,
    DiscreteMetric,
    DomainError,
    Element,
    ElementRegistry,
    EstimateResult,
    EuclideanMetric,
    FuzzySet,
    Interval,
    IntervalUnion,
    LpMetric,
    NestedSet,
    SamplePlan,
    UnknownIdError,
    Violation,
    Workspace,
    fuzzy_distance,
)
from setmetric.core import _Frozen, _Memo
from setmetric.verify import CheckRow

REGISTRY = ElementRegistry({"a": [0.0], "b": [1.0], "c": [2.0]})

# name: (make one value, make a different one, its fields, its repr, a field)
CASES = {
    "Element": (lambda: Element("a", (1.0, 2.0)), lambda: Element("a", (1.0,)),
                ("a", (1.0, 2.0)), "Element(id='a', payload=(1.0, 2.0))", "id"),
    "EstimateResult": (lambda: EstimateResult(0.5, 3, 4), lambda: EstimateResult(0.5, 4, 3),
                       (0.5, 3, 4), "EstimateResult(value=0.5, size_a=3, size_b=4)", "value"),
    "Violation": (lambda: Violation("M1", ("{'a'}",), 0.5), lambda: Violation("M4", (), 0.5),
                  ("M1", ("{'a'}",), 0.5),
                  "Violation(axiom='M1', witness=(\"{'a'}\",), magnitude=0.5)", "magnitude"),
    "AxiomReport": (lambda: AxiomReport(10, 1e-9, ("M1",), ()),
                    lambda: AxiomReport(11, 1e-9, ("M1",), ()),
                    (10, 1e-9, ("M1",), ()),
                    "AxiomReport(checked=10, tolerance=1e-09, axioms=('M1',), violations=())",
                    "checked"),
    "CheckRow": (lambda: CheckRow("x", 0.0, 1e-9, True), lambda: CheckRow("x", 1.0, 1e-9, False),
                 ("x", 0.0, 1e-9, True),
                 "CheckRow(name='x', deviation=0.0, tolerance=1e-09, passed=True)", "passed"),
    "FiniteSet": (lambda: REGISTRY.set_of(["b", "a", "b"]), lambda: REGISTRY.set_of(["a"]),
                  (REGISTRY, ("a", "b")), "{'a', 'b'}", "members"),
    "Interval": (lambda: Interval(0, 1), lambda: Interval(0, 2),
                 (0.0, 1.0), "Interval(lo=0.0, hi=1.0)", "lo"),
    "IntervalUnion": (lambda: IntervalUnion.of([(2, 3), (0, 1), (0.5, 1)]),
                      lambda: IntervalUnion.of([(0, 1)]),
                      ((Interval(0, 1), Interval(2, 3)),), "[0, 1] ∪ [2, 3]", "parts"),
    "SamplePlan": (lambda: SamplePlan(IntervalUnion.of([(0, 1)]), n=5),
                   lambda: SamplePlan(IntervalUnion.of([(0, 1)]), n=5, seed=1),
                   (IntervalUnion.of([(0, 1)]), 5, 0, "random"),
                   "SamplePlan(population=[0, 1], n=5, seed=0, mode='random')", "n"),
    "FuzzySet": (lambda: FuzzySet({"b": 0.5, "a": 1}), lambda: FuzzySet({"a": 1}),
                 ((("a", 1.0), ("b", 0.5)),), "FuzzySet(membership=(('a', 1.0), ('b', 0.5)))",
                 "membership"),
    "DiscreteMetric": (lambda: DiscreteMetric(2.0), lambda: DiscreteMetric(1.0),
                       (2.0,), "DiscreteMetric(lam=2.0)", "lam"),
    "EuclideanMetric": (EuclideanMetric, lambda: DiscreteMetric(),
                        (), "EuclideanMetric()", "symmetric"),
    "LpMetric": (lambda: LpMetric(3), lambda: LpMetric(2.0), (3,), "LpMetric(p=3)", "p"),
    "NestedSet": (lambda: NestedSet.build([[1, 2], [3]]), lambda: NestedSet.build([[1, 2]]),
                  (2, frozenset({NestedSet.build([1, 2]), NestedSet.build([3])})),
                  "{{3}, {1, 2}}", "level"),
}


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash(name):
    make, other, fields, _, _ = CASES[name]
    assert make() == make()
    assert not make() != make()
    assert make() != other()
    assert hash(make()) == hash(make()) == hash(fields)


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, _, _, text, _ = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", CASES)
def test_assignment_raises(name):
    make, _, _, _, field = CASES[name]
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name", CASES)
def test_pickle_and_copy(name):
    value = CASES[name][0]()
    # a set keeps its registry by identity, and a pickled one holds a copy
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value) and repr(twin) == repr(value)
        if name not in ("FiniteSet", "SamplePlan"):
            assert twin == value


@pytest.mark.parametrize("name", [name for name, case in CASES.items()
                                  if isinstance(case[0](), _Frozen)])
def test_values_have_no_instance_dict(name):
    assert not hasattr(CASES[name][0](), "__dict__")


def test_euclidean_metrics_compare_equal():
    assert EuclideanMetric() == EuclideanMetric()
    assert EuclideanMetric() != DiscreteMetric(1.0)
    assert len({EuclideanMetric(), EuclideanMetric()}) == 1


def test_check_row_survives_pickle():
    row = CheckRow("identity", 1e-17, 1e-12, True)
    assert pickle.loads(pickle.dumps(row)) == row


def test_workspaces_do_not_share_default_dicts():
    one, two = Workspace(REGISTRY, EuclideanMetric()), Workspace(REGISTRY, EuclideanMetric())
    one.sets["A"] = REGISTRY.set_of(["a"])
    one.intervals["I"] = IntervalUnion.of([(0, 1)])
    one.fuzzy["F"] = FuzzySet({"a": 1})
    assert (two.sets, two.intervals, two.fuzzy) == ({}, {}, {})


class TestFiniteSetMembers:
    REG = ElementRegistry({k: None for k in (3, "b", 1, "a", 2)})

    def test_mixed_ids_sort_ints_first(self):
        assert self.REG.set_of(["b", 2, "a", 3, 1, 2]).members == (1, 2, 3, "a", "b")

    def test_first_unknown_id_in_canonical_order(self):
        with pytest.raises(UnknownIdError, match=r"^set member not registered: 7$"):
            self.REG.set_of(["z", 1, 7, "a"])
        with pytest.raises(UnknownIdError, match=r"^set member not registered: 'y'$"):
            self.REG.set_of(["z", "a", "y"])


class TestFuzzyGroundReads:
    def test_missing_payload_names_the_failing_pair(self):
        registry = ElementRegistry({"a": [0.0], "b": [1.0], "c": [2.0], "d": None})
        a, b = FuzzySet({"b": 1.0}), FuzzySet({"c": 1.0, "d": 0.5})
        message = r"^vector metric needs numeric payloads, got 'b'/'d'$"
        with pytest.raises(DomainError, match=message):
            fuzzy_distance(EuclideanMetric(), registry, a, b)

    @pytest.mark.parametrize("size", [6, 10, 30])
    def test_values_are_the_ground_distances(self, size):
        # a subclass has no batched form, so it reads EuclideanMetric.distance
        # for every pair of every cut
        class Scalar(EuclideanMetric):
            pass

        rng = random.Random(size)
        registry = ElementRegistry({k: [rng.random(), rng.random()] for k in range(2 * size)})
        grades = [(k + 1) / 10 for k in range(10)]
        a = FuzzySet({k: rng.choice(grades) for k in range(size)})
        b = FuzzySet({k: rng.choice(grades) for k in range(size // 2, size + size // 2)})
        assert (fuzzy_distance(EuclideanMetric(), registry, a, b)
                == fuzzy_distance(Scalar(), registry, a, b) > 0)

    def test_memo_evaluates_a_pair_once_and_keeps_no_error(self):
        seen = []

        class Counting(EuclideanMetric):
            def distance(self, x, y):
                seen.append((x.id, y.id))
                return super().distance(x, y)

        registry = ElementRegistry({"a": [0.1, 0.2], "b": [0.7, 1.3], "d": None})
        a, b, d = map(registry.element, "abd")
        memo = _Memo(Counting())
        assert memo.distance(a, b) == memo.distance(a, b) == EuclideanMetric().distance(a, b)
        assert memo.distance(b, a) == EuclideanMetric().distance(b, a)
        for _ in range(2):
            with pytest.raises(DomainError, match=r"got 'a'/'d'$"):
                memo.distance(a, d)
        assert seen == [("a", "b"), ("b", "a"), ("a", "d"), ("a", "d")]
