"""Nested collections of sets and the level-k average-distance metric.

A ``NestedSet`` at level 0 is an element id; at level k > 0 it is a
non-empty, deduplicated collection of level-(k-1) nested sets, canonicalized
so structural equality coincides with set equality. ``nested_average_metric``
applies the average-distance construction recursively: level 0 is the ground
distance, level 1 the plain finite-set metric, and each further level reuses
the previous one as its ground distance, staying a metric throughout.

``containing_collection`` and ``duality_ratio`` drive the finite duality
experiment: under a discrete distance of scale λ, the level-2 distance
between the collections of subsets containing two points is κ·λ, one κ in
(0, 1) for every pair. It runs at unit scale, so κ does not depend on λ.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, Iterator, NamedTuple, Union

from .core import (
    BaseMetric,
    ElementId,
    ElementRegistry,
    FiniteSet,
    _id_sort_key,
    _require_scale,
    _set_average,
    average_metric,
)
from .errors import DomainError, EmptySetError, LevelMismatchError, ParameterError

NestedValue = Union[ElementId, frozenset]

# Both enumerations of the 2^(n-1) subsets that contain a point stop here.
MAX_DUALITY_MEMBERS = 12


class NestedSet(NamedTuple):
    level: int
    value: NestedValue

    @classmethod
    def leaf(cls, eid: ElementId) -> "NestedSet":
        return cls(0, eid)

    @classmethod
    def of(cls, children: Iterable["NestedSet"]) -> "NestedSet":
        kids = frozenset(children)
        if not kids:
            raise EmptySetError("a nested collection must be non-empty")
        levels = {c.level for c in kids}
        if len(levels) != 1:
            raise LevelMismatchError(
                f"children sit at mixed levels {sorted(levels)}"
            )
        return cls(levels.pop() + 1, kids)

    @classmethod
    def build(cls, obj) -> "NestedSet":
        """Recursively lift ids / nested iterables into a NestedSet."""
        if isinstance(obj, NestedSet):
            return obj
        if isinstance(obj, (str, int)):
            return cls.leaf(obj)
        return cls.of(cls.build(child) for child in obj)

    def children(self) -> tuple["NestedSet", ...]:
        if self.level == 0:
            raise DomainError("a leaf has no children")
        return tuple(sorted(self.value, key=_sort_key))

    def __repr__(self) -> str:
        if self.level == 0:
            return repr(self.value)
        inner = ", ".join(repr(c) for c in self.children())
        return f"{{{inner}}}"


def _sort_key(ns: NestedSet):
    if ns.level == 0:
        return (0, _id_sort_key(ns.value))
    return (len(ns.value), tuple(sorted(_sort_key(c) for c in ns.value)))


def nested_average_metric(
    m: BaseMetric, registry: ElementRegistry, a: NestedSet, b: NestedSet
) -> float:
    """Level-k average-distance metric between equally deep nested sets."""
    if a.level != b.level:
        raise LevelMismatchError(
            f"operands at different levels: {a.level} vs {b.level}"
        )
    if a.level == 0:
        return m.distance(registry.element(a.value), registry.element(b.value))

    # The level-1 sets and the inner distances are kept for this call only:
    # the same children and pairs of children recur across its pairs.
    @functools.cache
    def flat(s: NestedSet) -> FiniteSet:
        return registry.set_of(leaf.value for leaf in s.value)

    @functools.cache
    def distance(x: NestedSet, y: NestedSet) -> float:
        if x.level == 1:
            return average_metric(m, flat(x), flat(y))
        return _set_average(x.value, y.value,
                            lambda xs, ys: itertools.starmap(distance, itertools.product(xs, ys)))

    return distance(a, b)


def containing_collection(eid: ElementId, x: FiniteSet) -> NestedSet:
    """The level-2 collection of all non-empty subsets of ``x`` containing
    ``eid``; its cardinality is 2^(|x|-1), so ``x`` has at most
    ``MAX_DUALITY_MEMBERS`` members, as in ``duality_ratio``."""
    if eid not in x:
        raise DomainError(f"{eid!r} is not a member of the ground set")
    if len(x) > MAX_DUALITY_MEMBERS:
        raise ParameterError(
            f"ground set of {len(x)} elements would enumerate 2^{len(x) - 1} subsets"
        )
    return NestedSet.of(
        NestedSet.of(NestedSet.leaf(i) for i in subset)
        for subset in _subsets_containing(eid, x.members)
    )


def _subsets_containing(eid: ElementId, members: Iterable[ElementId]) -> Iterator[tuple]:
    """Every subset of ``members`` that contains ``eid``, smallest first."""
    rest = [m for m in members if m != eid]
    for size in range(len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            yield (eid, *combo)


# ---------------------------------------------------------------------------
# Duality experiment
# ---------------------------------------------------------------------------


def duality_ratio(
    x: FiniteSet, lam: float = 1.0
) -> tuple[float, tuple[tuple[ElementId, ElementId, float], ...]]:
    """Ratio κ between the level-2 distance of containing collections and the
    ground distance, under a discrete ground distance of scale ``lam``.

    Each pair's level-2 distance is computed under the unit discrete metric,
    as a correctly rounded sum over one multiset of Jaccard distances, so all
    pairs hold one κ in (0, 1), whatever ``lam``. Returns ``(κ, table)`` with
    rows ``(id_a, id_b, lam * κ)`` in sorted pair order. Only the arguments
    can be refused: 2..``MAX_DUALITY_MEMBERS`` elements, a finite lam > 0.
    """
    n = len(x)
    if not 2 <= n <= MAX_DUALITY_MEMBERS:
        raise ParameterError(
            f"duality experiment needs a ground set of 2..{MAX_DUALITY_MEMBERS} elements, got {n}"
        )
    _require_scale(lam)
    # subset s of X is a bitmask over the positions in ``x.members``
    collections = [frozenset(s for s in range(1, 1 << n) if s >> k & 1) for k in range(n)]

    def inner(xs: frozenset, ys: frozenset) -> Iterator[float]:
        # the Jaccard distance |s ^ t| / |s | t|, as on Python sets
        return ((s ^ t).bit_count() / (s | t).bit_count() for s in xs for t in ys)

    table = [
        (ia, ib, _set_average(collections[ka], collections[kb], inner))
        for (ka, ia), (kb, ib) in itertools.combinations(enumerate(x.members), 2)
    ]
    kappa = table[0][2]
    return kappa, tuple((ia, ib, lam * d) for ia, ib, d in table)


# ---------------------------------------------------------------------------
# Sampling helper for axiom checks at level 2
# ---------------------------------------------------------------------------


def nested_triple_sampler(
    registry: ElementRegistry,
    inner_size: tuple[int, int] = (1, 4),
    outer_size: tuple[int, int] = (1, 4),
):
    """Random level-2 collections over a shared pool, for ``check_axioms``:
    ``outer_size`` sets of ``inner_size`` members, both inclusive ranges of
    integers from 1; inner sizes are lowered to the pool size."""
    from .axioms import _require_size_range, _subset_draw

    draw = _subset_draw(registry, *inner_size, what="inner")
    _require_size_range("outer", *outer_size)

    def sample(rng: random.Random):
        def one() -> NestedSet:
            n_outer = rng.randint(*outer_size)
            return NestedSet.of(NestedSet.of(map(NestedSet.leaf, draw(rng))) for _ in range(n_outer))

        return one(), one(), one()

    return sample
