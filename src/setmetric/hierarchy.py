"""Nested collections of sets and the level-k average-distance metric.

A ``NestedSet`` at level 0 is an element id; at level k > 0 it is a
non-empty, deduplicated collection of level-(k-1) nested sets, canonicalized
so structural equality coincides with set equality. ``nested_average_metric``
applies the average-distance construction recursively: level 0 is the ground
distance, level 1 the plain finite-set metric, and each further level reuses
the previous one as its ground distance, staying a metric throughout.

``containing_collection`` and ``duality_ratio`` drive the finite duality
experiment: for a ground set X under a scaled discrete distance, the level-2
distance between the collections of subsets containing two points is a
constant multiple of the ground distance, with the ratio in (0, 1).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .core import (
    BaseMetric,
    ElementId,
    ElementRegistry,
    FiniteSet,
    _fsum_cross,
    _id_sort_key,
    _require_scale,
    _row_chunks,
    _set_average,
    average_metric,
)
from .errors import DomainError, EmptySetError, LevelMismatchError, ParameterError

NestedValue = Union[ElementId, frozenset]


@dataclass(frozen=True)
class NestedSet:
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
        return _set_average(x.value, y.value, _fsum_cross(distance))

    return distance(a, b)


def containing_collection(eid: ElementId, x: FiniteSet) -> NestedSet:
    """The level-2 collection of all non-empty subsets of ``x`` containing
    ``eid``; its cardinality is 2^(|x|-1), so ``x`` has at most 20 members."""
    if eid not in x:
        raise DomainError(f"{eid!r} is not a member of the ground set")
    if len(x) > 20:
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
    """Ratio between the level-2 distance of containing collections and the
    ground distance, under a discrete ground distance of scale ``lam``.

    Computes the level-2 distance for every pair of distinct ground
    elements, checks the ratio is the same for all pairs (within 1e-9) and
    lies in (0, 1), and returns ``(ratio, table)`` where the table rows are
    ``(id_a, id_b, level2_distance)`` in sorted pair order.
    """
    import numpy as np
    if not 2 <= len(x) <= 12:
        raise ParameterError(
            f"duality experiment needs a ground set of 2..12 elements, got {len(x)}"
        )
    _require_scale(lam)
    members = x.members
    # a subset of X is the bitmask of its members' positions in ``members``
    bit = {eid: 1 << k for k, eid in enumerate(members)}
    collections = {
        eid: frozenset(sum(map(bit.__getitem__, s)) for s in _subsets_containing(eid, members))
        for eid in members
    }
    popcount = np.array([bin(mask).count("1") for mask in range(1 << len(members))])

    def scaled_jaccard(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        # lam |s ^ t| / |s | t|, the same float operations as on Python sets
        return lam * popcount[np.bitwise_xor.outer(s, t)] / popcount[np.bitwise_or.outer(s, t)]

    def inner(xs: frozenset, ys: frozenset) -> float:
        s, t = np.fromiter(xs, np.int64, len(xs)), np.fromiter(ys, np.int64, len(ys))
        chunks = _row_chunks(scaled_jaccard, s, t)
        return math.fsum(itertools.chain.from_iterable(c.ravel().tolist() for c in chunks))

    table = []
    ratios = []
    for ia, ib in itertools.combinations(members, 2):
        d2 = _set_average(collections[ia], collections[ib], inner)
        table.append((ia, ib, d2))
        ratios.append(d2 / lam)
    spread = max(ratios) - min(ratios)
    if spread > 1e-9:
        raise DomainError(
            f"collection-distance ratio is not constant across pairs "
            f"(spread {spread:.3e})"
        )
    kappa = ratios[0]
    if not 0.0 < kappa < 1.0:
        raise DomainError(f"expected the ratio in (0, 1), got {kappa}")
    return kappa, tuple(table)


# ---------------------------------------------------------------------------
# Sampling helper for axiom checks at level 2
# ---------------------------------------------------------------------------


def nested_triple_sampler(
    registry: ElementRegistry,
    inner_size: tuple[int, int] = (1, 4),
    outer_size: tuple[int, int] = (1, 4),
):
    """Random level-2 collections over a shared pool, for ``check_axioms``."""
    ids = list(registry.ids())
    if not ids:
        raise ParameterError("sampler needs a non-empty registry")
    inner_hi = min(inner_size[1], len(ids))

    def sample(rng: random.Random):
        def one() -> NestedSet:
            n_outer = rng.randint(*outer_size)
            sets = []
            for _ in range(n_outer):
                k = rng.randint(inner_size[0], inner_hi)
                sets.append(NestedSet.of(NestedSet.leaf(i) for i in rng.sample(ids, k)))
            return NestedSet.of(sets)

        return one(), one(), one()

    return sample
