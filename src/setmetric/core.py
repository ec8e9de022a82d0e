"""Ground metrics on identified elements and the average-distance family on finite sets.

Elements carry an opaque id and a payload. Set algebra (union, intersection,
difference) works on ids only; the ground metric compares payloads. Keeping
the two apart is what lets a pseudo-metric (two distinct ids at distance
zero) coexist with honest set semantics: ``average_metric`` stays
well-defined and merely inherits the pseudo behaviour.

The distance family on finite sets:

* ``group_average``       mean of all cross-distances, s(A,B) / (|A| |B|)
* ``average_metric``      s(A,B\\A) / (|A∪B| |A|) + s(A\\B,B) / (|A∪B| |B|),
                          a true metric whenever the ground distance is one
* ``semi_metric``         (s(A,B) - s(A∩B,A∩B)) / (|A| |B|), triangle
                          inequality not guaranteed
* ``hausdorff``           max over both directed sup-inf distances
* ``jaccard``             |A△B| / |A∪B|, the discrete-metric special case of
                          ``average_metric``

The construction behind ``average_metric`` is written once, in
``_set_average``; the nested, duality, fuzzy and sampled 1-d distances call
it with their own inner distance.

Every finite-set distance above reads one matrix of cross distances d(x, y).
Small matrices are evaluated pair by pair through ``distance``; from
``_BLOCK_MIN_PAIRS`` pairs on, under a Euclidean or table metric,
``_cross_rows`` produces the matrix with numpy, in chunks of rows. Sums over
it are one ``math.fsum``; minima are evaluated again through ``distance``
where the block cannot tell them apart, so they are exact.

numpy is imported inside the functions that use it: the block path, the
payload table and ``MatrixMetric`` validation. The scalar path never loads it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DomainError,
    EmptySetError,
    ParameterError,
    RegistryMismatchError,
    UnknownIdError,
)

if TYPE_CHECKING:
    import numpy as np

ElementId = str | int


def _id_sort_key(eid: ElementId) -> tuple:
    # Mixed int/str ids must still sort deterministically.
    return (isinstance(eid, str), eid)


@dataclass(frozen=True)
class Element:
    """An identity-bearing point: equality and set algebra use the id only."""

    id: ElementId
    payload: Any = None


class ElementRegistry:
    """Id -> element table shared by the finite sets built over it.

    Treated as read-only once sets exist; nothing here mutates after
    construction-time ``add`` calls except the payload table that the first
    cross-distance block builds, which concurrent readers at worst build
    twice, alike, so concurrent reads are safe.
    """

    def __init__(self, elements: Mapping[ElementId, Any] | None = None):
        self._elements: dict[ElementId, Element] = {}
        self._table: tuple | None = None  # see _payload_table
        if elements:
            for eid, payload in elements.items():
                self.add(eid, payload)

    def add(self, eid: ElementId, payload: Any = None) -> Element:
        if eid in self._elements:
            raise ParameterError(f"duplicate element id: {eid!r}")
        if isinstance(payload, (list, tuple)):
            payload = tuple(float(v) for v in payload)
        elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
            payload = (float(payload),)
        if isinstance(payload, tuple) and not all(map(math.isfinite, payload)):
            raise ParameterError(f"non-finite coordinate in the payload of {eid!r}")
        element = Element(eid, payload)
        self._elements[eid] = element
        self._table = None
        return element

    def _payload_table(self) -> tuple[dict, "np.ndarray | None"]:
        """The row of every id, and the payloads as one float64 array with a
        row per id.

        The array is None unless every payload is a tuple of one common
        length, between 1 and 2**20, whose coordinates are 0 or of magnitude
        in [2**-450, 2**500]. Then every nonzero coordinate difference lies in
        [2**-502, 2**501], so no square and no sum of squares leaves the
        normal float range. Built on first use; ``add`` drops it.
        """
        import numpy as np
        if self._table is None:
            rows = {eid: k for k, eid in enumerate(self._elements)}
            payloads = [e.payload for e in self._elements.values()]
            coords = None
            if (
                payloads
                and all(isinstance(p, tuple) for p in payloads)
                and len({len(p) for p in payloads}) == 1
                and 0 < len(payloads[0]) < 2**20
            ):
                coords = np.array(payloads, dtype=np.float64)
                size = np.abs(coords)
                if not ((size == 0.0) | ((size >= 2.0**-450) & (size <= 2.0**500))).all():
                    coords = None
            self._table = (rows, coords)
        return self._table

    def element(self, eid: ElementId) -> Element:
        try:
            return self._elements[eid]
        except KeyError:
            raise UnknownIdError(f"unknown element id: {eid!r}") from None

    def ids(self) -> tuple[ElementId, ...]:
        return tuple(sorted(self._elements, key=_id_sort_key))

    def set_of(self, members: Iterable[ElementId]) -> "FiniteSet":
        return FiniteSet(self, tuple(members))

    def universe(self) -> "FiniteSet":
        return FiniteSet(self, self.ids())

    def __contains__(self, eid: ElementId) -> bool:
        return eid in self._elements

    def __len__(self) -> int:
        return len(self._elements)


@dataclass(frozen=True)
class FiniteSet:
    """A deduplicated, canonically ordered set of element ids over a registry.

    Members are stored sorted, so two sets with equal membership compare (and
    hash) equal. Empty sets are constructible because pairwise sums accept
    them; every metric operation rejects them explicitly.
    """

    registry: ElementRegistry
    members: tuple[ElementId, ...]

    def __post_init__(self):
        canonical = tuple(sorted(set(self.members), key=_id_sort_key))
        for eid in canonical:
            if eid not in self.registry:
                raise UnknownIdError(f"set member not registered: {eid!r}")
        object.__setattr__(self, "members", canonical)
        object.__setattr__(self, "_idset", frozenset(canonical))

    @property
    def ids(self) -> frozenset:
        return self._idset  # type: ignore[attr-defined]

    def elements(self) -> list[Element]:
        return [self.registry.element(eid) for eid in self.members]

    def union(self, other: "FiniteSet") -> "FiniteSet":
        _require_same_registry("union", self, other)
        return FiniteSet(self.registry, self.members + other.members)

    def intersection(self, other: "FiniteSet") -> "FiniteSet":
        _require_same_registry("intersection", self, other)
        return FiniteSet(self.registry, tuple(self.ids & other.ids))

    def difference(self, other: "FiniteSet") -> "FiniteSet":
        _require_same_registry("difference", self, other)
        return FiniteSet(self.registry, tuple(self.ids - other.ids))

    def symmetric_difference(self, other: "FiniteSet") -> "FiniteSet":
        _require_same_registry("symmetric_difference", self, other)
        return FiniteSet(self.registry, tuple(self.ids ^ other.ids))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[ElementId]:
        return iter(self.members)

    def __contains__(self, eid: ElementId) -> bool:
        return eid in self.ids

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self.members)
        return f"{{{inner}}}"


# ---------------------------------------------------------------------------
# Ground metrics
# ---------------------------------------------------------------------------


class BaseMetric:
    """Ground distance between elements; subclasses implement ``distance``.

    ``EuclideanMetric`` and ``MatrixMetric`` also supply a batched form for
    ``_cross_rows``: ``_operand(registry, ids)`` gathers what ``_block`` needs
    for a sequence of ids, or returns None to keep these ids on the scalar
    path, and ``_block(x, y)`` returns the float64 matrix d(x_i, y_j) for two
    operands (or row slices of them), each value within relative 2**-32 of
    ``distance``. Other metrics, subclasses included, take the scalar path.

    ``symmetric`` says that ``distance(x, y) == distance(y, x)`` holds bit
    for bit, so a caller may evaluate one order for both; a subclass that
    redefines ``distance`` restates it.
    """

    symmetric = False

    def distance(self, x: Element, y: Element) -> float:
        raise NotImplementedError


def _vector_pair(x: Element, y: Element) -> tuple[tuple[float, ...], tuple[float, ...]]:
    px, py = x.payload, y.payload
    if not isinstance(px, tuple) or not isinstance(py, tuple):
        raise DomainError(
            f"vector metric needs numeric payloads, got {x.id!r}/{y.id!r}"
        )
    if len(px) != len(py):
        raise DomainError(
            f"dimension mismatch: {x.id!r} has {len(px)} coordinates, "
            f"{y.id!r} has {len(py)}"
        )
    return px, py


def _require_scale(lam: float) -> None:
    """A discrete scale is a finite positive distance."""
    if not 0 < lam < math.inf:
        raise ParameterError(f"discrete scale must be finite and positive, got {lam}")


@dataclass(frozen=True)
class DiscreteMetric(BaseMetric):
    """d(x,y) = 0 when the ids coincide, else a fixed finite positive scale."""

    lam: float = 1.0
    symmetric = True

    def __post_init__(self):
        _require_scale(self.lam)

    def distance(self, x: Element, y: Element) -> float:
        return 0.0 if x.id == y.id else self.lam


@dataclass(frozen=True)
class EuclideanMetric(BaseMetric):
    symmetric = True  # |x_k - y_k| == |y_k - x_k| in floating point too

    def distance(self, x: Element, y: Element) -> float:
        px, py = _vector_pair(x, y)
        return math.dist(px, py)

    def _operand(self, registry: "ElementRegistry", ids: Collection) -> np.ndarray | None:
        rows, coords = registry._payload_table()
        return None if coords is None else coords[_rows_of(rows, ids)]

    def _block(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        import numpy as np
        # the square root of the summed squared differences: from the same
        # differences as math.dist, within (dimension + 4) ulps of it for the
        # payloads _payload_table admits, but not always equal to it
        total = np.zeros((len(x), len(y)))
        for k in range(x.shape[1]):
            diff = np.subtract.outer(x[:, k], y[:, k])
            total += np.multiply(diff, diff, out=diff)
        return np.sqrt(total, out=total)


@dataclass(frozen=True)
class LpMetric(BaseMetric):
    """L_p distance on vector payloads, 1 <= p < inf."""

    p: float = 2.0
    symmetric = True

    def __post_init__(self):
        if not 1 <= self.p < math.inf:
            raise ParameterError(f"lp metric needs a finite p >= 1, got {self.p}")

    def distance(self, x: Element, y: Element) -> float:
        px, py = _vector_pair(x, y)
        diffs = [abs(a - b) for a, b in zip(px, py)]
        try:
            total = sum(d ** self.p for d in diffs)
        except OverflowError:
            total = math.inf
        top = max(diffs, default=0.0)
        if total in (0.0, math.inf) and 0.0 < top < math.inf:
            # the powers underflow or overflow: factor out the largest difference
            return top * sum((d / top) ** self.p for d in diffs) ** (1.0 / self.p)
        return total ** (1.0 / self.p)


class MatrixMetric(BaseMetric):
    """Explicit symmetric distance table over ids, axiom-checked on load.

    A table flagged ``pseudo`` may contain off-diagonal zeros (distinct ids
    at distance zero); finite cells, non-negativity, zero diagonal, symmetry
    and the triangle inequality are enforced either way, within 1e-12;
    ``symmetric`` records whether symmetry holds exactly.
    """

    def __init__(
        self,
        ids: Sequence[ElementId],
        values: Sequence[Sequence[float]],
        pseudo: bool = False,
    ):
        import numpy as np
        tolerance = 1e-12
        ids = tuple(ids)
        if len(set(ids)) != len(ids):
            raise ParameterError("matrix metric ids must be unique")
        n = len(ids)
        if n == 0:
            raise ParameterError("matrix metric needs at least one id")
        rows = tuple(tuple(float(v) for v in row) for row in values)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ParameterError(f"matrix metric table must be {n}x{n}")
        table = np.array(rows, dtype=np.float64)
        # every comparison below is false for NaN, and no triangle catches an
        # infinite pair of two ids
        nonfinite = np.flatnonzero(~np.isfinite(table))
        if nonfinite.size:
            i, j = divmod(int(nonfinite[0]), n)
            kind = "undefined" if math.isnan(rows[i][j]) else "infinite"
            raise ParameterError(f"{kind} distance between {ids[i]!r} and {ids[j]!r}")
        # Each failure is reported at the first (i, j) or (i, j, k) in the
        # order of the loops "for i: diagonal, then for j: negative,
        # asymmetric, zero", then "for i, j, k: triangle".
        negative = table < -tolerance
        asymmetric = np.abs(table - table.T) > tolerance
        if pseudo:
            zero = np.zeros((n, n), dtype=bool)
        else:
            zero = (table <= tolerance) & ~np.eye(n, dtype=bool)
        bad_cell = negative | asymmetric | zero
        failing = np.flatnonzero((np.abs(table.diagonal()) > tolerance) | bad_cell.any(axis=1))
        if failing.size:
            i = int(failing[0])
            if abs(rows[i][i]) > tolerance:
                raise ParameterError(f"nonzero self-distance for id {ids[i]!r}")
            j = int(np.argmax(bad_cell[i]))
            if negative[i, j]:
                raise ParameterError(f"negative distance between {ids[i]!r} and {ids[j]!r}")
            if asymmetric[i, j]:
                raise ParameterError(f"asymmetric table at {ids[i]!r}/{ids[j]!r}")
            raise ParameterError(
                f"zero distance between distinct ids {ids[i]!r} and "
                f"{ids[j]!r}; flag the table as pseudo to allow it"
            )
        for i in range(n):
            # violated[j, k]: R[i, k] > (R[i, j] + R[j, k]) + tol, summed as the loop did
            violated = table[i] > (table[i][:, None] + table) + tolerance
            if violated.any():
                j, k = divmod(int(np.argmax(violated)), n)
                raise ParameterError(
                    "triangle inequality fails for ids "
                    f"({ids[i]!r}, {ids[j]!r}, {ids[k]!r})"
                )
        self.ids = ids
        self.pseudo = pseudo
        self.symmetric = bool((table == table.T).all())
        self._index = {eid: k for k, eid in enumerate(ids)}
        self._rows = rows
        self._table = table

    def distance(self, x: Element, y: Element) -> float:
        try:
            return self._rows[self._index[x.id]][self._index[y.id]]
        except KeyError as exc:
            raise UnknownIdError(f"id not in distance table: {exc.args[0]!r}") from None

    def _operand(self, registry: "ElementRegistry", ids: Collection) -> np.ndarray | None:
        # an id outside the table stays on the scalar path, which names it
        if not all(map(self._index.__contains__, ids)):
            return None
        return _rows_of(self._index, ids)

    def _block(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        import numpy as np
        return self._table[np.ix_(x, y)]


# ---------------------------------------------------------------------------
# Cross-distance block
# ---------------------------------------------------------------------------

# Pairs from which a cross-distance matrix is computed as a numpy block rather
# than by one ``distance`` call per pair. Measured on 3-d Euclidean sets and a
# table (see README): below it the fixed cost of a block outweighs the saving.
_BLOCK_MIN_PAIRS = 256

# Values per tile. The Euclidean block keeps two tile-sized arrays alive (the
# sum and one coordinate difference), the table block one, so a block's
# temporaries stay far under 2**17 float64 values (1 MiB).
_TILE_VALUES = 2**12

# a factor that covers the block's error twice over, see _max_min
_NEAR = 1.0 + 2.0**-30

# exact metric classes only: a subclass may redefine ``distance``
_BATCHED = frozenset({EuclideanMetric, MatrixMetric})


def _rows_of(index: Mapping, ids: Collection) -> np.ndarray:
    import numpy as np
    return np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))


def _cross_rows(
    m: BaseMetric, registry: ElementRegistry, xs: Collection, ys: Collection
) -> Iterator[np.ndarray] | None:
    """The cross-distance matrix d(x, y), x in ``xs``, y in ``ys`` (ids of
    ``registry``), as an iterator over float64 arrays of consecutive rows.

    None when the matrix has fewer than ``_BLOCK_MIN_PAIRS`` entries or the
    metric has no batched form for these ids: the caller then evaluates
    ``m.distance`` pair by pair, which also raises the errors.
    """
    if len(xs) * len(ys) < _BLOCK_MIN_PAIRS or type(m) not in _BATCHED:
        return None
    x, y = m._operand(registry, xs), m._operand(registry, ys)
    if x is None or y is None:
        return None
    return _row_chunks(m._block, x, y)


def _max_min(
    m: BaseMetric, registry: ElementRegistry, xs: Sequence, ys: Sequence, rows: Iterator[np.ndarray]
) -> float:
    """max over x of min over y of ``m.distance(x, y)``, exactly, from the
    rows of the block of (``xs``, ``ys``).

    A block value is within relative 2**-32 of ``distance``. So the result
    lies in a row whose block minimum comes within a factor 1 + 2**-30 of the
    largest block minimum so far, and in a column whose value comes within
    that factor of the row's minimum: only these pairs are evaluated again
    with ``distance``.
    """
    import numpy as np
    element = registry.element
    best = ceiling = -math.inf
    r0 = 0
    for chunk in rows:
        minima = chunk.min(axis=1)
        ceiling = max(ceiling, minima.max())
        for r in np.flatnonzero(minima * _NEAR >= ceiling).tolist():
            x = element(xs[r0 + r])
            near = np.flatnonzero(chunk[r] <= minima[r] * _NEAR).tolist()
            best = max(best, min(m.distance(x, element(ys[c])) for c in near))
        r0 += len(chunk)
    return best


def _row_chunks(block: Callable, x: Any, y: Any) -> Iterator[np.ndarray]:
    """``block(x, y)`` in chunks of rows of at most ``_TILE_VALUES`` values;
    a row longer than that is built from tiles of columns."""
    import numpy as np
    step = max(1, _TILE_VALUES // len(y))
    for r0 in range(0, len(x), step):
        rows = x[r0:r0 + step]
        if len(y) <= _TILE_VALUES:
            yield block(rows, y)
            continue
        out = np.empty((len(rows), len(y)))
        for c0 in range(0, len(y), _TILE_VALUES):
            out[:, c0:c0 + _TILE_VALUES] = block(rows, y[c0:c0 + _TILE_VALUES])
        yield out


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def _require_same_registry(op: str, *sets: FiniteSet) -> None:
    first = sets[0].registry
    for s in sets[1:]:
        if s.registry is not first:
            raise RegistryMismatchError(f"{op} requires sets over one registry")


def _require_nonempty(op: str, *sets: FiniteSet) -> None:
    for s in sets:
        if not s.members:
            raise EmptySetError(f"{op} requires non-empty sets")


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def point_set_distance(m: BaseMetric, x: Element, a: FiniteSet) -> float:
    """min over members of ``a`` of the ground distance to ``x``."""
    _require_nonempty("point_set_distance", a)
    return min(m.distance(x, e) for e in a.elements())


def min_cross_distance(m: BaseMetric, a: FiniteSet, b: FiniteSet) -> float:
    """min over all cross pairs; zero as soon as the sets share an id."""
    _require_same_registry("min_cross_distance", a, b)
    _require_nonempty("min_cross_distance", a, b)
    eb = b.elements()
    return min(m.distance(x, y) for x in a.elements() for y in eb)


def _ground_sum(m: BaseMetric, registry: ElementRegistry, xs: Collection, ys: Collection) -> float:
    rows = _cross_rows(m, registry, xs, ys)
    if rows is not None:
        return math.fsum(itertools.chain.from_iterable(c.ravel().tolist() for c in rows))
    element = registry.element  # resolve each id once, not once per pair
    ey = [element(y) for y in ys]
    return math.fsum(m.distance(x, y) for x in map(element, xs) for y in ey)


def pair_sum(m: BaseMetric, a: FiniteSet, b: FiniteSet) -> float:
    """Sum of all pairwise ground distances; empty operands contribute 0.

    Additive over disjoint decompositions of either side, which is what the
    average-based distances lean on.
    """
    _require_same_registry("pair_sum", a, b)
    return _ground_sum(m, a.registry, a.members, b.members)


def _triangle_surplus_raw(m: BaseMetric, a: FiniteSet, b: FiniteSet, c: FiniteSet) -> float:
    return (
        len(c) * pair_sum(m, a, b)
        + len(a) * pair_sum(m, b, c)
        - len(b) * pair_sum(m, a, c)
    )


def triangle_surplus(m: BaseMetric, a: FiniteSet, b: FiniteSet, c: FiniteSet) -> float:
    """|C|·s(A,B) + |A|·s(B,C) − |B|·s(A,C), signed.

    Non-negative whenever the ground distance satisfies the triangle
    inequality; deliberately not clamped so violations of a non-metric
    ground distance stay visible.
    """
    _require_same_registry("triangle_surplus", a, b, c)
    _require_nonempty("triangle_surplus", a, b, c)
    return _triangle_surplus_raw(m, a, b, c)


def group_average(m: BaseMetric, a: FiniteSet, b: FiniteSet) -> float:
    """Mean cross-distance s(A,B) / (|A| |B|); self-distance may be nonzero."""
    _require_same_registry("group_average", a, b)
    _require_nonempty("group_average", a, b)
    return pair_sum(m, a, b) / (len(a) * len(b))


def _set_average(
    a: Collection, b: Collection, cross_sum: Callable, difference: Callable = operator.sub
) -> float:
    """The average-distance construction on two non-empty collections,
    s(A, B\\A) / (|A∪B| |A|) + s(A\\B, B) / (|A∪B| |B|), where
    ``cross_sum(xs, ys)`` is s, the sum of inner distances over xs × ys."""
    b_only = difference(b, a)
    a_only = difference(a, b)
    n_union = len(a) + len(b_only)
    total = 0.0
    if len(b_only):
        total += cross_sum(a, b_only) / (n_union * len(a))
    if len(a_only):
        total += cross_sum(a_only, b) / (n_union * len(b))
    return total


def _fsum_cross(distance: Callable) -> Callable:
    """A ``cross_sum`` for ``_set_average`` from an inner distance on pairs."""
    return lambda xs, ys: math.fsum(distance(x, y) for x in xs for y in ys)


def average_metric(m: BaseMetric, a: FiniteSet, b: FiniteSet) -> float:
    """Average-distance metric on non-empty finite sets.

        f(A,B) = s(A, B\\A) / (|A∪B| |A|) + s(A\\B, B) / (|A∪B| |B|)

    Restricting the sums to the set differences is what restores the
    identity axiom that ``group_average`` lacks: f(A,B) = 0 iff A = B. On
    singletons f({a},{b}) equals the ground distance, and for disjoint sets
    it coincides with ``group_average``.
    """
    _require_same_registry("average_metric", a, b)
    _require_nonempty("average_metric", a, b)
    return _set_average(
        a, b, functools.partial(_ground_sum, m, a.registry), difference=_members_not_in
    )


def _members_not_in(s: FiniteSet, t: FiniteSet) -> list[ElementId]:
    # Canonical order, so a failing ground distance names the same pair on every run.
    return list(itertools.filterfalse(t.ids.__contains__, s.members))


def semi_metric(m: BaseMetric, a: FiniteSet, b: FiniteSet) -> float:
    """(s(A,B) − s(A∩B, A∩B)) / (|A| |B|).

    Non-negative, zero on equal sets, symmetric; the triangle inequality is
    not guaranteed (see the chained-overlap sampler in ``axioms`` for the
    family of counterexamples).
    """
    _require_same_registry("semi_metric", a, b)
    _require_nonempty("semi_metric", a, b)
    shared = a.intersection(b)
    return (pair_sum(m, a, b) - pair_sum(m, shared, shared)) / (len(a) * len(b))


def hausdorff(m: BaseMetric, a: FiniteSet, b: FiniteSet) -> float:
    """max of the two directed max-min distances."""
    _require_same_registry("hausdorff", a, b)
    _require_nonempty("hausdorff", a, b)
    rows = _cross_rows(m, a.registry, a.members, b.members)
    if rows is not None:
        # the block of (b, a) as well, not the column minima of (a, b): a
        # distance table may be asymmetric within its tolerance
        rows_ba = _cross_rows(m, a.registry, b.members, a.members)
        return max(_max_min(m, a.registry, a.members, b.members, rows),
                   _max_min(m, a.registry, b.members, a.members, rows_ba))
    ea, eb = a.elements(), b.elements()
    d_ab = max(min(m.distance(x, y) for y in eb) for x in ea)
    d_ba = max(min(m.distance(y, x) for x in ea) for y in eb)
    return max(d_ab, d_ba)


def jaccard(a: FiniteSet, b: FiniteSet) -> float:
    """|A△B| / |A∪B| in [0,1]; needs a non-empty union."""
    _require_same_registry("jaccard", a, b)
    union = a.ids | b.ids
    if not union:
        raise EmptySetError("jaccard requires a non-empty union")
    return len(a.ids ^ b.ids) / len(union)


def symdiff_cardinality(a: FiniteSet, b: FiniteSet) -> int:
    """Number of ids in exactly one of the two sets."""
    return len(a.ids ^ b.ids)
