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

Every finite-set distance above reads the cross distances d(x, y) of two
operands. Small operands are evaluated pair by pair through ``distance``;
from ``_BLOCK_MIN_PAIRS`` pairs on, under a Euclidean or table metric,
``_exact_rows`` reads them as Python rows, ``math.dist`` over the payloads or
a table row indexed by its columns, which is what ``distance`` returns bit
for bit. Sums stream these rows into ``math.fsum``; ``hausdorff`` takes one
early-exit scan over them. Every average of floats, here and in the other
modules, is one ``_quotient`` of a sum, finite wherever its exact value is.

numpy is imported inside the functions that use it: the triangle check of a
``MatrixMetric``, at the first read of one of its distances, and the block
of ``_cross_rows``, which only the row-wise means of ``power_means`` read.
Nothing else in this module loads it: not the sums or ``hausdorff`` over
points, not ``_Memo``, nor building a table, whose cells are checked in
Python.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
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

# Limits, a default and names that the command line shows in its help. They
# are defined here, where its parser reads them without loading the modules
# that use them.
MAX_TRIPLES = 100_000  # axioms.check_axioms: samples; a violation keeps ~1 KB of witness
MAX_COORDINATES = 100_000  # axioms.random_point_registry: points x dimension
MAX_SAMPLES = 10**7  # continuous.SamplePlan: a sample holds n floats or ids
DEFAULT_ALPHA_GRID = tuple((k + 1) / 10 for k in range(10))  # continuous.fuzzy_distance
SUITE_NAMES = ("identities", "appendixA", "appendixB", "duality", "interval")  # verify.SUITES


def _id_sort_key(eid: ElementId) -> tuple:
    # Mixed int/str ids must still sort deterministically.
    return (isinstance(eid, str), eid)


def _require_integer(what: str, value: Any) -> None:
    """A count or a seed is an integer, numpy's included, and not a bool."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ParameterError(f"{what} must be an integer, got {value!r}")


class _Frozen:
    """A value set once by ``__init__``, through ``object.__setattr__``.

    Assignment and deletion raise ``AttributeError``. ``_fields`` names the
    constructor's arguments, in order; a further slot (``FiniteSet.ids``) is
    derived from them. Values of one type are equal when their fields are, a
    value hashes as the tuple of its fields, prints as ``Type(field=value,
    ...)``, and is pickled and copied as its type called on its fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        return type(self), self._key()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Element(_Frozen):
    """An identity-bearing point: set algebra reads its id, equality its id and payload.

    Its fields are slots rather than NamedTuple fields because every ground
    distance reads two of them: with a NamedTuple, ``EuclideanMetric.distance``
    took ~0.38 µs against ~0.33 µs (CPython 3.11, 2-vCPU VM)."""

    __slots__ = _fields = ("id", "payload")

    def __init__(self, id: ElementId, payload: Any = None):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "payload", payload)


class ElementRegistry:
    """Id -> element table shared by the finite sets built over it.

    Immutable once its construction-time ``add`` calls are done, so
    concurrent reads are safe.
    """

    def __init__(self, elements: Mapping[ElementId, Any] | None = None):
        self._elements: dict[ElementId, Element] = {}
        if elements:
            for eid, payload in elements.items():
                self.add(eid, payload)

    def add(self, eid: ElementId, payload: Any = None) -> Element:
        if eid in self._elements:
            raise ParameterError(f"duplicate element id: {eid!r}")
        if isinstance(payload, (list, tuple)):
            payload = tuple(float(v) for v in payload)
            if not payload:
                raise ParameterError(f"no coordinates in the payload of {eid!r}")
        elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
            payload = (float(payload),)
        if isinstance(payload, tuple) and not all(map(math.isfinite, payload)):
            raise ParameterError(f"non-finite coordinate in the payload of {eid!r}")
        element = Element(eid, payload)
        self._elements[eid] = element
        return element

    def element(self, eid: ElementId) -> Element:
        try:
            return self._elements[eid]
        except KeyError:
            raise UnknownIdError(f"unknown element id: {eid!r}") from None

    def ids(self) -> tuple[ElementId, ...]:
        return tuple(sorted(self._elements, key=_id_sort_key))

    def set_of(self, members: Iterable[ElementId]) -> "FiniteSet":
        return FiniteSet(self, members)

    def universe(self) -> "FiniteSet":
        return FiniteSet(self, self.ids())

    def __contains__(self, eid: ElementId) -> bool:
        return eid in self._elements

    def __len__(self) -> int:
        return len(self._elements)


class FiniteSet(_Frozen):
    """A deduplicated, canonically ordered set of element ids over a registry.

    Members are stored sorted, so two sets with equal membership compare (and
    hash) equal; ``ids`` holds them as a frozenset. Empty sets are
    constructible because pairwise sums accept them; every metric operation
    rejects them explicitly.
    """

    _fields = ("registry", "members")
    __slots__ = _fields + ("ids",)

    def __init__(self, registry: ElementRegistry, members: Iterable[ElementId]):
        ids = frozenset(members)
        canonical = tuple(sorted(ids, key=_id_sort_key))
        if not ids <= registry._elements.keys():
            unknown = next(eid for eid in canonical if eid not in registry._elements)
            raise UnknownIdError(f"set member not registered: {unknown!r}")
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "members", canonical)
        object.__setattr__(self, "ids", ids)

    def elements(self) -> list[Element]:
        return [self.registry.element(eid) for eid in self.members]

    def union(self, other: "FiniteSet") -> "FiniteSet":
        _require_same_registry("union", self, other)
        return FiniteSet(self.registry, self.members + other.members)

    def intersection(self, other: "FiniteSet") -> "FiniteSet":
        _require_same_registry("intersection", self, other)
        return FiniteSet(self.registry, self.ids & other.ids)

    def difference(self, other: "FiniteSet") -> "FiniteSet":
        _require_same_registry("difference", self, other)
        return FiniteSet(self.registry, self.ids - other.ids)

    def symmetric_difference(self, other: "FiniteSet") -> "FiniteSet":
        _require_same_registry("symmetric_difference", self, other)
        return FiniteSet(self.registry, self.ids ^ other.ids)

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

    ``EuclideanMetric`` and ``MatrixMetric`` also supply two batched forms;
    other metrics, subclasses included, take the scalar path. Each form
    returns None to keep its ids on the scalar path, which names a bad pair.

    * ``_exact_form(registry, xs, ys)``, for ``_exact_rows``: a function d
      and two lists us, vs such that ``d(us[i], vs[j])`` is
      ``distance(x_i, y_j)`` bit for bit. The sums and ``hausdorff`` read it,
      and it loads no numpy of its own.
    * ``_operand(registry, ids)`` and ``_block(x, y)``, for ``_cross_rows``:
      the float64 matrix d(x_i, y_j) in numpy, each value within relative
      2**-32 of ``distance``. Only the row-wise means of ``power_means``
      read it.

    ``symmetric`` says that ``distance(x, y) == distance(y, x)`` holds bit
    for bit, so a caller may evaluate one order for both; a subclass that
    redefines ``distance`` restates it.
    """

    __slots__ = ()
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
    """A discrete scale is a finite positive distance, and not a bool."""
    if isinstance(lam, bool) or not 0 < lam < math.inf:
        raise ParameterError(f"discrete scale must be finite and positive, got {lam}")


class DiscreteMetric(BaseMetric, _Frozen):
    """d(x,y) = 0 when the ids coincide, else a fixed finite positive scale."""

    __slots__ = _fields = ("lam",)
    symmetric = True

    def __init__(self, lam: float = 1.0):
        _require_scale(lam)
        object.__setattr__(self, "lam", lam)

    def distance(self, x: Element, y: Element) -> float:
        return 0.0 if x.id == y.id else self.lam


class EuclideanMetric(BaseMetric, _Frozen):
    __slots__ = ()
    symmetric = True  # |x_k - y_k| == |y_k - x_k| in floating point too

    def distance(self, x: Element, y: Element) -> float:
        px, py = _vector_pair(x, y)
        return math.dist(px, py)

    def _exact_form(self, registry: "ElementRegistry", xs: Collection, ys: Collection) -> tuple | None:
        """``math.dist`` and the payloads of ``xs`` and ``ys``, where every one
        is a tuple of one common length, as ``distance`` then needs; None
        otherwise."""
        element = registry.element
        px = [element(x).payload for x in xs]
        py = [element(y).payload for y in ys]
        dim = len(px[0]) if isinstance(px[0], tuple) else -1
        if all(isinstance(p, tuple) and len(p) == dim for p in itertools.chain(px, py)):
            return math.dist, px, py
        return None

    def _operand(self, registry: "ElementRegistry", ids: Collection) -> np.ndarray | None:
        """The payloads of ``ids`` as one float64 array with a row per id.

        None unless every payload is a tuple of one common length, below
        2**20, whose coordinates are 0 or of magnitude in [2**-450, 2**500].
        Then every nonzero coordinate difference lies in [2**-502, 2**501],
        so no square and no sum of squares leaves the normal float range.
        """
        import numpy as np
        payloads = [e.payload for e in map(registry.element, ids)]
        dim = len(payloads[0]) if isinstance(payloads[0], tuple) else 0
        if not (0 < dim < 2**20 and all(isinstance(p, tuple) and len(p) == dim for p in payloads)):
            return None
        coords = np.fromiter(itertools.chain.from_iterable(payloads), np.float64,
                             len(payloads) * dim).reshape(-1, dim)
        size = np.abs(coords)
        if not ((size == 0.0) | ((size >= 2.0**-450) & (size <= 2.0**500))).all():
            return None
        return coords

    def _block(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        import numpy as np
        # the square root of the summed squared differences: from the same
        # differences as math.dist, within (dimension + 4) ulps of it for the
        # payloads _operand admits, but not always equal to it
        total = np.zeros((len(x), len(y)))
        for k in range(x.shape[1]):
            diff = np.subtract.outer(x[:, k], y[:, k])
            total += np.multiply(diff, diff, out=diff)
        return np.sqrt(total, out=total)


class LpMetric(BaseMetric, _Frozen):
    """L_p distance on vector payloads, 1 <= p < inf, within 3 ulps of the
    exact value at p = 1.5, 3 and 7 (``tests/test_core_metrics.py``)."""

    __slots__ = _fields = ("p",)
    symmetric = True

    def __init__(self, p: float = 2.0):
        if not 1 <= p < math.inf:
            raise ParameterError(f"lp metric needs a finite p >= 1, got {p}")
        object.__setattr__(self, "p", p)

    def distance(self, x: Element, y: Element) -> float:
        px, py = _vector_pair(x, y)
        diffs = [abs(a - b) for a, b in zip(px, py)]
        top = max(diffs, default=0.0)
        if top in (0.0, math.inf):
            return top
        # the largest difference factored out: the sum lies in [1, dim], so no
        # power underflows or overflows and the root adds little error
        return top * math.fsum((d / top) ** self.p for d in diffs) ** (1.0 / self.p)


# The most ids a distance table accepts: at 1,000 ids the cell checks took
# 0.16 s and the n^3 triangles 1.4 s more, and a command that read the table
# 88 MB (2-vCPU VM).
MAX_TABLE_IDS = 1000

# float64 values per temporary of the triangle check (1 MiB); a single row
# of a table of more than 362 ids takes more
_TRIANGLE_VALUES = 2**17


class MatrixMetric(BaseMetric):
    """Explicit symmetric distance table over ids, checked in two steps.

    Construction first refuses a ``pseudo`` that is not a bool, as
    ``bool("false")`` is True. It then checks every cell, without numpy:
    finite cells, non-negativity, zero diagonal and symmetry, within
    ``TOLERANCE``, and no zero between distinct ids unless the table is
    flagged ``pseudo`` (a pseudo-metric). The tolerance is inclusive: a cell
    is negative below -``TOLERANCE``, a diagonal cell nonzero and two mirrored
    cells asymmetric beyond it, and a cell between distinct ids counts as a
    zero up to ``TOLERANCE`` itself, so a table that is not ``pseudo`` needs
    each such cell above it. The triangle inequality, n^3
    comparisons, is checked with numpy at the first read of a distance,
    through ``distance`` or a batched form, so a command that never reads
    the table (``jaccard``, ``symdiff_cardinality``) never pays for it. A
    table that fails it raises ``ParameterError`` at every read. ``ids``,
    ``pseudo`` and ``symmetric``, which records whether symmetry holds
    exactly, are set by construction.
    """

    TOLERANCE = 1e-12

    def __init__(
        self,
        ids: Sequence[ElementId],
        values: Sequence[Sequence[float]],
        pseudo: bool = False,
    ):
        if not isinstance(pseudo, bool):
            raise ParameterError(f"matrix metric pseudo must be a bool, got {pseudo!r}")
        tolerance = self.TOLERANCE
        ids = tuple(ids)
        if len(set(ids)) != len(ids):
            raise ParameterError("matrix metric ids must be unique")
        n = len(ids)
        if not 0 < n <= MAX_TABLE_IDS:
            raise ParameterError(f"matrix metric needs from 1 to {MAX_TABLE_IDS:,} ids, got {n:,}")
        rows = tuple(tuple(map(float, row)) for row in values)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ParameterError(f"matrix metric table must be {n}x{n}")
        # Each failure is reported at the first (i, j) in the order of the
        # loops "for i, j: non-finite", then "for i: diagonal, then for j:
        # negative, asymmetric, zero"; a row is read cell by cell only once
        # it is known to fail. Every comparison is false for NaN, and no
        # triangle catches an infinite pair of two ids.
        for i, row in enumerate(rows):
            if not all(map(math.isfinite, row)):
                j = next(j for j, v in enumerate(row) if not math.isfinite(v))
                kind = "undefined" if math.isnan(row[j]) else "infinite"
                raise ParameterError(f"{kind} distance between {ids[i]!r} and {ids[j]!r}")
        columns = tuple(zip(*rows))
        for i, (row, column) in enumerate(zip(rows, columns)):
            if abs(row[i]) > tolerance:
                raise ParameterError(f"nonzero self-distance for id {ids[i]!r}")
            least = min(row[:i] + row[i + 1:], default=math.inf)
            if (least >= -tolerance if pseudo else least > tolerance) and (
                    row == column or max(map(abs, map(operator.sub, row, column))) <= tolerance):
                continue
            for j, (v, w) in enumerate(zip(row, column)):
                if v < -tolerance:
                    raise ParameterError(f"negative distance between {ids[i]!r} and {ids[j]!r}")
                if abs(v - w) > tolerance:
                    raise ParameterError(f"asymmetric table at {ids[i]!r}/{ids[j]!r}")
                if j != i and not pseudo and v <= tolerance:
                    raise ParameterError(
                        f"zero distance between distinct ids {ids[i]!r} and "
                        f"{ids[j]!r}; flag the table as pseudo to allow it"
                    )
        self.ids = ids
        self.pseudo = pseudo
        self.symmetric = rows == columns
        self._rows = rows

    @functools.cached_property
    def _table(self) -> np.ndarray:
        """The table as a float64 array, once every triangle passes.

        A failure is reported at the first (i, j, k) in the order of the
        loops "for i, j, k: R[i, k] > (R[i, j] + R[j, k]) + TOLERANCE". Some j
        fails for (i, k) exactly when R[i, k] exceeds the least sum over j
        plus the tolerance, as rounding is monotone, so that least sum is
        taken for a block of rows at once and only a failing row is read
        again for its j.
        """
        import numpy as np
        table = np.array(self._rows, dtype=np.float64)
        n = len(table)
        step = max(1, _TRIANGLE_VALUES // (n * n))
        # a sum that overflows to inf is no violation, as its exact value is not
        with np.errstate(over="ignore"):
            for i0 in range(0, n, step):
                block = table[i0:i0 + step]
                least = (block[:, :, None] + table).min(axis=1)
                failing = np.flatnonzero((block > least + self.TOLERANCE).any(axis=1))
                if failing.size:
                    i = i0 + int(failing[0])
                    violated = table[i] > (table[i][:, None] + table) + self.TOLERANCE
                    j, k = divmod(int(np.argmax(violated)), n)
                    ids = self.ids
                    raise ParameterError(
                        "triangle inequality fails for ids "
                        f"({ids[i]!r}, {ids[j]!r}, {ids[k]!r})"
                    )
        return table

    @functools.cached_property
    def _index(self) -> dict[ElementId, int]:
        """The row of each id, built after ``_table``: ``distance`` and
        ``_operand`` read it first, so their first call checks the triangles."""
        self._table
        return {eid: k for k, eid in enumerate(self.ids)}

    def distance(self, x: Element, y: Element) -> float:
        try:
            return self._rows[self._index[x.id]][self._index[y.id]]
        except KeyError as exc:
            raise UnknownIdError(f"id not in distance table: {exc.args[0]!r}") from None

    def _exact_form(self, registry: "ElementRegistry", xs: Collection, ys: Collection) -> tuple | None:
        """``operator.getitem``, the rows of ``xs`` and the columns of ``ys``;
        None where an id is outside the table."""
        index, rows = self._index, self._rows
        try:
            return operator.getitem, [rows[index[x]] for x in xs], [index[y] for y in ys]
        except KeyError:
            return None

    def _operand(self, registry: "ElementRegistry", ids: Collection) -> np.ndarray | None:
        import numpy as np
        try:
            return np.fromiter(map(self._index.__getitem__, ids), np.intp, len(ids))
        except KeyError:  # an id outside the table stays on the scalar path, which names it
            return None

    def _block(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        import numpy as np
        return self._table[np.ix_(x, y)]


class _Memo(BaseMetric):
    """``m.distance`` of each ordered pair of ids, evaluated on the first read
    of the pair and kept. Only values are kept: a pair whose evaluation
    raises raises again on its next read. It has no batched form, so every
    pair is read through it one at a time."""

    def __init__(self, m: BaseMetric):
        self._m = m
        self._values: dict[tuple[ElementId, ElementId], float] = {}

    def distance(self, x: Element, y: Element) -> float:
        key = (x.id, y.id)
        try:
            return self._values[key]
        except KeyError:
            value = self._values[key] = self._m.distance(x, y)
            return value


# ---------------------------------------------------------------------------
# Batched cross distances
# ---------------------------------------------------------------------------

# Pairs from which cross distances are read through a batched form, as
# Python rows or a numpy block, rather than by one ``distance`` call per pair.
# Below it the fixed cost of the rows and of the scan's order outweighs the
# saving (README, "Two evaluation paths"), and the verify suites' sets of at
# most 8 members stay on the pair loop.
_BLOCK_MIN_PAIRS = 256

# Values per chunk of rows, or one whole row where a row holds more. The
# Euclidean block keeps two chunk-sized arrays alive (the sum and one
# coordinate difference), the table block one, so a chunk's temporaries stay
# far under 2**17 float64 values (1 MiB) and grow only linearly with a row.
_TILE_VALUES = 2**12

# exact metric classes only: a subclass may redefine ``distance``
_BATCHED = frozenset({EuclideanMetric, MatrixMetric})


def _exact_rows(m: BaseMetric, registry: ElementRegistry, xs: Collection, ys: Collection) -> tuple | None:
    """(d, us, vs) such that ``d(us[i], vs[j])`` is ``m.distance`` of the
    i-th id of ``xs`` and the j-th of ``ys`` bit for bit (``_exact_form``).

    None when xs × ys has fewer than ``_BLOCK_MIN_PAIRS`` pairs or the metric
    has no such form for these ids: the caller then evaluates ``m.distance``
    pair by pair, which also raises the errors.
    """
    if len(xs) * len(ys) < _BLOCK_MIN_PAIRS or type(m) not in _BATCHED:
        return None
    return m._exact_form(registry, xs, ys)


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
    if x is None or y is None or x.shape[1:] != y.shape[1:]:
        # operands of different dimensions stay on the scalar path too
        return None
    return _row_chunks(m._block, x, y)


def _row_chunks(block: Callable, x: Any, y: Any) -> Iterator[np.ndarray]:
    """``block(x, y)`` in chunks of whole rows, of at most ``_TILE_VALUES``
    values or a single row where one row holds more."""
    step = max(1, _TILE_VALUES // len(y))
    for r0 in range(0, len(x), step):
        yield block(x[r0:r0 + step], y)


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


def _quotient(terms: Callable[[], Iterable[float]], d: int) -> float:
    """fsum(terms()) / d, the sum correctly rounded, for a count d > 0.

    Where the sum overflows, ``terms()``, a fresh iterable on each call, is
    summed again at 2^-64, where fewer than 2^64 finite terms cannot
    overflow, and the quotient is scaled back: exact for terms from 2^-958
    on, and inf only where the exact quotient passes the largest float.
    """
    try:
        return math.fsum(terms()) / d
    except OverflowError:
        return math.fsum(math.ldexp(v, -64) for v in terms()) / d * 2.0**64


def _ground_terms(
    m: BaseMetric, registry: ElementRegistry, xs: Collection, ys: Collection
) -> Iterable[float]:
    """d(x, y) over ``xs`` × ``ys``, a row at a time where ``_exact_rows`` is taken."""
    form = _exact_rows(m, registry, xs, ys)
    if form is not None:
        d, us, vs = form
        n = len(vs)
        return itertools.chain.from_iterable(map(d, itertools.repeat(u, n), vs) for u in us)
    element = registry.element  # resolve each id once, not once per pair
    ey = [element(y) for y in ys]
    return (m.distance(x, y) for x in map(element, xs) for y in ey)


def pair_sum(m: BaseMetric, a: FiniteSet, b: FiniteSet) -> float:
    """Sum of all pairwise ground distances; empty operands contribute 0.

    Correctly rounded, and inf where the exact sum passes the largest float.
    Additive over disjoint decompositions of either side, which is what the
    average-based distances lean on.
    """
    _require_same_registry("pair_sum", a, b)
    return _quotient(lambda: _ground_terms(m, a.registry, a.members, b.members), 1)


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
    ground distance stay visible. A ``DomainError`` where a pair sum or a
    product passes the largest float, as their difference is then unknown.
    """
    _require_same_registry("triangle_surplus", a, b, c)
    _require_nonempty("triangle_surplus", a, b, c)
    surplus = _triangle_surplus_raw(m, a, b, c)
    if not math.isfinite(surplus):
        raise DomainError("triangle_surplus overflows: a pair sum passes the largest float")
    return surplus


def group_average(m: BaseMetric, a: FiniteSet, b: FiniteSet) -> float:
    """Mean cross-distance s(A,B) / (|A| |B|); self-distance may be nonzero."""
    _require_same_registry("group_average", a, b)
    _require_nonempty("group_average", a, b)
    return _quotient(lambda: _ground_terms(m, a.registry, a.members, b.members), len(a) * len(b))


def _set_average(
    a: Collection, b: Collection, cross_terms: Callable, difference: Callable = operator.sub
) -> float:
    """The average-distance construction on two non-empty collections,
    s(A, B\\A) / (|A∪B| |A|) + s(A\\B, B) / (|A∪B| |B|), where
    ``cross_terms(xs, ys)`` returns the inner distances over xs × ys, or
    partial sums of them, as a fresh iterable for ``_quotient``."""
    b_only = difference(b, a)
    a_only = difference(a, b)
    n_union = len(a) + len(b_only)
    total = 0.0
    if len(b_only):
        total += _quotient(functools.partial(cross_terms, a, b_only), n_union * len(a))
    if len(a_only):
        total += _quotient(functools.partial(cross_terms, a_only, b), n_union * len(b))
    return total


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
        a, b, functools.partial(_ground_terms, m, a.registry), difference=_members_not_in
    )


def _members_not_in(s: FiniteSet, t: FiniteSet) -> list[ElementId]:
    # Canonical order, so a failing ground distance names the same pair on every run.
    return list(itertools.filterfalse(t.ids.__contains__, s.members))


def semi_metric(m: BaseMetric, a: FiniteSet, b: FiniteSet) -> float:
    """(s(A,B) − s(A∩B, A∩B)) / (|A| |B|).

    Non-negative, zero on equal sets, symmetric; the triangle inequality is
    not guaranteed (see the chained-overlap sampler in ``axioms`` for the
    family of counterexamples). Computed without a subtraction, as
    (s(A\\B, B) + s(A∩B, B\\A)) / (|A| |B|), one ``_quotient``.
    """
    _require_same_registry("semi_metric", a, b)
    _require_nonempty("semi_metric", a, b)
    terms = functools.partial(_ground_terms, m, a.registry)
    a_only, shared, b_only = _members_not_in(a, b), a.intersection(b).members, _members_not_in(b, a)
    return _quotient(lambda: itertools.chain(terms(a_only, b.members), terms(shared, b_only)),
                     len(a) * len(b))


def hausdorff(m: BaseMetric, a: FiniteSet, b: FiniteSet) -> float:
    """max of the two directed max-min distances, exactly.

    From ``_BLOCK_MIN_PAIRS`` pairs on, under a Euclidean or table metric,
    one early-exit scan of the exact rows (``_largest_least``); otherwise one
    pass over the pairs through ``distance``.
    """
    _require_same_registry("hausdorff", a, b)
    _require_nonempty("hausdorff", a, b)
    forward = _exact_rows(m, a.registry, a.members, b.members)
    backward = forward and _exact_rows(m, a.registry, b.members, a.members)
    if backward:
        # the scan of (b, a) as well, not the columns of (a, b): a distance
        # table may be asymmetric within its tolerance
        return _largest_least(b.members, a.members, backward,
                              _largest_least(a.members, b.members, forward, -math.inf))
    # one pass: the row minima give d(A, B) and the column minima d(B, A),
    # whose column is the row itself where d(y, x) is d(x, y)
    eb = b.elements()
    row_minima, column_minima = [], None
    for x in a.elements():
        row = [m.distance(x, y) for y in eb]
        column = row if m.symmetric else [m.distance(y, x) for y in eb]
        row_minima.append(min(row))
        column_minima = column if column_minima is None else list(map(min, column_minima, column))
    return max(max(row_minima), max(column_minima))


def _largest_least(xs: Sequence, ys: Sequence, form: tuple, best: float) -> float:
    """max(best, max over x in ``xs`` of min over y in ``ys`` of d(x, y)),
    exactly, from the rows ``form`` = (d, us, vs) of ``_exact_rows``.

    The early-exit scan of Taha and Hanbury (IEEE TPAMI 37(11), 2015): a row
    stops at its first distance not above ``best``, the largest minimum so
    far, which its own minimum then cannot pass, and keeps no matrix. Rows
    and columns are visited in one fixed pseudo-random order, so that ids
    sorted by distance cannot defeat the exit. A member of both operands
    reads d(x, x) first: where that is 0 and ``best`` is not below 0, its row
    is skipped after one distance.
    """
    d, us, vs = form
    own = map(dict(zip(ys, vs)).get, xs)
    rng = random.Random(0)
    rows = rng.sample(list(zip(us, own)), len(us))
    vs = rng.sample(vs, len(vs))
    n = len(vs)
    for u, v0 in rows:
        if v0 is not None and d(u, v0) <= best:
            continue
        least = math.inf
        for v in map(d, itertools.repeat(u, n), vs):
            if v <= best:
                break
            if v < least:
                least = v
        else:
            best = least
    return best


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
