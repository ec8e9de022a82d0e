"""Measure-based distances on unions of real intervals, sampled estimation,
and fuzzy-set distances via level cuts.

The group-average distance generalizes from sums to integrals: for interval
unions A, B with Lebesgue measure mu and ground distance |x - y|,

    g(A,B) = (1 / (mu(A) mu(B))) * double integral of |x - y|,
    f(A,B) = mu(B\\A)/mu(A∪B) * g(A, B\\A) + mu(A\\B)/mu(A∪B) * g(A\\B, B).

Both are exact, with no quadrature: one sweep over the merged endpoints of
A and B cuts them into segments that lie wholly inside or outside each, and
the integral over two segments is in closed form. Every bound is a float,
so on one power-of-two scale every length and centre is an integer; the
sweep sums in Python ints and the value is rounded once, correctly. Time
and memory are linear in the parts, after the sort of the endpoints.

For single intervals the metric collapses to a closed form in the endpoint
gaps; without containment it is exactly the distance between the interval
centers. Under discrete ground-distance semantics the construction is the
Steinhaus distance mu(A△B)/mu(A∪B).

``estimate_average_metric`` approximates the set metric for large or
continuous populations: sample a superset, intersect the sample with each
set, and evaluate the finite-set metric on the intersections. numpy is
imported only by membership masks and sampling, so the interval distances
never load it. ``fuzzy_distance`` does not load it over points: its cut
distances are ``core``'s, read through a memo for sets of at most
``_MEMO_MAX_PAIRS`` pairs of members and as exact Python rows above.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .core import (
    DEFAULT_ALPHA_GRID,
    MAX_SAMPLES,
    BaseMetric,
    ElementId,
    ElementRegistry,
    FiniteSet,
    _Frozen,
    _id_sort_key,
    _Memo,
    _require_integer,
    _set_average,
    average_metric,
)
from .errors import (
    DomainError,
    EmptySetError,
    NullMeasureError,
    ParameterError,
    SamplingError,
)

if TYPE_CHECKING:
    import numpy as np

# The largest bound magnitude an interval accepts: every length, and every
# measure of a union, is then at most 2^1023, a finite float.
_MAX_BOUND = 2.0**1022


class Interval(_Frozen):
    """Closed real interval [lo, hi]."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo, hi = float(lo), float(hi)
        # false for inf and nan as well
        if not (abs(lo) <= _MAX_BOUND and abs(hi) <= _MAX_BOUND):
            raise ParameterError(f"interval bounds must lie within ±2^1022: [{lo}, {hi}]")
        if lo > hi:
            raise ParameterError(f"interval bounds out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def center(self) -> float:
        return (self.lo + self.hi) / 2.0


IntervalLike = Union[Interval, tuple, list]


class IntervalUnion(_Frozen):
    """Disjoint, sorted union of positive-length intervals.

    Overlapping or touching input parts are merged and degenerate (single
    point) parts dropped, so the stored parts are canonical. A union may be
    empty or of zero measure as a set-algebra result; measure-based
    distances reject such operands explicitly.
    """

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: Iterable[Interval]):
        object.__setattr__(self, "parts", _canonical_parts(parts))

    @classmethod
    def of(cls, parts: Iterable[IntervalLike]) -> "IntervalUnion":
        return cls(tuple(p if isinstance(p, Interval) else Interval(*p) for p in parts))

    @property
    def measure(self) -> float:
        return math.fsum(p.length for p in self.parts)

    def contains(self, x: float) -> bool:
        # the part that starts last at or before x, if any; every comparison
        # is false for nan
        k = bisect.bisect_right(self.parts, x, key=operator.attrgetter("lo"))
        return k > 0 and x <= self.parts[k - 1].hi

    def _inside(self, points: np.ndarray) -> np.ndarray:
        """Mask of the points that lie in a part, both ends included."""
        import numpy as np
        starts = np.array([p.lo for p in self.parts])
        # a point before every part indexes the nan after the last end, which
        # no point, -inf included, is at or below
        ends = np.array([p.hi for p in self.parts] + [math.nan])
        return points <= ends[np.searchsorted(starts, points, side="right") - 1]

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion(self.parts + other.parts)

    def intersection(self, other: "IntervalUnion") -> "IntervalUnion":
        return _sweep(self, other, operator.and_)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        return _sweep(self, other, operator.gt)

    def symmetric_difference(self, other: "IntervalUnion") -> "IntervalUnion":
        return _sweep(self, other, operator.ne)

    def __repr__(self) -> str:
        inner = " ∪ ".join(f"[{p.lo:g}, {p.hi:g}]" for p in self.parts)
        return inner or "∅"


def _canonical_parts(parts: Iterable[Interval]) -> tuple[Interval, ...]:
    live = sorted((p for p in parts if p.length > 0), key=lambda p: (p.lo, p.hi))
    merged: list[Interval] = []
    for p in live:
        if merged and p.lo <= merged[-1].hi:
            if p.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, p.hi)
        else:
            merged.append(p)
    return tuple(merged)


def _bounds(u: IntervalUnion) -> list[float]:
    return [x for p in u.parts for x in (p.lo, p.hi)]


def _segments(a_bounds: list, b_bounds: list) -> Iterator[tuple]:
    """(lo, hi, in_a, in_b) for each segment between consecutive bounds of
    two canonical unions that lies in either, in order. ``a_bounds`` holds
    the lo and hi of each part of A in order, floats or integers on a common
    scale. Canonical parts are disjoint and do not touch, so every open
    segment lies wholly inside or outside each operand: inside A where an odd
    number of A's bounds lie at or below its lo."""
    edges = sorted(set(a_bounds).union(b_bounds))
    a_bounds, b_bounds = a_bounds + [math.inf], b_bounds + [math.inf]
    i = j = 0
    for lo, hi in zip(edges, edges[1:]):
        while a_bounds[i] <= lo:
            i += 1
        while b_bounds[j] <= lo:
            j += 1
        in_a, in_b = i % 2 == 1, j % 2 == 1
        if in_a or in_b:
            yield lo, hi, in_a, in_b


def _sweep(a: IntervalUnion, b: IntervalUnion, keep: Callable[[bool, bool], bool]) -> IntervalUnion:
    """The union of the segments on which ``keep(in_a, in_b)`` holds, each
    closed. The constructor merges kept segments that touch."""
    return IntervalUnion(tuple(Interval(lo, hi) for lo, hi, in_a, in_b
                               in _segments(_bounds(a), _bounds(b)) if keep(in_a, in_b)))


# ---------------------------------------------------------------------------
# Exact measure-based distances
# ---------------------------------------------------------------------------


def _integer_segments(a: IntervalUnion, b: IntervalUnion) -> tuple[int, list[tuple]]:
    """q, the least power of two that makes every bound of ``a`` and ``b``
    an integer, and the segments of the two with their bounds times q."""
    a_bounds, b_bounds = _bounds(a), _bounds(b)
    ratios = [x.as_integer_ratio() for x in a_bounds + b_bounds]
    q = max(d for _, d in ratios)
    scaled = [n * (q // d) for n, d in ratios]
    return q, list(_segments(scaled[:len(a_bounds)], scaled[len(a_bounds):]))


def _integral(segments: list[tuple], in_x: Callable[[bool, bool], bool],
              in_y: Callable[[bool, bool], bool]) -> tuple[int, int, int]:
    """6 q^3 times the double integral of |x - y| over x in X and y in Y,
    the segments on which ``in_x`` and ``in_y`` hold, and q mu(X), q mu(Y).

    Two segments that are apart contribute L_k L_l |c_k - c_l|, which the
    prefix sums of L and L·C over the segments of each side before the
    current one give at once; a segment in both contributes L^3 / 3. With
    C = 2c, the two are 3 L_k L_l |C_k - C_l| and 2 L^3 in these units."""
    total = x_len = x_moment = y_len = y_moment = 0
    for lo, hi, in_a, in_b in segments:
        length, centre = hi - lo, hi + lo
        x, y = in_x(in_a, in_b), in_y(in_a, in_b)
        if y:
            total += 3 * length * (centre * x_len - x_moment)
        if x:
            total += 3 * length * (centre * y_len - y_moment)
            x_len += length
            x_moment += length * centre
        if y:
            y_len += length
            y_moment += length * centre
        if x and y:
            total += 2 * length**3
    return total, x_len, y_len


def _in_a(in_a: bool, in_b: bool) -> bool:
    return in_a


def _in_b(in_a: bool, in_b: bool) -> bool:
    return in_b


def interval_group_average(a: IntervalUnion, b: IntervalUnion) -> float:
    """Mean of |x - y| over x in ``a``, y in ``b``: the double integral over
    mu(A) mu(B), one rational, correctly rounded."""
    if not (a.parts and b.parts):
        raise NullMeasureError("interval_group_average requires positive measure")
    q, segments = _integer_segments(a, b)
    # I = n / (6 q^3) and mu(A) = mu_a / q; an int quotient is correctly rounded
    n, mu_a, mu_b = _integral(segments, _in_a, _in_b)
    return n / (6 * q * mu_a * mu_b)


def interval_average_metric(a: IntervalUnion, b: IntervalUnion) -> float:
    """Measure-based average-distance metric on interval unions.

    f(A, B) = (I(A, B\\A) mu(B) + I(A\\B, B) mu(A)) / (mu(A) mu(B) mu(A∪B)),
    with I the double integral of |x - y|: one rational, correctly rounded.
    A difference of zero measure adds nothing, and no 0/0 is formed.
    """
    if not (a.parts and b.parts):
        raise NullMeasureError("interval_average_metric requires positive measure")
    q, segments = _integer_segments(a, b)
    # B\\A and A\\B are where in_a < in_b and in_a > in_b; scaled as above
    n_b_only, mu_a, mu_b_only = _integral(segments, _in_a, operator.lt)
    n_a_only, _, mu_b = _integral(segments, operator.gt, _in_b)
    return (n_b_only * mu_b + n_a_only * mu_a) / (6 * q * mu_a * mu_b * (mu_a + mu_b_only))


def interval_metric_closed_form(a: Interval, b: Interval) -> float:
    """Closed form of the interval metric for two single intervals.

    With s = |sup A - sup B| and i = |inf A - inf B|:

        f(A,B) = (s + i)/2 - s*i / (sup(A∪B) - inf(A∪B))   if one interval
                                                            properly contains
                                                            the other,
        f(A,B) = |center(A) - center(B)|                    otherwise.

    Under containment s + i is at most the span, and s*i/span is taken as
    s*(i/span), so nothing overflows, and the result is within 4 ulps of the
    exact rational value (2.6 the most seen). Without containment the
    endpoint gaps share a sign, so (s + i)/2 is exactly the center distance;
    it is computed in that form to keep the equality bit-exact. Degenerate
    intervals are rejected.
    """
    if a.length == 0.0 or b.length == 0.0:
        raise DomainError("interval_metric_closed_form requires non-degenerate intervals")
    if a == b:
        return 0.0
    sup_gap = abs(a.hi - b.hi)
    inf_gap = abs(a.lo - b.lo)
    a_in_b = b.lo <= a.lo and a.hi <= b.hi
    b_in_a = a.lo <= b.lo and b.hi <= a.hi
    if a_in_b or b_in_a:  # proper containment: a == b was handled above
        span = max(a.hi, b.hi) - min(a.lo, b.lo)
        return (sup_gap + inf_gap) / 2.0 - sup_gap * (inf_gap / span)
    return abs(a.center - b.center)


def steinhaus(a: IntervalUnion, b: IntervalUnion) -> float:
    """mu(A△B) / mu(A∪B): the measure-theoretic Jaccard distance. On the
    segments of the union distances' sweep it is one int quotient, correctly
    rounded."""
    if not (a.parts or b.parts):  # the only unions of zero measure
        raise NullMeasureError("steinhaus requires a non-null union")
    _, segments = _integer_segments(a, b)
    every = sum(hi - lo for lo, hi, _, _ in segments)
    return sum(hi - lo for lo, hi, in_a, in_b in segments if in_a != in_b) / every


# ---------------------------------------------------------------------------
# Estimation by sampling
# ---------------------------------------------------------------------------


class SamplePlan(_Frozen):
    """How to draw the sample: the population (an interval union or a finite
    set over a registry), the sample count, the seed, and the mode
    ("random" for seeded uniform draws, "systematic" for an equal-measure
    grid over an interval population)."""

    __slots__ = _fields = ("population", "n", "seed", "mode")

    def __init__(self, population: Union[IntervalUnion, FiniteSet], n: int, seed: int = 0,
                 mode: str = "random"):
        if not isinstance(population, (IntervalUnion, FiniteSet)):
            raise ParameterError(
                "sampling population must be an IntervalUnion or a FiniteSet, "
                f"got {type(population).__name__}"
            )
        _require_integer("sample count", n)
        _require_integer("sampling seed", seed)
        if n < 1:
            raise ParameterError(f"sample count must be >= 1, got {n}")
        if seed < 0:
            raise ParameterError(f"sampling seed must be >= 0, got {seed}")
        if n > MAX_SAMPLES:
            raise ParameterError(f"sample count must be at most {MAX_SAMPLES:,}, got {n}")
        if mode not in ("random", "systematic"):
            raise ParameterError(f"unknown sampling mode {mode!r}")
        if mode == "systematic" and isinstance(population, FiniteSet):
            raise ParameterError("systematic sampling needs an interval population")
        object.__setattr__(self, "population", population)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "mode", mode)


class EstimateResult(NamedTuple):
    value: float
    size_a: int
    size_b: int


Membership = Union[IntervalUnion, FiniteSet]


def _sample_interval_points(population: IntervalUnion, plan: SamplePlan) -> np.ndarray:
    """The plan's sample of a population of positive measure, sorted and unique."""
    import numpy as np
    total = population.measure
    lengths = np.array([p.length for p in population.parts])
    offsets = np.concatenate(([0.0], np.cumsum(lengths)))
    los = np.array([p.lo for p in population.parts])
    if plan.mode == "random":
        u = np.random.default_rng(plan.seed).random(plan.n) * total
    else:
        u = (np.arange(plan.n) + 0.5) / plan.n * total
    idx = np.clip(np.searchsorted(offsets, u, side="right") - 1, 0, len(lengths) - 1)
    points = los[idx] + (u - offsets[idx])
    return np.unique(points)


def _abs_cross_sum(xs: np.ndarray, ys: np.ndarray) -> float:
    """Sum over all pairs of |x - y|, for sorted ``ys``, in O(n + m log n)
    through the prefix sums of ``ys``."""
    import numpy as np
    prefix = np.concatenate(([0.0], np.cumsum(ys)))
    pos = np.searchsorted(ys, xs, side="right")
    left = xs * pos - prefix[pos]
    right = (prefix[-1] - prefix[pos]) - xs * (len(ys) - pos)
    return float(np.sum(left + right))


def _average_metric_1d(xs: np.ndarray, ys: np.ndarray) -> float:
    """Finite-set average metric over sorted unique 1-d points with d = |x-y|.

    The set differences are taken on the points themselves, as x - o may
    round two of them to one value. The cross sums
    are taken on the points less the least point o, divided by the power of
    two ``unit`` that brings the span into [1, 2), a float for every span
    from 2^-1074 to 2^1023: every prefix sum then adds terms in [0, 2), so
    no offset cancels and none overflows. The result is scaled back."""
    import numpy as np
    o = min(xs[0], ys[0])
    unit = math.ldexp(1.0, math.frexp(max(xs[-1], ys[-1]) - o)[1] - 1)
    value = _set_average(
        xs, ys, lambda x, y: (_abs_cross_sum((x - o) / unit, (y - o) / unit),),
        difference=functools.partial(np.setdiff1d, assume_unique=True))
    return value * unit


def _sample_sides(a: Membership, b: Membership, plan: SamplePlan, nonempty: bool = False) -> tuple:
    """The plan's sample intersected with A and with B: arrays of sorted
    unique points for an interval population, id sets for a finite one.
    Before any draw, in this order: the operands must be of the population's
    kind and lie in it, the population must not be empty, and where
    ``nonempty`` is set neither may the operands, as no sample count could
    then meet them."""
    import numpy as np
    population = plan.population
    kind = IntervalUnion if isinstance(population, IntervalUnion) else FiniteSet
    if not (isinstance(a, kind) and isinstance(b, kind)):
        raise ParameterError(
            f"sampling a {type(population).__name__} population expects "
            f"{kind.__name__} operands, got {type(a).__name__} and {type(b).__name__}"
        )
    if kind is IntervalUnion:
        uncovered = a.union(b).difference(population).measure
        if uncovered > 0.0:
            raise ParameterError(f"sampling population does not cover the operands "
                                 f"(uncovered measure {uncovered:g})")
        if not population.parts:  # the only unions of zero measure
            raise NullMeasureError("sampling population has zero measure")
    else:
        outside = len((a.ids | b.ids) - population.ids)
        if outside:
            raise ParameterError(f"sampling population does not cover the operands "
                                 f"(ids outside it: {outside})")
        if not population.members:
            raise EmptySetError("finite sampling population is empty")
    if nonempty and not all(s.parts if kind is IntervalUnion else s.members for s in (a, b)):
        raise EmptySetError("estimate_average_metric requires non-empty sets")
    if kind is IntervalUnion:
        points = _sample_interval_points(population, plan)
        return points[a._inside(points)], points[b._inside(points)]
    ids = list(population.members)
    rng = np.random.default_rng(plan.seed)
    drawn = {ids[k] for k in rng.integers(0, len(ids), plan.n)}
    return drawn & a.ids, drawn & b.ids


def estimate_average_metric(
    a: Membership,
    b: Membership,
    plan: SamplePlan,
    metric: BaseMetric | None = None,
) -> EstimateResult:
    """Sampled approximation of the average-distance metric.

    Draws the plan's sample from the population, forms the finite sets
    S∩A and S∩B, and returns the exact finite-set metric on those, together
    with their sizes. Deterministic for a fixed seed. An empty operand is an
    ``EmptySetError`` and a population that does not cover A and B a
    ``ParameterError``, both before any draw. Raises if either intersection
    comes out empty; an empty sample is reported, never papered over.
    """
    finite = not isinstance(plan.population, IntervalUnion)
    if finite and metric is None:
        raise ParameterError("finite-population estimation needs a ground metric")
    sample_a, sample_b = _sample_sides(a, b, plan, nonempty=True)
    if not len(sample_a) or not len(sample_b):
        raise SamplingError(
            f"sample missed a set entirely (|S∩A|={len(sample_a)}, "
            f"|S∩B|={len(sample_b)}); increase n or fix the population"
        )
    if finite:
        registry = plan.population.registry
        value = average_metric(metric, registry.set_of(sample_a), registry.set_of(sample_b))
    else:
        value = _average_metric_1d(sample_a, sample_b)
    return EstimateResult(value, len(sample_a), len(sample_b))


def sample_count_ratio(a: Membership, b: Membership, plan: SamplePlan) -> float:
    """|S∩A| / |S∩B| for the plan's sample: the finite-sample stand-in for a
    relative measure of A against B, over a population that covers both.
    Zero numerator gives 0; an empty denominator sample is an error."""
    sample_a, sample_b = _sample_sides(a, b, plan)
    if not len(sample_b):
        raise SamplingError("denominator set missed by the sample")
    return len(sample_a) / len(sample_b)


# ---------------------------------------------------------------------------
# Fuzzy sets
# ---------------------------------------------------------------------------

# The most pairs of members, |A|·|B|, for which fuzzy_distance reads the
# ground metric through a memo rather than ``core``'s exact rows; neither
# loads numpy. Warm, on three sets of n 3-d points, each sharing two thirds
# of its points with the next, the three distances of the matrix took, with
# the memo against the rows (two series, each the medians of 30 runs over 5
# seeds, 2-vCPU VM): n = 30, 26.7 against 31.4 and 27.3 against 27.6 ms;
# 33, 27.8 against 27.1 and 33.6 against 39.4; 36, 34.1 against 31.7 and 48.9
# against 48.4; 40, 40.4 against 33.9 and 67.3 against 59.9; 50, 52 against
# 40; 100, 203 against 113.
_MEMO_MAX_PAIRS = 36 * 36


class FuzzySet(_Frozen):
    """Membership function over a finite universe of element ids."""

    __slots__ = _fields = ("membership",)

    def __init__(self, membership: Mapping[ElementId, float] | Iterable[tuple[ElementId, float]]):
        if isinstance(membership, Mapping):
            membership = membership.items()
        items = tuple(sorted(((eid, float(g)) for eid, g in membership),
                             key=lambda kv: _id_sort_key(kv[0])))
        for eid, grade in items:
            if not 0.0 <= grade <= 1.0:
                raise ParameterError(f"membership grade out of [0,1] for {eid!r}: {grade}")
        if not any(grade > 0 for _, grade in items):
            raise ParameterError("fuzzy set needs at least one positive membership")
        object.__setattr__(self, "membership", items)

    def alpha_cut(self, alpha: float) -> frozenset:
        if not 0.0 < alpha <= 1.0:
            raise ParameterError(f"alpha level must lie in (0, 1], got {alpha}")
        return frozenset(eid for eid, grade in self.membership if grade >= alpha)


def fuzzy_distance(
    m: BaseMetric,
    registry: ElementRegistry,
    a: FuzzySet,
    b: FuzzySet,
    alpha_grid: Iterable[float] = DEFAULT_ALPHA_GRID,
    alpha_weight: float = 1.0,
) -> float:
    """Distance between fuzzy sets via their level-cut collections.

    Each surviving grid level alpha contributes a (cut, alpha) pair; a level
    is dropped when either cut is empty. Pairs are compared with the product
    choice

        D((S, alpha), (T, beta)) = average_metric(S, T) + c * |alpha - beta|

    (one admissible combination: a sum of metrics is a metric), and the
    level-2 average-distance construction is applied to the two collections
    of pairs. Equal fuzzy sets give 0.

    The cuts share their pairs of members, so where |A|·|B| (members with
    any grade) is at most ``_MEMO_MAX_PAIRS``, each ground distance is
    evaluated once, through ``core._Memo``. Larger sets read ``m`` itself,
    whose cut distances take ``core``'s exact rows from 256 pairs on.
    """
    if not 0 <= alpha_weight < math.inf:  # NaN too
        raise ParameterError(f"alpha weight must be finite and non-negative, got {alpha_weight}")
    levels = sorted(set(float(al) for al in alpha_grid))
    if not levels:
        raise ParameterError("alpha grid is empty")
    pairs_a = []
    pairs_b = []
    for alpha in levels:
        cut_a = a.alpha_cut(alpha)
        cut_b = b.alpha_cut(alpha)
        if not cut_a or not cut_b:
            continue
        pairs_a.append((cut_a, alpha))
        pairs_b.append((cut_b, alpha))
    if not pairs_a:
        raise DomainError("no alpha level leaves both cuts non-empty")
    coll_a = frozenset(pairs_a)
    coll_b = frozenset(pairs_b)
    ground = _Memo(m) if len(a.membership) * len(b.membership) <= _MEMO_MAX_PAIRS else m

    @functools.cache
    def cut_distance(s: frozenset, t: frozenset) -> float:
        return average_metric(ground, registry.set_of(s), registry.set_of(t))

    def pair_distance(p: tuple[frozenset, float], q: tuple[frozenset, float]) -> float:
        (s, alpha), (t, beta) = p, q
        return cut_distance(s, t) + alpha_weight * abs(alpha - beta)

    return _set_average(coll_a, coll_b,
                        lambda xs, ys: itertools.starmap(pair_distance, itertools.product(xs, ys)))
