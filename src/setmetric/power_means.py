"""Extended power means and the distance families built from them.

Two mean types over n values, both taking an extended-real order ``p``
(finite, 0 as the analytic limit, +inf, -inf):

* ``power_mean``  ((1/n) sum x^p)^(1/p); p=1 arithmetic, p=0 geometric
* ``exp_mean``    (1/p) ln((1/n) sum e^(p x)); p=0 arithmetic

Limit orders are dispatched to closed-form branches rather than evaluated
numerically near the limit. Both means are one algebra, the exponential mean
of v being the log of the power mean of e^v, and one kernel, ``_log_scale``,
accumulates both in the log domain relative to the factored extreme value,
so large ``p * x`` cannot overflow. Every arithmetic mean, of the values,
their logs or the kernel's terms, is ``core._quotient`` over the count,
which cannot overflow where the mean is finite. ``_mean_rows``, the means of
the rows of a cross-distance block, takes the general branch in numpy and
hands every row of a rarer branch to the scalar mean.

Composing means over a pair of finite sets yields a two-parameter family
that specializes to the average-distance metric (both orders at their
arithmetic settings) and to the Hausdorff metric (outer max of inner mins):

* ``pointwise_mean_distance``  outer mean over x in A∪B of the gated inner
  mean distance from x into the opposite set
* ``sidewise_mean_distance``   an extra outermost mean over the two sides;
  at arithmetic settings equals half the average-distance metric

Under a scaled discrete ground distance both collapse to closed forms in the
set cardinalities (``closed_form_pointwise_discrete``,
``closed_form_sidewise_discrete``), and a log-cardinality limit of the
sidewise form gives ``log_cardinality_distance``, a partial metric for
nu < 1/2 and a true metric at nu = 1/2.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import TYPE_CHECKING, Sequence

from .core import (
    BaseMetric,
    ElementId,
    FiniteSet,
    _cross_rows,
    _quotient,
    _require_nonempty,
    _require_same_registry,
    _require_scale,
)
from .errors import ParameterError

if TYPE_CHECKING:
    import numpy as np

_INF = float("inf")
_TINY = sys.float_info.min  # smallest positive normal float
_LOG_MAX = math.log(sys.float_info.max)  # the largest y whose e^y is finite
_LOG_TINY = math.log(_TINY)  # the smallest y whose e^y is a normal float


def _require_orders(**orders: float) -> None:
    for name, order in orders.items():
        if order != order:  # NaN is no order
            raise ParameterError(f"order {name} must be a number, inf or -inf, got nan")


def _validated(values: Sequence[float], nonneg: bool) -> list[float]:
    vals = [float(v) for v in values]
    if not vals:
        raise ParameterError("mean of an empty value list")
    if any(map(math.isnan, vals)):
        raise ParameterError("mean of a NaN value")
    if nonneg and not all(v >= 0 for v in vals):
        raise ParameterError("power mean expects non-negative values")
    return vals


def _mean(values: list[float]) -> float:
    """The arithmetic mean: ``_quotient`` of the values over their count."""
    try:
        return _quotient(values.__iter__, len(values))
    except ValueError:
        raise ParameterError("mean of both +inf and -inf") from None


def power_mean(values: Sequence[float], p: float = 1.0) -> float:
    """Power mean of order ``p`` over non-negative values.

    p = 1 arithmetic mean, p = 0 geometric mean (analytic limit), p = +inf /
    -inf the max / min. A zero value makes the mean 0 for p <= 0.
    """
    _require_orders(p=p)
    vals = _validated(values, nonneg=True)
    if p == _INF:
        return max(vals)
    if p == -_INF:
        return min(vals)
    if p <= 0 and 0.0 in vals:
        return 0.0
    if p == 1:
        return _mean(vals)
    if p != 0:
        # Factor out the extreme value so the powered ratios stay in (0, 1].
        m = max(vals) if p > 0 else min(vals)
        if m == 0.0:
            return 0.0
        if m == _INF:  # it outweighs every other term, or it is every value
            return m
        y = _log_scale([_log_ratio(v, m) for v in vals], p)
        if y is not None:
            if _LOG_TINY <= y <= _LOG_MAX:
                return m * math.exp(y)
            # e^y is not a normal float where the mean is far from m: scale in the log domain
            try:
                return math.exp(math.log(m) + y)
            except OverflowError:  # with an infinite value at p < 0 it can pass the largest float
                return _INF
    return math.exp(_mean([math.log(v) for v in vals]))


def _log_ratio(v: float, m: float) -> float:
    # log(0/m) = -inf makes a zero value's term -1, since 0^p = 0 for p > 0
    if not v:
        return -_INF
    ratio = v / m
    # a positive v far below or above m makes the ratio subnormal, 0 or inf
    return math.log(ratio) if _TINY <= ratio < _INF else math.log(v) - math.log(m)


def exp_mean(values: Sequence[float], p: float = 1.0) -> float:
    """Exponential-transform mean (1/p) ln((1/n) sum e^(p x)).

    p = 0 is the arithmetic-mean limit; p = +inf / -inf give max / min. It is
    m + log(M / m) for the power mean M of the e^v and their factored extreme
    e^m, so p * v never overflows.
    """
    _require_orders(p=p)
    vals = _validated(values, nonneg=False)
    if p == _INF:
        return max(vals)
    if p == -_INF:
        return min(vals)
    if p != 0:
        top, bottom = max(vals), min(vals)
        m = top if p > 0 else bottom
        if math.isinf(m):  # e^(p m) outweighs every other term, or m is every value
            return m
        if math.isinf(top - bottom) and any(math.isinf(v - m) for v in vals if math.isfinite(v)):
            # finite v - m overflows: halve, by exp_mean(v; p) = 2 exp_mean(v/2; 2p)
            return 2.0 * exp_mean([v / 2.0 for v in vals], 2.0 * p)
        y = _log_scale([v - m for v in vals], p)
        if y is not None:
            return m + y
    return _mean(vals)


def _log_scale(logs: list[float], p: float) -> float | None:
    """log(M / m) for the power mean M of order ``p`` of the values m e^x, x in
    ``logs``; None where the order-0 limit applies. ``power_mean`` is m e^y
    over the logs of v/m, ``exp_mean`` m + y over v - m. ``p`` is not 0."""
    spread = max(map(abs, logs))
    # Once |p| * spread is below the smallest normal float, p * x keeps too few
    # bits to be divided by p again, and the order-0 limit is within rounding.
    # Equal values need no cutoff; every term is 0.
    if spread > 0.0 and spread * abs(p) < _TINY:
        return None
    # expm1 keeps orders next to 0 from rounding the sum to 1; p * x <= 0, as
    # m is the max for p > 0 and the min for p < 0
    return math.log1p(_mean([math.expm1(p * x) for x in logs])) / p


def _row_means(rows: np.ndarray) -> np.ndarray:
    """``_mean`` of each row: correctly rounded, so a mean does not depend on
    the order of the ids, as numpy's row sums would."""
    import numpy as np
    return np.array([_mean(row) for row in rows.tolist()])


def _mean_rows(kind: int, rows: np.ndarray, p: float) -> np.ndarray:
    """``_means(kind)(row, p)`` for each row of ``rows``, a chunk of the
    cross-distance block, whose values are finite and non-negative.

    numpy takes the limit orders, the arithmetic and geometric means, a zero
    extreme and the general branch of ``_log_scale``. Every other row, and
    every row whose numpy mean is not finite, is the scalar mean: the rare
    branches are the scalar means' own.
    """
    import numpy as np
    if p == _INF:
        return rows.max(axis=1)
    if p == -_INF:
        return rows.min(axis=1)
    if p == kind:  # the arithmetic order: 1 for power means, 0 for exponential ones
        return _row_means(rows)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if p == 0:  # the geometric mean: a zero value's log is -inf, and the mean 0
            return np.exp(_row_means(np.log(rows)))
        m = rows.max(axis=1, keepdims=True) if p > 0 else rows.min(axis=1, keepdims=True)
        if kind:
            ratio = rows / m
            logs = np.log(ratio)
            # as in _log_ratio: a positive value's ratio to m is subnormal, 0 or inf
            scalar = ((rows > 0.0) & ((ratio < _TINY) | (ratio == _INF))).any(axis=1)
        else:
            logs, scalar = rows - m, False
        spread = np.abs(logs).max(axis=1)
        y = np.log1p(_row_means(np.expm1(p * logs))) / p
        means = m[:, 0] * np.exp(y) if kind else m[:, 0] + y
        scalar |= ((spread > 0.0) & (spread * abs(p) < _TINY)) | ~np.isfinite(means)
        if kind:
            scalar |= (y < _LOG_TINY) | (y > _LOG_MAX)  # e^y is not a normal float
            # a zero m makes the power mean 0: a zero value for p < 0, a row of zeros for p > 0
            zero = m[:, 0] == 0.0
            means[zero], scalar[zero] = 0.0, False
    for r in np.flatnonzero(scalar).tolist():
        means[r] = _means(kind)(rows[r].tolist(), p)
    return means


def _means(kind: int):
    """The scalar mean of ``kind``, looked up at each call."""
    if kind not in (0, 1):
        raise ParameterError(f"mean kind must be 0 or 1, got {kind}")
    return power_mean if kind else exp_mean


# ---------------------------------------------------------------------------
# Composed set distances
# ---------------------------------------------------------------------------


def pointwise_mean_distance(
    m: BaseMetric,
    a: FiniteSet,
    b: FiniteSet,
    *,
    i: int = 1,
    j: int = 1,
    p: float = 1.0,
    q: float = 1.0,
) -> float:
    """Outer mean (kind ``i``, order ``p``) over x in A∪B of the gated inner
    mean (kind ``j``, order ``q``) of distances from x into the opposite set.

    Shared elements contribute an inner value of 0. With both means at their
    arithmetic settings (p=i, q=j) this equals ``average_metric``; with
    p=+inf, q=-inf it equals ``hausdorff``. Other parameter choices are
    exploratory and carry no metric guarantee.
    """
    _require_orders(p=p, q=q)
    _require_same_registry("pointwise_mean_distance", a, b)
    _require_nonempty("pointwise_mean_distance", a, b)
    outer = _means(i)
    into_a = _means_into(m, a, b, j, q)
    into_b = _means_into(m, b, a, j, q)
    values = [
        0.0 if eid in a.ids and eid in b.ids else into_a(eid) if eid in b.ids else into_b(eid)
        for eid in a.union(b).members
    ]
    return outer(values, p)


def _means_into(m: BaseMetric, side: FiniteSet, other: FiniteSet, j: int, q: float):
    """id -> inner mean (kind ``j``, order ``q``) of the distances from that
    member of ``other`` outside ``side`` to the members of ``side``.

    From the cross-distance block when it is taken, a chunk of rows at a
    time; otherwise one row per call, so rows and their errors come in the
    caller's order.
    """
    inner = _means(j)
    registry, inside = side.registry, side.ids
    outside = [eid for eid in other.members if eid not in inside]
    rows = _cross_rows(m, registry, outside, side.members)
    if rows is not None:
        means = itertools.chain.from_iterable(_mean_rows(j, chunk, q).tolist() for chunk in rows)
        return dict(zip(outside, means)).__getitem__
    targets = side.elements()

    def mean_into(eid: ElementId) -> float:
        x = registry.element(eid)
        return inner([m.distance(x, y) for y in targets], q)

    return mean_into


def sidewise_mean_distance(
    m: BaseMetric,
    a: FiniteSet,
    b: FiniteSet,
    *,
    k: int = 1,
    i: int = 1,
    j: int = 1,
    r: float = 1.0,
    p: float = 1.0,
    q: float = 1.0,
) -> float:
    """Outermost mean (kind ``k``, order ``r``) over the two sides S in {A, B}
    of the per-side composition used by ``pointwise_mean_distance``.

    At all-arithmetic settings (r=k, p=i, q=j) this is exactly half of
    ``average_metric``; with r=p=+inf, q=-inf it equals ``hausdorff``.
    """
    _require_orders(r=r, p=p, q=q)
    _require_same_registry("sidewise_mean_distance", a, b)
    _require_nonempty("sidewise_mean_distance", a, b)
    middle, outer = _means(i), _means(k)
    union_ids = a.union(b).members

    def branch(side: FiniteSet, other: FiniteSet) -> float:
        into_side = _means_into(m, side, other, j, q)
        values = [0.0 if eid in side.ids else into_side(eid) for eid in union_ids]
        return middle(values, p)

    return outer([branch(a, b), branch(b, a)], r)


# ---------------------------------------------------------------------------
# Discrete-metric closed forms
# ---------------------------------------------------------------------------


def closed_form_pointwise_discrete(
    a: FiniteSet, b: FiniteSet, p: float, lam: float = 1.0
) -> float:
    """Exponential-type pointwise composition under a discrete ground
    distance of scale ``lam``, in closed form:

        (1/p) ln((e^(p lam) |A△B| + |A∩B|) / |A∪B|)

    Valid for p >= 0 (p = 0 dispatches to the analytic limit lam * |A△B| /
    |A∪B|, the scaled Jaccard distance); a metric for every p > 0. The inner
    mean order drops out because all cross-distances equal ``lam``.
    """
    _require_orders(p=p)
    _require_same_registry("closed_form_pointwise_discrete", a, b)
    _require_nonempty("closed_form_pointwise_discrete", a, b)
    _require_scale(lam)
    if p < 0:
        raise ParameterError(
            "closed form is stated for p >= 0; use pointwise_mean_distance "
            "to explore negative orders"
        )
    sym = len(a.ids ^ b.ids)
    inter = len(a.ids & b.ids)
    union = len(a.ids | b.ids)
    if sym == 0:
        return 0.0
    if p == 0:
        return lam * sym / union
    if p * lam == _INF:
        # e^(-p lam) is 0, and lam is the limit at p = inf
        return lam + (math.log(sym) - math.log(union)) / p
    # log(e^(p lam) sym + inter) computed shift-first so large p cannot overflow
    return (p * lam + math.log(sym + inter * math.exp(-p * lam)) - math.log(union)) / p


def closed_form_sidewise_discrete(
    a: FiniteSet, b: FiniteSet, p: float, lam: float = 1.0
) -> float:
    """Exponential-type sidewise composition (outermost order at its limit)
    under a discrete ground distance of scale ``lam``:

        (1/(2p)) ln( ((e^(p lam) |B\\A| + |A|) / |A∪B|)
                   * ((e^(p lam) |A\\B| + |B|) / |A∪B|) )

    Valid for p <= 0; a metric for every p < 0. The p = 0 branch returns the
    analytic limit (lam/2) * |A△B| / |A∪B|, i.e. half the scaled Jaccard
    distance, matching the sidewise composition's arithmetic limit.
    """
    _require_orders(p=p)
    _require_same_registry("closed_form_sidewise_discrete", a, b)
    _require_nonempty("closed_form_sidewise_discrete", a, b)
    _require_scale(lam)
    if p > 0:
        raise ParameterError(
            "closed form is stated for p <= 0; use sidewise_mean_distance "
            "to explore positive orders"
        )
    b_only = len(b.ids - a.ids)
    a_only = len(a.ids - b.ids)
    union = len(a.ids | b.ids)
    if a_only == 0 and b_only == 0:
        return 0.0
    if p == 0:
        return lam * (a_only + b_only) / (2 * union)
    x = math.exp(p * lam)  # p <= 0, so x in (0, 1]: no overflow possible
    ratio_a = (x * b_only + len(a)) / union
    ratio_b = (x * a_only + len(b)) / union
    return math.log(ratio_a * ratio_b) / (2 * p)


def log_cardinality_distance(a: FiniteSet, b: FiniteSet, nu: float) -> float:
    """log|A∪B| − nu·(log|A| + log|B|) for nu in [0, 1/2].

    At nu = 1/2 this is a metric. For nu < 1/2 the self-distance
    (1 − 2 nu)·log|A| is non-zero, and the function satisfies the partial
    triangle inequality d(a,b) + d(b,c) >= d(a,c) + d(b,b) instead of M5.
    """
    _require_same_registry("log_cardinality_distance", a, b)
    _require_nonempty("log_cardinality_distance", a, b)
    if not 0.0 <= nu <= 0.5:
        raise ParameterError(f"nu must lie in [0, 1/2], got {nu}")
    union = len(a.ids | b.ids)
    return math.log(union) - nu * (math.log(len(a)) + math.log(len(b)))
