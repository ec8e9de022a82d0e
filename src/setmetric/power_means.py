"""Extended weighted power means and the distance families built from them.

Two mean types, both taking an extended-real order ``p`` (finite, 0 as the
analytic limit, +inf, -inf):

* ``power_mean``  (sum w x^p / sum w)^(1/p); p=1 arithmetic, p=0 geometric
* ``exp_mean``    (1/p) ln(sum w e^(p x) / sum w); p=0 arithmetic

Limit orders are dispatched to closed-form branches rather than evaluated
numerically near the limit, and both means use max-factored/max-shifted
accumulation so large ``p * x`` cannot overflow.

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
    _require_nonempty,
    _require_same_registry,
)
from .errors import ParameterError

if TYPE_CHECKING:
    import numpy as np

_INF = float("inf")
_TINY = sys.float_info.min  # smallest positive normal float
_LOG_MAX = math.log(sys.float_info.max)  # the largest y whose e^y is finite


def _validated(
    values: Sequence[float],
    weights: Sequence[float] | None,
    nonneg_values: bool,
) -> tuple[list[float], list[float]]:
    vals = [float(v) for v in values]
    if not vals:
        raise ParameterError("mean of an empty value list")
    if weights is None:
        wts = [1.0] * len(vals)
    else:
        wts = [float(w) for w in weights]
        if len(wts) != len(vals):
            raise ParameterError(
                f"length mismatch: {len(vals)} values, {len(wts)} weights"
            )
    if any(map(math.isnan, vals)):
        raise ParameterError("mean of a NaN value")
    if nonneg_values and not all(v >= 0 for v in vals):
        raise ParameterError("power mean expects non-negative values")
    if not all(w >= 0 for w in wts):
        if any(map(math.isnan, wts)):
            raise ParameterError("mean with a NaN weight")
        raise ParameterError("weights must be non-negative")
    if not any(w > 0 for w in wts):
        raise ParameterError("at least one weight must be positive")
    return vals, wts


def power_mean(values: Sequence[float], weights: Sequence[float] | None = None, p: float = 1.0) -> float:
    """Weighted power mean of order ``p`` over non-negative values.

    p = 1 arithmetic mean, p = 0 geometric mean (analytic limit), p = +inf /
    -inf the max / min over all listed values (the infinite orders ignore
    weights). Zero-weight terms never contribute, so a zero value under a
    zero weight does not trip the "zero value with p < 0 gives 0" rule.
    """
    vals, wts = _validated(values, weights, nonneg_values=True)
    if p == _INF:
        return max(vals)
    if p == -_INF:
        return min(vals)
    active = [(v, w) for v, w in zip(vals, wts) if w > 0.0]
    wsum = math.fsum(w for _, w in active)
    if p <= 0 and any(v == 0.0 for v, _ in active):
        return 0.0
    if p == 1:
        return math.fsum(w * v for v, w in active) / wsum
    if p != 0:
        # Factor out the extreme value so the powered ratios stay in (0, 1].
        m = max(v for v, _ in active) if p > 0 else min(v for v, _ in active)
        if m == 0.0:
            return 0.0
        y = _log_scale([_log_ratio(v, m) for v, _ in active], active, wsum, p)
        if y is not None and y <= _LOG_MAX:
            return m * math.exp(y)
        if y is not None:
            # e^y overflows only where a ratio v/m does, read by _log_ratio as
            # log inf: take logs of differences and scale in the log domain
            y = _log_scale([math.log(v) - math.log(m) for v, _ in active], active, wsum, p)
            if y is not None:
                return math.exp(math.log(m) + y)
    return math.exp(math.fsum(w * math.log(v) for v, w in active) / wsum)


def _log_scale(logs: list[float], active: list, wsum: float, p: float) -> float | None:
    """log(M / m) for the power mean M of order ``p`` of the values m e^x, x in
    ``logs``, weighted as ``active``; None where the order-0 limit applies."""
    spread = max(map(abs, logs))
    # Once |p| * spread is below the smallest normal float, p * log(v/m)
    # keeps too few bits to be divided by p again, and the order moves the
    # mean by far less than one rounding unit: the order-0 limit is returned
    # instead. Equal values need no cutoff; every term is 0.
    if spread > 0.0 and spread * abs(p) < _TINY:
        return None
    # (v/m)^p - 1 via expm1: orders arbitrarily close to 0 degrade gracefully
    # into the geometric-mean limit instead of rounding the whole sum to 1
    delta = math.fsum(w * math.expm1(p * x) for x, (_, w) in zip(logs, active))
    return math.log1p(delta / wsum) / p


def _log_ratio(v: float, m: float) -> float:
    # log(0/m) = -inf makes a zero value's term -w, since 0^p = 0 for p > 0
    if not v:
        return -_INF
    ratio = v / m
    # a positive v far below m underflows the ratio to 0
    return math.log(ratio) if ratio else math.log(v) - math.log(m)


def exp_mean(values: Sequence[float], weights: Sequence[float] | None = None, p: float = 1.0) -> float:
    """Exponential-transform mean (1/p) ln(sum w e^(p x) / sum w).

    p = 0 is the arithmetic-mean limit; p = +inf / -inf give max / min over
    all listed values. Computed with max-shifted exponentials.
    """
    vals, wts = _validated(values, weights, nonneg_values=False)
    if p == _INF:
        return max(vals)
    if p == -_INF:
        return min(vals)
    active = [(v, w) for v, w in zip(vals, wts) if w > 0.0]
    wsum = math.fsum(w for _, w in active)
    # As in power_mean: once |p| * spread is below the smallest normal float,
    # p * v keeps too few bits to be divided by p again, and the order-0
    # limit is correct to within rounding.
    spread = max(active)[0] - min(active)[0]
    if p == 0 or spread * abs(p) < _TINY:
        return math.fsum(w * v for v, w in active) / wsum
    # Shift by the largest exponent and accumulate e^(p v - shift) - 1 via
    # expm1: immune to overflow for large p*v and to cancellation near p = 0.
    shift = max(p * v for v, _ in active)
    if math.isinf(shift):  # p * v overflows: the mean is at its limit
        return (max if p > 0 else min)(v for v, _ in active)
    delta = math.fsum(w * math.expm1(p * v - shift) for v, w in active)
    return (shift + math.log1p(delta / wsum)) / p


def _mean_fn(kind: int):
    if kind == 1:
        return power_mean
    if kind == 0:
        return exp_mean
    raise ParameterError(f"mean kind must be 0 or 1, got {kind}")


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
    _require_same_registry("pointwise_mean_distance", a, b)
    _require_nonempty("pointwise_mean_distance", a, b)
    outer = _mean_fn(i)
    into_a = _means_into(m, a, b, j, q)
    into_b = _means_into(m, b, a, j, q)
    values = [
        0.0 if eid in a.ids and eid in b.ids else into_a(eid) if eid in b.ids else into_b(eid)
        for eid in a.union(b).members
    ]
    return outer(values, None, p)


def _means_into(m: BaseMetric, side: FiniteSet, other: FiniteSet, j: int, q: float):
    """id -> inner mean (kind ``j``, order ``q``) of the distances from that
    member of ``other`` outside ``side`` to the members of ``side``.

    From the cross-distance block when it is taken, a chunk of rows at a
    time; otherwise one row per call, so rows and their errors come in the
    caller's order.
    """
    inner = _mean_fn(j)
    registry, inside = side.registry, side.ids
    outside = [eid for eid in other.members if eid not in inside]
    rows = _cross_rows(m, registry, outside, side.members)
    if rows is not None:
        row_means = _power_mean_rows if j == 1 else _exp_mean_rows
        means = itertools.chain.from_iterable(row_means(chunk, q).tolist() for chunk in rows)
        return dict(zip(outside, means)).__getitem__
    targets = side.elements()

    def mean_into(eid: ElementId) -> float:
        x = registry.element(eid)
        return inner([m.distance(x, y) for y in targets], None, q)

    return mean_into


# The means of each row of a chunk of the cross-distance block. Its values are
# finite and non-negative under unit weights, so nothing is validated. The
# algebra is that of ``power_mean`` and ``exp_mean``, the reference for these
# functions, with the same infinities (log 0, overflowing p * x), which pass
# without warnings.


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """One ``math.fsum`` per row: correctly rounded, so a mean does not
    depend on the order of the ids, as numpy's row sums would."""
    import numpy as np
    return np.array([math.fsum(row) for row in rows.tolist()])


def _power_mean_rows(rows: np.ndarray, p: float) -> np.ndarray:
    """``power_mean(row, None, p)`` for each row of ``rows``."""
    import numpy as np
    if p == _INF:
        return rows.max(axis=1)
    if p == -_INF:
        return rows.min(axis=1)
    n = rows.shape[1]
    if p == 1:
        return _row_sums(rows) / n
    # m is the extreme value factored out; where it is 0, so is the mean: a
    # zero value for p <= 0, a row of zeros for p > 0
    m = rows.max(axis=1) if p > 0 else rows.min(axis=1)
    means = np.zeros(len(rows))
    live = np.flatnonzero(m)
    x, m = rows[live], m[live, None]
    with np.errstate(divide="ignore", over="ignore"):
        if p == 0:
            y = np.full(len(x), np.nan)
        else:
            ratio = x / m
            logs = np.log(ratio)
            # as in _log_ratio: a positive value far below m underflows the ratio
            under = (ratio == 0.0) & (x > 0.0)
            if under.any():
                logs[under] = (np.log(x) - np.log(m))[under]
            y = _log_scale_rows(logs, p)
            means[live] = m[:, 0] * np.exp(y)
            # as in power_mean: where e^y overflows, a ratio did
            over = np.flatnonzero(y > _LOG_MAX)
            if over.size:
                y[over] = _log_scale_rows(np.log(x[over]) - np.log(m[over]), p)
                means[live[over]] = np.exp(np.log(m[over, 0]) + y[over])
        geometric = np.isnan(y)
        if geometric.any():
            means[live[geometric]] = np.exp(_row_sums(np.log(x[geometric])) / n)
    return means


def _log_scale_rows(logs: np.ndarray, p: float) -> np.ndarray:
    """``_log_scale`` of each row under unit weights, NaN for None."""
    import numpy as np
    spread = np.abs(logs).max(axis=1)
    powered = ~((spread > 0.0) & (spread * abs(p) < _TINY))
    y = np.full(len(logs), np.nan)
    if powered.any():
        y[powered] = np.log1p(_row_sums(np.expm1(p * logs[powered])) / logs.shape[1]) / p
    return y


def _exp_mean_rows(rows: np.ndarray, p: float) -> np.ndarray:
    """``exp_mean(row, None, p)`` for each row of ``rows``."""
    import numpy as np
    if p == _INF:
        return rows.max(axis=1)
    if p == -_INF:
        return rows.min(axis=1)
    n = rows.shape[1]
    means = np.empty(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        # the spread is finite, so p = 0 takes the arithmetic mean here too
        arithmetic = (rows.max(axis=1) - rows.min(axis=1)) * abs(p) < _TINY
        if arithmetic.any():
            means[arithmetic] = _row_sums(rows[arithmetic]) / n
        powered = np.flatnonzero(~arithmetic)
        if powered.size:
            scaled = p * rows[powered]
            shift = scaled.max(axis=1)
            delta = _row_sums(np.expm1(scaled - shift[:, None]))
            means[powered] = (shift + np.log1p(delta / n)) / p
            # as in exp_mean: where p * x overflows, the mean is at its limit
            over = powered[np.isinf(shift)]
            means[over] = rows[over].max(axis=1) if p > 0 else rows[over].min(axis=1)
    return means


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
    _require_same_registry("sidewise_mean_distance", a, b)
    _require_nonempty("sidewise_mean_distance", a, b)
    middle = _mean_fn(i)
    outer = _mean_fn(k)
    union_ids = a.union(b).members

    def branch(side: FiniteSet, other: FiniteSet) -> float:
        into_side = _means_into(m, side, other, j, q)
        values = [0.0 if eid in side.ids else into_side(eid) for eid in union_ids]
        return middle(values, None, p)

    return outer([branch(a, b), branch(b, a)], None, r)


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
    _require_same_registry("closed_form_pointwise_discrete", a, b)
    _require_nonempty("closed_form_pointwise_discrete", a, b)
    if not lam > 0:
        raise ParameterError(f"discrete scale must be positive, got {lam}")
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
    _require_same_registry("closed_form_sidewise_discrete", a, b)
    _require_nonempty("closed_form_sidewise_discrete", a, b)
    if not lam > 0:
        raise ParameterError(f"discrete scale must be positive, got {lam}")
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
