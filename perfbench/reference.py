"""Reference values computed apart from the program, straight from the paper's
formulas, with numpy. Nothing here imports setmetric.

Finite sets are lists of element ids; ``block(xs, ys)`` returns the matrix of
ground distances between them. Interval unions are lists of ``[lo, hi]``
parts.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Hashable, Sequence

import numpy as np

Block = Callable[[Sequence, Sequence], np.ndarray]


# ---------------------------------------------------------------------------
# Ground distances
# ---------------------------------------------------------------------------


def ground_block(workspace: dict) -> Block:
    """Ground-distance block for a workspace document (euclidean or matrix)."""
    metric = workspace["metric"]
    if metric["kind"] == "euclidean":
        coords = workspace["elements"]

        def block(xs, ys):
            a = np.array([coords[x] for x in xs], dtype=float)
            b = np.array([coords[y] for y in ys], dtype=float)
            return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))

        return block
    if metric["kind"] == "matrix":
        index = {eid: k for k, eid in enumerate(metric["ids"])}
        table = np.array(metric["values"], dtype=float)

        def block(xs, ys):
            return table[np.ix_([index[x] for x in xs], [index[y] for y in ys])]

        return block
    raise ValueError(f"no reference for metric kind {metric['kind']!r}")


def discrete_block(lam: float = 1.0) -> Block:
    def block(xs, ys):
        return np.array([[0.0 if x == y else lam for y in ys] for x in xs])

    return block


# ---------------------------------------------------------------------------
# Finite-set family
# ---------------------------------------------------------------------------


def average_metric(xs: Sequence[Hashable], ys: Sequence[Hashable], block: Block) -> float:
    """f(A,B) = s(A, B\\A) / (|A∪B| |A|) + s(A\\B, B) / (|A∪B| |B|)."""
    xs, ys = list(dict.fromkeys(xs)), list(dict.fromkeys(ys))
    in_x, in_y = set(xs), set(ys)
    n_union = len(in_x | in_y)
    total = 0.0
    y_only = [y for y in ys if y not in in_x]
    if y_only:
        total += float(block(xs, y_only).sum()) / (n_union * len(xs))
    x_only = [x for x in xs if x not in in_y]
    if x_only:
        total += float(block(x_only, ys).sum()) / (n_union * len(ys))
    return total


def group_average(xs, ys, block: Block) -> float:
    """g(A,B) = s(A,B) / (|A| |B|)."""
    return float(block(xs, ys).mean())


def hausdorff(xs, ys, block: Block) -> float:
    d = block(xs, ys)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def power_mean(values: np.ndarray, p: float) -> float:
    """Unweighted power mean of non-negative values, limits included."""
    v = np.asarray(values, dtype=float)
    if p == math.inf:
        return float(v.max())
    if p == -math.inf:
        return float(v.min())
    if p == 0:
        return 0.0 if (v == 0).any() else float(np.exp(np.log(v).mean()))
    if p < 0 and (v == 0).any():
        return 0.0
    return float(np.mean(v**p) ** (1.0 / p))


def _union(xs, ys) -> list:
    return list(dict.fromkeys(list(xs) + list(ys)))


def _gated_inner(union, side, block: Block, q: float) -> np.ndarray:
    # For every x of A∪B: 0 if x lies in `side`, else the inner mean (order q)
    # of its distances into `side`.
    members = set(side)
    out = np.zeros(len(union))
    outside = [k for k, x in enumerate(union) if x not in members]
    if outside:
        d = block([union[k] for k in outside], list(side))
        out[outside] = [power_mean(row, q) for row in d]
    return out


def pointwise(xs, ys, block: Block, p: float, q: float) -> float:
    """Outer power mean (order p) over x in A∪B of the inner power mean
    (order q) of distances from x into the opposite set; 0 for x in A∩B."""
    union = _union(xs, ys)
    members_y = set(ys)
    in_y = np.array([x in members_y for x in union])
    into_x = _gated_inner(union, xs, block, q)
    into_y = _gated_inner(union, ys, block, q)
    return power_mean(np.where(in_y, into_x, into_y), p)


def sidewise(xs, ys, block: Block, r: float, p: float, q: float) -> float:
    """Outermost power mean (order r) over the sides S in {A, B} of the power
    mean (order p) over x in A∪B of the gated inner mean into S."""
    union = _union(xs, ys)
    sides = [power_mean(_gated_inner(union, side, block, q), p) for side in (xs, ys)]
    return power_mean(np.array(sides), r)


def nested2(xs: Sequence[Sequence], ys: Sequence[Sequence], block: Block) -> float:
    """Level-2 average metric: the construction applied to collections of
    sets, with the level-1 average metric as the inner distance."""
    cx = [frozenset(s) for s in xs]
    cy = [frozenset(s) for s in ys]

    def inner(ss, ts):
        return np.array([[average_metric(sorted(s), sorted(t), block) for t in ts] for s in ss])

    return average_metric(cx, cy, inner)


# ---------------------------------------------------------------------------
# Interval unions
# ---------------------------------------------------------------------------


def canonical(parts) -> list[tuple[float, float]]:
    """Sorted, merged, positive-length parts."""
    merged: list[list[float]] = []
    for lo, hi in sorted((float(a), float(b)) for a, b in parts if b > a):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _covers(parts: list[tuple[float, float]], x: float) -> bool:
    k = bisect.bisect_right([lo for lo, _ in parts], x)
    return k > 0 and x < parts[k - 1][1]


def sweep(a, b) -> list[tuple[float, float, bool, bool]]:
    """Elementary segments between consecutive endpoints of A and B, each
    with its membership in A and in B (decided at the midpoint)."""
    pa, pb = canonical(a), canonical(b)
    cuts = sorted({x for part in pa + pb for x in part})
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        segments.append((lo, hi, _covers(pa, mid), _covers(pb, mid)))
    return segments


def measure(parts) -> float:
    return math.fsum(hi - lo for lo, hi in canonical(parts))


def difference(a, b) -> list[tuple[float, float]]:
    return canonical([(lo, hi) for lo, hi, in_a, in_b in sweep(a, b) if in_a and not in_b])


def steinhaus(a, b) -> float:
    """mu(A△B) / mu(A∪B) from the sweep."""
    segments = sweep(a, b)
    sym = math.fsum(hi - lo for lo, hi, in_a, in_b in segments if in_a != in_b)
    union = math.fsum(hi - lo for lo, hi, in_a, in_b in segments if in_a or in_b)
    return sym / union


def abs_integral(a, b) -> float:
    """Double integral of |x - y| over x in A, y in B, summed over part pairs.

    Apart boxes give area times the centre gap; overlapping boxes use the
    antiderivative |x - y|^3 / 6 at the four corners.
    """
    pa = np.array(canonical(a), dtype=float).reshape(-1, 2)
    pb = np.array(canonical(b), dtype=float).reshape(-1, 2)
    a1, a2 = pa[:, :1], pa[:, 1:]
    b1, b2 = pb[:, 0][None, :], pb[:, 1][None, :]
    area = (a2 - a1) * (b2 - b1)
    apart = (a2 <= b1) | (b2 <= a1)
    gap = np.abs((a1 + a2) / 2 - (b1 + b2) / 2)

    def g(x, y):
        return np.abs(x - y) ** 3 / 6.0

    corners = -(g(a2, b2) - g(a1, b2) - g(a2, b1) + g(a1, b1))
    return math.fsum(np.where(apart, area * gap, corners).ravel())


def interval_metric(a, b) -> float:
    """Measure-based average metric:
    f = I(A, B\\A) / (mu(A∪B) mu(A)) + I(A\\B, B) / (mu(A∪B) mu(B))."""
    mu_union = measure(list(a) + list(b))
    total = 0.0
    b_only = difference(b, a)
    if b_only:
        total += abs_integral(a, b_only) / mu_union / measure(a)
    a_only = difference(a, b)
    if a_only:
        total += abs_integral(a_only, b) / mu_union / measure(b)
    return total


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

# The CLI prints 12 significant digits; the program sums with math.fsum and
# this module with numpy, so 1e-9 relative leaves three digits of headroom.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= max(REL_TOL * abs(expected), ABS_TOL)


def metric_violations(names: Sequence[str], d: np.ndarray) -> list[str]:
    """Symmetry, zero diagonal, positive off-diagonal cells and the triangle
    inequality over all triples of a distance matrix."""
    problems = []
    n = len(names)
    scale = max(1.0, float(np.abs(d).max()))
    slack = REL_TOL * scale
    for i in range(n):
        if d[i, i] != 0.0:
            problems.append(f"d({names[i]},{names[i]}) = {d[i, i]:.12g}, expected 0")
        for j in range(n):
            if abs(d[i, j] - d[j, i]) > slack:
                problems.append(f"asymmetric at {names[i]}/{names[j]}")
            if i != j and not d[i, j] > 0.0:
                problems.append(f"d({names[i]},{names[j]}) = {d[i, j]:.12g} for distinct sets")
            for k in range(n):
                if d[i, k] > d[i, j] + d[j, k] + slack:
                    problems.append(
                        f"triangle fails: d({names[i]},{names[k]}) > "
                        f"d({names[i]},{names[j]}) + d({names[j]},{names[k]})"
                    )
    return problems
