"""Metamorphic properties from the paper, on operands both below and above
the 256-pair threshold of the cross-distance block.

* Scaling every coordinate by c > 0 scales f, g and h by c. The scaled
  coordinates are rounded, so the bound is absolute, in units u = 2**-53 of
  c * M, M the largest coordinate magnitude: each coordinate difference
  moves by at most 2u c M, a distance of the scaled and of the unscaled
  points is off by at most (dim + 4) ulps of its at most 2 sqrt(dim) M, and
  f, g and h are averages or extrema of distances with at most three more
  roundings. Together at most (4 dim + 28) sqrt(dim) u c M.
* Relabelling the ids changes no distance, bit for bit: every sum is one
  ``math.fsum`` and every extremum is exact, so the order of the ids, which
  relabelling changes, does not enter.
* Under ``DiscreteMetric(lam)``, f = lam |A△B| / |A∪B|, within 8 ulps: two
  sums of equal terms, each correctly rounded, two quotients, one sum.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setmetric import (
    DiscreteMetric,
    ElementRegistry,
    EuclideanMetric,
    MatrixMetric,
    average_metric,
    group_average,
    hausdorff,
    pointwise_mean_distance,
    semi_metric,
    sidewise_mean_distance,
)

U = 2.0**-53
N = 60
# small operands give at most 15 x 15 = 225 pairs, large ones at least 17 x 17 = 289
SIZES = {"small": (1, 15), "large": (17, 40)}
ORDERS = [-math.inf, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf]
SETTINGS = dict(max_examples=40, deadline=None)


@st.composite
def points(draw):
    dim = draw(st.integers(1, 4))
    coord = st.floats(-1000, 1000, allow_subnormal=False)
    return dim, draw(st.lists(st.tuples(*[coord] * dim), min_size=N, max_size=N))


def operands(draw, regime):
    lo, hi = SIZES[regime]
    ids = st.lists(st.integers(0, N - 1), min_size=lo, max_size=hi, unique=True)
    return draw(ids), draw(ids)


@pytest.mark.parametrize("regime", list(SIZES))
@settings(**SETTINGS)
@given(data=st.data(), c=st.floats(1e-3, 1e3))
def test_scaling_the_coordinates_scales_f_g_and_h(regime, data, c):
    dim, pts = data.draw(points())
    xs, ys = operands(data.draw, regime)
    m = EuclideanMetric()
    plain = ElementRegistry(dict(enumerate(pts)))
    scaled = ElementRegistry({k: tuple(c * v for v in p) for k, p in enumerate(pts)})
    big = max((abs(v) for p in pts for v in p), default=0.0)
    # and a few subnormal units, where a scaled coordinate leaves the normal range
    bound = (4 * dim + 28) * math.sqrt(dim) * U * c * big + 64 * 2.0**-1074
    for fn in (average_metric, group_average, hausdorff):
        got = fn(m, scaled.set_of(xs), scaled.set_of(ys))
        assert abs(got - c * fn(m, plain.set_of(xs), plain.set_of(ys))) <= bound


def relabelled(m, registry, perm):
    """The registry and metric under new ids perm[k] for id k."""
    moved = ElementRegistry({perm[k]: registry.element(k).payload for k in range(N)})
    if isinstance(m, MatrixMetric):
        m = MatrixMetric([perm[k] for k in m.ids], m._rows, pseudo=True)
    return m, moved


DISTANCES = {
    "f": average_metric,
    "g": group_average,
    "e": semi_metric,
    "h": hausdorff,
}


@pytest.mark.parametrize("regime", list(SIZES))
@pytest.mark.parametrize("kind", ["euclidean", "table"])
@settings(**SETTINGS)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       kinds=st.tuples(*[st.integers(0, 1)] * 3),
       orders=st.tuples(*[st.sampled_from(ORDERS)] * 3))
def test_relabelling_changes_no_distance(kind, regime, data, seed, kinds, orders):
    _, pts = data.draw(points())
    registry = ElementRegistry(dict(enumerate(pts)))
    if kind == "euclidean":
        m = EuclideanMetric()
    else:
        # L1 distances on a coarse grid: ties and off-diagonal zeros
        grid = [(round(p[0]) % 7, round(p[-1]) % 7) for p in pts]
        m = MatrixMetric(range(N), [[abs(a - c) / 8 + abs(b - d) / 8 for c, d in grid]
                                    for a, b in grid], pseudo=True)
    perm = list(range(N))
    random.Random(seed).shuffle(perm)
    moved_m, moved = relabelled(m, registry, perm)
    xs, ys = operands(data.draw, regime)
    a, b = registry.set_of(xs), registry.set_of(ys)
    ma, mb = moved.set_of(perm[x] for x in xs), moved.set_of(perm[y] for y in ys)
    for fn in DISTANCES.values():
        assert fn(moved_m, ma, mb) == fn(m, a, b)
    (k, i, j), (r, p, q) = kinds, orders
    assert (pointwise_mean_distance(moved_m, ma, mb, i=i, j=j, p=p, q=q)
            == pointwise_mean_distance(m, a, b, i=i, j=j, p=p, q=q))
    assert (sidewise_mean_distance(moved_m, ma, mb, k=k, i=i, j=j, r=r, p=p, q=q)
            == sidewise_mean_distance(m, a, b, k=k, i=i, j=j, r=r, p=p, q=q))


@pytest.mark.parametrize("regime", list(SIZES))
@settings(**SETTINGS)
@given(data=st.data(), lam=st.floats(1e-3, 1e3))
def test_discrete_metric_gives_scaled_jaccard(regime, data, lam):
    registry = ElementRegistry(dict.fromkeys(range(N)))
    xs, ys = operands(data.draw, regime)
    a, b = registry.set_of(xs), registry.set_of(ys)
    expected = lam * len(a.ids ^ b.ids) / len(a.ids | b.ids)
    assert abs(average_metric(DiscreteMetric(lam), a, b) - expected) <= 8 * U * expected
