"""Named verification suites for the cross-module identities.

Each suite runs a batch of randomized or enumerated checks at desk scale and
returns one row per identity with the worst observed deviation. The CLI
``verify`` subcommand drives these; the suites are also importable for
programmatic use. All randomness is seeded, so a run is reproducible
byte-for-byte.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

from .axioms import check_axioms, random_point_registry, subset_triple_sampler
from .continuous import (
    Interval,
    IntervalUnion,
    interval_average_metric,
    interval_metric_closed_form,
    steinhaus,
)
from .core import (
    SUITE_NAMES,
    DiscreteMetric,
    ElementRegistry,
    EuclideanMetric,
    FiniteSet,
    _triangle_surplus_raw,
    average_metric,
    group_average,
    hausdorff,
    jaccard,
    pair_sum,
)
from .errors import ParameterError
from .hierarchy import _subsets_containing, duality_ratio, nested_average_metric, nested_triple_sampler
from .power_means import (
    closed_form_pointwise_discrete,
    closed_form_sidewise_discrete,
    pointwise_mean_distance,
    sidewise_mean_distance,
)

_INF = float("inf")


class CheckRow(NamedTuple):
    name: str
    deviation: float
    tolerance: float
    passed: bool


def _row(name: str, deviation: float, tolerance: float) -> CheckRow:
    return CheckRow(name, deviation, tolerance, deviation <= tolerance)


# ---------------------------------------------------------------------------
# identities: power-mean compositions against the base family
# ---------------------------------------------------------------------------


def suite_identities(seed: int = 0) -> list[CheckRow]:
    rng = random.Random(seed)
    registry = random_point_registry(rng, size=12, dim=2)
    m = EuclideanMetric()
    pair_sampler = subset_triple_sampler(registry, 1, 6)
    pairs = [pair_sampler(rng)[:2] for _ in range(200)]

    dev_point = 0.0
    dev_side = 0.0
    dev_point_h = 0.0
    dev_side_h = 0.0
    for a, b in pairs:
        f = average_metric(m, a, b)
        h = hausdorff(m, a, b)
        for i, j in itertools.product((0, 1), repeat=2):
            u = pointwise_mean_distance(m, a, b, i=i, j=j, p=i, q=j)
            dev_point = max(dev_point, abs(u - f))
        for k, i, j in itertools.product((0, 1), repeat=3):
            v = sidewise_mean_distance(m, a, b, k=k, i=i, j=j, r=k, p=i, q=j)
            dev_side = max(dev_side, abs(2.0 * v - f))
        u_h = pointwise_mean_distance(m, a, b, i=1, j=1, p=_INF, q=-_INF)
        dev_point_h = max(dev_point_h, abs(u_h - h))
        v_h = sidewise_mean_distance(m, a, b, k=1, i=1, j=1, r=_INF, p=_INF, q=-_INF)
        dev_side_h = max(dev_side_h, abs(v_h - h))

    discrete = DiscreteMetric(1.0)
    dev_jaccard = max(
        abs(average_metric(discrete, a, b) - jaccard(a, b)) for a, b in pairs
    )

    ids = registry.ids()
    dev_isometry = 0.0
    for ia, ib in itertools.combinations(ids, 2):
        f_single = average_metric(m, registry.set_of([ia]), registry.set_of([ib]))
        d = m.distance(registry.element(ia), registry.element(ib))
        dev_isometry = max(dev_isometry, abs(f_single - d))

    dev_disjoint = 0.0
    for _ in range(200):
        chosen = rng.sample(ids, rng.randint(2, len(ids)))
        cut = rng.randint(1, len(chosen) - 1)
        a = registry.set_of(chosen[:cut])
        b = registry.set_of(chosen[cut:])
        dev_disjoint = max(
            dev_disjoint, abs(average_metric(m, a, b) - group_average(m, a, b))
        )

    sampler = subset_triple_sampler(registry, 1, 8)
    min_surplus = min(
        _triangle_surplus_raw(m, *sampler(rng)) for _ in range(500)
    )

    dev_decomp = 0.0
    for _ in range(200):
        a, b, _ = sampler(rng)
        ids_a, ids_b = list(a.members), list(b.members)
        cut_a = rng.randint(0, len(ids_a))
        cut_b = rng.randint(0, len(ids_b))
        parts_a = [registry.set_of(ids_a[:cut_a]), registry.set_of(ids_a[cut_a:])]
        parts_b = [registry.set_of(ids_b[:cut_b]), registry.set_of(ids_b[cut_b:])]
        whole = pair_sum(m, a, b)
        split = math.fsum(pair_sum(m, pa, pb) for pa in parts_a for pb in parts_b)
        dev_decomp = max(dev_decomp, abs(whole - split))

    return [
        _row("pointwise(i,j | p=i, q=j) equals average metric", dev_point, 1e-9),
        _row("2 * sidewise(k,i,j | r=k, p=i, q=j) equals average metric", dev_side, 1e-9),
        _row("pointwise(p=inf, q=-inf) equals hausdorff", dev_point_h, 1e-12),
        _row("sidewise(r=p=inf, q=-inf) equals hausdorff", dev_side_h, 1e-12),
        _row("discrete average metric equals jaccard", dev_jaccard, 1e-12),
        _row("singleton distance equals ground distance", dev_isometry, 0.0),
        _row("disjoint sets: average metric equals group average", dev_disjoint, 1e-12),
        _row("triangle surplus non-negative", max(0.0, -min_surplus), 1e-12),
        _row("pairwise sum splits over disjoint partitions", dev_decomp, 1e-12),
    ]


# ---------------------------------------------------------------------------
# triangle decomposition: the product-scaled seven-part identity
# ---------------------------------------------------------------------------


def triangle_decomposition_sides(m, a: FiniteSet, b: FiniteSet, c: FiniteSet) -> tuple[float, float]:
    """Both sides of the product-scaled triangle identity.

    The left side is |A||B||C||A∪B||B∪C||A∪C| (f(A,B) + f(B,C) - f(A,C));
    the right side re-expresses it as a sum of triangle-surplus and
    pairwise-sum terms over the seven disjoint parts of A∪B∪C, each
    non-negative for a metric ground distance, which is what makes the
    triangle inequality for the average metric an identity-level fact.
    """
    registry = a.registry
    ids_a, ids_b, ids_c = a.ids, b.ids, c.ids
    sub = registry.set_of
    alpha = sub(ids_a - (ids_b | ids_c))
    beta = sub(ids_b - (ids_a | ids_c))
    gamma = sub(ids_c - (ids_a | ids_b))
    delta = sub((ids_a & ids_b) - ids_c)
    eps = sub((ids_b & ids_c) - ids_a)
    zeta = sub((ids_c & ids_a) - ids_b)
    theta = sub(ids_b & (ids_a | ids_c))

    n_a, n_b, n_c = len(a), len(b), len(c)
    n_ab = len(ids_a | ids_b)
    n_bc = len(ids_b | ids_c)
    n_ac = len(ids_a | ids_c)
    lhs = (
        n_a * n_b * n_c * n_ab * n_bc * n_ac
        * (average_metric(m, a, b) + average_metric(m, b, c) - average_metric(m, a, c))
    )

    def t(x, y, z):
        return _triangle_surplus_raw(m, x, y, z)

    b_minus_a = sub(ids_b - ids_a)
    c_minus_a = sub(ids_c - ids_a)
    b_minus_c = sub(ids_b - ids_c)
    a_minus_c = sub(ids_a - ids_c)
    a_and_c = sub(ids_a & ids_c)
    n_dc = len(delta.ids | ids_c)
    n_bz = len(ids_b | zeta.ids)
    n_ae = len(ids_a | eps.ids)
    n_cd = len(ids_c | delta.ids)

    rhs = (
        n_b * n_c * (
            n_dc * t(a, b_minus_a, gamma)
            + len(alpha) * t(a, beta, gamma)
            + n_bz * t(a, beta, c_minus_a)
        )
        + n_a * n_b * (
            n_ae * t(alpha, b_minus_c, c)
            + len(gamma) * t(alpha, beta, c)
            + n_bz * t(a_minus_c, beta, c)
        )
        + n_a * n_c * (
            (n_ac + len(zeta)) * t(alpha, b, gamma)
            + n_b * t(alpha, theta, gamma)
            + n_ae * t(alpha, b, zeta)
            + n_cd * t(zeta, b, gamma)
        )
        + 2.0 * n_a * n_c * (n_dc * n_ae + len(beta) * n_ac) * pair_sum(m, b, zeta)
        + 2.0 * n_a * n_b * n_c * n_bz * pair_sum(m, beta, a_and_c)
    )
    return lhs, rhs


def suite_triangle_decomposition(seed: int = 0) -> list[CheckRow]:
    rng = random.Random(seed)
    registry = random_point_registry(rng, size=12, dim=2)
    m = EuclideanMetric()
    sampler = subset_triple_sampler(registry, 1, 8)
    worst = 0.0
    for _ in range(300):
        a, b, c = sampler(rng)
        lhs, rhs = triangle_decomposition_sides(m, a, b, c)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return [_row("seven-part decomposition identity (relative)", worst, 1e-9)]


# ---------------------------------------------------------------------------
# discrete closed forms and their inequalities
# ---------------------------------------------------------------------------


def _ratio_pointwise(x: float, a: FiniteSet, b: FiniteSet) -> float:
    return (x * len(a.ids ^ b.ids) + len(a.ids & b.ids)) / len(a.ids | b.ids)


def phi_coefficients(a: FiniteSet, b: FiniteSet, c: FiniteSet) -> tuple[float, float, float, float]:
    """Coefficients of the cubic phi(y) controlling the sidewise closed
    form's triangle inequality for negative orders, where y = 1 - e^(p lam)."""

    def sides(x: FiniteSet, y: FiniteSet) -> tuple[float, float]:
        union = len(x.ids | y.ids)
        return len(x.ids - y.ids) / union, len(y.ids - x.ids) / union

    b1, b2 = sides(a, b)
    c1, c2 = sides(b, c)
    a1, a2 = sides(a, c)
    j_ab, j_bc = b1 + b2, c1 + c2
    return (
        j_ab + j_bc - (a1 + a2),
        a1 * a2 - b1 * b2 - c1 * c2 - j_ab * j_bc,
        j_ab * c1 * c2 + b1 * b2 * j_bc,
        -b1 * b2 * c1 * c2,
    )


def _draw(sampler, n: int, seed: int) -> list[tuple]:
    """The ``n`` triples ``check_axioms(..., n=n, seed=seed)`` draws from ``sampler``."""
    rng = random.Random(seed)
    return [sampler(rng) for _ in range(n)]


def _replay(triples: list[tuple]):
    """A sampler that returns ``triples`` in order, whatever its rng."""
    it = iter(triples)
    return lambda rng: next(it)


def suite_closed_forms(seed: int = 0) -> list[CheckRow]:
    rng = random.Random(seed)
    registry = ElementRegistry(dict.fromkeys(range(12)))  # the discrete metric reads no payload
    sampler = subset_triple_sampler(registry, 1, 8)
    lam = 1.0

    triples = [sampler(rng) for _ in range(1000)]

    min_tau = _INF
    for a, b, c in triples:
        for p in (0.1, 1.0, 10.0):
            x = math.exp(p * lam)
            tau = _ratio_pointwise(x, a, b) * _ratio_pointwise(x, b, c) - _ratio_pointwise(x, a, c)
            min_tau = min(min_tau, tau)

    phi_margin = _INF
    for a, b, c in triples:
        p0, p1, p2, p3 = phi_coefficients(a, b, c)
        phi_margin = min(
            phi_margin,
            p0,
            p0 + p1 + p2 + p3,          # phi(1)
            -(p1 + 2 * p2 + 3 * p3),    # -phi'(1)
            2 * p2 + 6 * p3,            # phi''(1)
        )

    # each order sees the triples check_axioms draws at its seed: drawn once, replayed
    point_triples = _draw(sampler, 1000, seed + 1)
    side_triples = _draw(sampler, 1000, seed + 2)
    point_m5 = 0
    side_m5 = 0
    for p in (0.1, 1.0, 10.0):
        report = check_axioms(
            lambda a, b, _p=p: closed_form_pointwise_discrete(a, b, _p, lam),
            _replay(point_triples), n=1000, seed=seed + 1, tolerance=1e-9, axioms=("M5",),
        )
        point_m5 += len(report.violations)
    for p in (-0.1, -1.0, -10.0):
        report = check_axioms(
            lambda a, b, _p=p: closed_form_sidewise_discrete(a, b, _p, lam),
            _replay(side_triples), n=1000, seed=seed + 2, tolerance=1e-9, axioms=("M5",),
        )
        side_m5 += len(report.violations)

    pairs = [(a, b) for a, b, _ in triples[:300]]
    dev_point_limit = max(
        abs(closed_form_pointwise_discrete(a, b, 1e-6, lam) - lam * jaccard(a, b))
        for a, b in pairs
    )
    dev_side_limit = max(
        abs(closed_form_sidewise_discrete(a, b, -1e-6, lam) - 0.5 * lam * jaccard(a, b))
        for a, b in pairs
    )

    discrete = DiscreteMetric(lam)
    dev_generic = 0.0
    for a, b in pairs[:100]:
        for p in (0.5, 2.0):
            for q in (-1.0, 0.0, 1.0, _INF):
                generic = pointwise_mean_distance(discrete, a, b, i=0, j=0, p=p, q=q)
                dev_generic = max(
                    dev_generic,
                    abs(generic - closed_form_pointwise_discrete(a, b, p, lam)),
                )
        for p in (-0.5, -2.0):
            generic = sidewise_mean_distance(discrete, a, b, k=0, i=0, j=0, r=0.0, p=p, q=1.0)
            dev_generic = max(
                dev_generic,
                abs(generic - closed_form_sidewise_discrete(a, b, p, lam)),
            )
        generic0 = sidewise_mean_distance(discrete, a, b, k=0, i=0, j=0, r=0.0, p=0.0, q=1.0)
        dev_generic = max(
            dev_generic, abs(generic0 - closed_form_sidewise_discrete(a, b, 0.0, lam))
        )

    return [
        _row("tau(x) >= 0 for x > 1", max(0.0, -min_tau), 1e-12),
        _row("pointwise closed form: triangle violations at p in {0.1,1,10}", float(point_m5), 0.0),
        _row("sidewise closed form: triangle violations at p in {-0.1,-1,-10}", float(side_m5), 0.0),
        _row("phi sign structure margins", max(0.0, -phi_margin), 1e-12),
        _row("pointwise closed form tends to scaled jaccard", dev_point_limit, 1e-4),
        _row("sidewise closed form tends to half scaled jaccard", dev_side_limit, 1e-4),
        _row("closed forms match generic compositions", dev_generic, 1e-9),
    ]


# ---------------------------------------------------------------------------
# duality and the nested metric
# ---------------------------------------------------------------------------


def suite_duality(seed: int = 0) -> list[CheckRow]:
    rng = random.Random(seed)
    registry = random_point_registry(rng, size=12, dim=2)

    ratio_spread = 0.0
    ratio_bounds_ok = True
    for size in (2, 3, 4, 5):
        kappa, table = duality_ratio(registry.set_of(list(range(size))), 1.0)
        spread = max(d2 for _, _, d2 in table) - min(d2 for _, _, d2 in table)
        ratio_spread = max(ratio_spread, spread)
        ratio_bounds_ok = ratio_bounds_ok and 0.0 < kappa < 1.0

    kappa2, _ = duality_ratio(registry.set_of([0, 1]), 1.0)
    dev_half = abs(kappa2 - 0.5)

    nested_registry = random_point_registry(rng, size=10, dim=2)
    euclid = EuclideanMetric()
    report = check_axioms(
        lambda a, b: nested_average_metric(euclid, nested_registry, a, b),
        nested_triple_sampler(nested_registry),
        n=500, seed=seed, tolerance=1e-9,
    )

    # |C(x) △ C(y)| for the collections C(x) of the subsets containing x,
    # checked for the pseudo-metric axioms on every ordered triple of points
    symdiff_violations = 0
    for size in (2, 3, 4):
        members = list(range(size))
        colls = {x: set(map(frozenset, _subsets_containing(x, members))) for x in members}
        triples = list(itertools.product(members, repeat=3))
        symdiff_violations += len(check_axioms(
            lambda x, y: len(colls[x] ^ colls[y]), _replay(triples),
            n=len(triples), tolerance=0.0, axioms=("M1", "M2", "M4", "M5"),
        ).violations)

    return [
        _row("duality ratio constant across pairs (|X| in 2..5)", ratio_spread, 1e-9),
        _row("duality ratio inside (0,1)", 0.0 if ratio_bounds_ok else 1.0, 0.0),
        _row("duality ratio for |X|=2 equals 1/2", dev_half, 0.0),
        _row("nested level-2 metric axiom violations", float(len(report.violations)), 0.0),
        _row("containment symdiff is a pseudo-metric", float(symdiff_violations), 0.0),
    ]


# ---------------------------------------------------------------------------
# interval closed form and measure-based identities
# ---------------------------------------------------------------------------


def random_interval_pair(rng: random.Random) -> tuple[Interval, Interval]:
    """Pairs spanning the qualitative cases: disjoint, overlapping, nested,
    touching, shared endpoints, and equality."""
    xs = sorted(rng.uniform(0.0, 10.0) for _ in range(4))
    x1, x2, x3, x4 = xs
    kind = rng.randrange(8)
    if kind == 0:
        return Interval(x1, x2), Interval(x3, x4)
    if kind == 1:
        return Interval(x1, x3), Interval(x2, x4)
    if kind == 2:
        return Interval(x1, x4), Interval(x2, x3)
    if kind == 3:
        return Interval(x1, x2), Interval(x1, x3)   # shared lo, nested
    if kind == 4:
        return Interval(x2, x4), Interval(x3, x4)   # shared hi, nested
    if kind == 5:
        return Interval(x1, x2), Interval(x2, x3)   # touching at a point
    if kind == 6:
        a = Interval(x1, x3)
        return a, a
    return Interval(x2, x3), Interval(x1, x4)


def suite_interval(seed: int = 0) -> list[CheckRow]:
    rng = random.Random(seed)

    dev_closed = 0.0
    dev_center = 0.0
    for _ in range(1000):
        a, b = random_interval_pair(rng)
        closed = interval_metric_closed_form(a, b)
        numeric = interval_average_metric(IntervalUnion((a,)), IntervalUnion((b,)))
        dev_closed = max(dev_closed, abs(closed - numeric))
        a_in_b = b.lo <= a.lo and a.hi <= b.hi
        b_in_a = a.lo <= b.lo and b.hi <= a.hi
        if not a_in_b and not b_in_a:
            dev_center = max(dev_center, abs(closed - abs(a.center - b.center)))

    def interval_sampler(r: random.Random):
        return tuple(random_interval_pair(r)[0] for _ in range(3))

    report = check_axioms(
        interval_metric_closed_form, interval_sampler,
        n=500, seed=seed, tolerance=1e-9,
    )

    dev_steinhaus = 0.0
    for _ in range(300):
        a = _random_union(rng)
        b = _random_union(rng)
        union = a.union(b)
        coeff_sum = (
            b.difference(a).measure / union.measure
            + a.difference(b).measure / union.measure
        )
        dev_steinhaus = max(dev_steinhaus, abs(steinhaus(a, b) - coeff_sum))

    return [
        _row("interval closed form matches exact integration", dev_closed, 1e-9),
        _row("no containment: closed form equals center distance", dev_center, 0.0),
        _row("interval metric axiom violations", float(len(report.violations)), 0.0),
        _row("steinhaus equals measure-jaccard coefficient sum", dev_steinhaus, 1e-12),
    ]


def _random_union(rng: random.Random) -> IntervalUnion:
    parts = []
    for _ in range(rng.randint(1, 3)):
        lo = rng.uniform(0.0, 9.0)
        parts.append(Interval(lo, lo + rng.uniform(0.05, 2.0)))
    return IntervalUnion(tuple(parts))


# the suites under the names of core.SUITE_NAMES, in that order
SUITES = dict(zip(SUITE_NAMES, (suite_identities, suite_triangle_decomposition,
                                 suite_closed_forms, suite_duality, suite_interval)))


def run_suite(name: str, seed: int = 0) -> list[CheckRow]:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ParameterError(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)}"
        ) from None
    return fn(seed)
