"""Randomized verification of metric axioms.

``check_axioms`` probes a distance function on sampled operand triples:

* M1  d(a,b) >= 0
* M2  d(a,a) == 0
* M3  d(a,b) == 0 implies a == b
* M4  d(a,b) == d(b,a)
* M5  d(a,b) + d(b,c) >= d(a,c)
* partial-M5  d(a,b) + d(b,c) >= d(a,c) + d(b,b)

A sampler is any callable ``sampler(rng) -> (a, b, c)``; pair axioms use the
first two operands. Reports are deterministic for a fixed seed, and each call
owns its RNG, so concurrent checks stay reproducible.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Callable, NamedTuple, Sequence

from .core import MAX_COORDINATES, MAX_TRIPLES, ElementRegistry, FiniteSet, _require_integer
from .errors import ParameterError

METRIC_AXIOMS = ("M1", "M2", "M3", "M4", "M5")
PARTIAL_AXIOMS = ("M1", "M3", "M4", "partial-M5")
_KNOWN_AXIOMS = frozenset(METRIC_AXIOMS) | {"partial-M5"}

DistanceFn = Callable[[Any, Any], float]
TripleSampler = Callable[[random.Random], tuple[Any, Any, Any]]


class Violation(NamedTuple):
    axiom: str
    witness: tuple[str, ...]
    magnitude: float


class AxiomReport(NamedTuple):
    """Outcome of a randomized axiom check.

    ``magnitude`` is the amount by which the axiom's inequality fails; a
    violation is recorded when it strictly exceeds the tolerance. M3 is the
    exception: its witnesses are distinct operands at distance <= tolerance,
    and the magnitude recorded is that near-zero distance itself.
    """

    checked: int
    tolerance: float
    axioms: tuple[str, ...]
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> dict[str, int]:
        return dict(Counter(v.axiom for v in self.violations))

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "tolerance": self.tolerance,
            "axioms": list(self.axioms),
            "ok": self.ok,
            "violations": [
                {"axiom": v.axiom, "witness": list(v.witness), "magnitude": v.magnitude}
                for v in self.violations
            ],
        }


def check_axioms(
    dist_fn: DistanceFn,
    sampler: TripleSampler,
    n: int = 1000,
    seed: int = 0,
    tolerance: float = 1e-9,
    axioms: Sequence[str] = METRIC_AXIOMS,
) -> AxiomReport:
    """Sample ``n`` operand triples and record every axiom violation."""
    _require_integer("sample count", n)
    if n < 1:
        raise ParameterError(f"need at least one sample, got n={n}")
    if n > MAX_TRIPLES:
        raise ParameterError(f"at most {MAX_TRIPLES:,} samples, got n={n}")
    if not tolerance >= 0:  # NaN too: it would pass every check
        raise ParameterError(f"tolerance must be non-negative, got {tolerance}")
    wanted = tuple(axioms)
    for name in wanted:
        if name not in _KNOWN_AXIOMS:
            raise ParameterError(f"unknown axiom {name!r}")
    rng = random.Random(seed)
    violations: list[Violation] = []

    def record(axiom: str, operands: tuple, magnitude: float) -> None:
        witness = tuple(repr(o) for o in operands)
        violations.append(Violation(axiom, witness, magnitude))

    for _ in range(n):
        a, b, c = sampler(rng)
        d_ab = dist_fn(a, b)
        if "M1" in wanted and d_ab < -tolerance:
            record("M1", (a, b), -d_ab)
        if "M2" in wanted:
            d_aa = dist_fn(a, a)
            if d_aa > tolerance:
                record("M2", (a,), d_aa)
        if "M3" in wanted and a != b and d_ab <= tolerance:
            record("M3", (a, b), d_ab)
        if "M4" in wanted:
            gap = abs(d_ab - dist_fn(b, a))
            if gap > tolerance:
                record("M4", (a, b), gap)
        if "M5" in wanted or "partial-M5" in wanted:
            d_bc = dist_fn(b, c)
            d_ac = dist_fn(a, c)
            if "M5" in wanted:
                excess = d_ac - d_ab - d_bc
                if excess > tolerance:
                    record("M5", (a, b, c), excess)
            if "partial-M5" in wanted:
                excess = d_ac + dist_fn(b, b) - d_ab - d_bc
                if excess > tolerance:
                    record("partial-M5", (a, b, c), excess)

    return AxiomReport(
        checked=n,
        tolerance=tolerance,
        axioms=wanted,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def random_point_registry(rng: random.Random, size: int = 12, dim: int = 2) -> ElementRegistry:
    """Registry of ``size`` >= 1 points with coordinates uniform in
    [0, 1]^dim, ``dim`` >= 1, and at most ``MAX_COORDINATES`` in all."""
    for what, value in (("point count", size), ("dimension", dim)):
        _require_integer(what, value)
        if value < 1:
            raise ParameterError(f"{what} must be >= 1, got {value}")
    if size * dim > MAX_COORDINATES:
        raise ParameterError(f"{size} points x {dim} coordinates exceed {MAX_COORDINATES:,}")
    registry = ElementRegistry()
    for k in range(size):
        registry.add(k, tuple(rng.uniform(0.0, 1.0) for _ in range(dim)))
    return registry


def _require_size_range(what: str, min_size: int, max_size: int) -> None:
    """An inclusive range of set sizes holds integers 1 <= min <= max."""
    for name, value in (("min_size", min_size), ("max_size", max_size)):
        _require_integer(name, value)
    if not 1 <= min_size <= max_size:
        raise ParameterError(f"{what} sizes need 1 <= min_size <= max_size, "
                             f"got min_size={min_size}, max_size={max_size}")


def _subset_draw(
    registry: ElementRegistry, min_size: int, max_size: int, what: str = "subset"
) -> Callable[[random.Random], list]:
    """``draw(rng)``: distinct ids of a non-empty pool, ``min_size`` to
    ``max_size`` of them, both lowered to the pool size after the check."""
    _require_size_range(what, min_size, max_size)
    ids = list(registry.ids())
    if not ids:
        raise ParameterError("sampler needs a non-empty registry")
    hi = min(max_size, len(ids))
    lo = min(min_size, hi)
    return lambda rng: rng.sample(ids, rng.randint(lo, hi))


def subset_triple_sampler(
    registry: ElementRegistry,
    min_size: int = 1,
    max_size: int = 8,
) -> TripleSampler:
    """Independent random subsets of a shared pool.

    Small sets over a small pool deliberately hit the boundary cases:
    singletons, heavy overlap, equality. Subsets have from ``min_size`` to
    ``max_size`` members, integers 1 <= min_size <= max_size lowered to the
    pool size. Bad sizes or an empty pool are refused before any draw.
    """
    draw = _subset_draw(registry, min_size, max_size)

    def sample(rng: random.Random) -> tuple[FiniteSet, FiniteSet, FiniteSet]:
        return registry.set_of(draw(rng)), registry.set_of(draw(rng)), registry.set_of(draw(rng))

    return sample


def chained_overlap_sampler(registry: ElementRegistry) -> TripleSampler:
    """Structured triples A = d+h, B = d+h+e, C = h+e from disjoint non-empty
    parts d, h, e of at most three members each.

    This family defeats the triangle inequality for ``semi_metric``: the
    defect equals triangle_surplus(d, h, e) / (|A| |B| |C|).
    """
    ids = list(registry.ids())
    if len(ids) < 3:
        raise ParameterError("chained-overlap sampler needs at least 3 ids")
    cap = max(1, min(3, len(ids) // 3))

    def sample(rng: random.Random) -> tuple[FiniteSet, FiniteSet, FiniteSet]:
        sizes = [rng.randint(1, cap) for _ in range(3)]
        chosen = rng.sample(ids, sum(sizes))
        d = chosen[: sizes[0]]
        h = chosen[sizes[0] : sizes[0] + sizes[1]]
        e = chosen[sizes[0] + sizes[1] :]
        return (
            registry.set_of(d + h),
            registry.set_of(d + h + e),
            registry.set_of(h + e),
        )

    return sample
