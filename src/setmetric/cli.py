"""Command-line surface: distances, distance matrices, axiom checks,
identity verification, and sampled estimation.

Exit codes: 0 success (or clean verification), 1 verification found
violations, 2 usage or validation error, 3 domain error from the library
(the message names the violated precondition).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import json
import math
import os
import random
import sys
import threading
from functools import partial
from typing import Callable, Collection, Iterator, NamedTuple

from .core import (
    DEFAULT_ALPHA_GRID,
    MAX_COORDINATES,
    MAX_SAMPLES,
    MAX_TRIPLES,
    SUITE_NAMES,
    DiscreteMetric,
    EuclideanMetric,
    average_metric,
    group_average,
    hausdorff,
    jaccard,
    semi_metric,
    symdiff_cardinality,
)
from .errors import DomainError, ParameterError
from .workspace import Workspace, WorkspaceError, load_workspace


def _module(name: str):
    """The package module ``name``, imported when a command first uses it, so
    that a command loads only the modules it runs. A function is looked up on
    its module at each call, so one replaced there (by a tracer) is called."""
    return importlib.import_module(f"{__package__}.{name}")


def format_scalar(value: float) -> str:
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0.0 for byte-stable output
    return f"{value:.12g}"


def _alpha_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha grid {text!r}") from None


def _lam(ws: Workspace, args) -> float:
    default = ws.metric.lam if isinstance(ws.metric, DiscreteMetric) else 1.0
    return default if args.lam is None else args.lam


def _named(section: dict, kind: str, name: str):
    try:
        return section[name]
    except KeyError:
        raise ParameterError(f"unknown {kind} name {name!r}") from None


# Operand resolvers (ws, *names) -> operands.


def _section(section: str, kind: str):
    """Resolver of names in one section of the workspace."""
    return lambda ws, *names: tuple(_named(getattr(ws, section), kind, n) for n in names)


_sets = _section("sets", "set")
_unions = _section("intervals", "interval")
_fuzzy_sets = _section("fuzzy", "fuzzy set")


def _intervals(ws: Workspace, *names: str) -> tuple:
    unions = _unions(ws, *names)  # an unknown name is reported before a union
    for name, union in zip(names, unions):
        if len(union.parts) != 1:
            raise ParameterError(f"family 'interval' needs single intervals; "
                                 f"{name!r} has {len(union.parts)} parts")
    return tuple(union.parts[0] for union in unions)


def _nested(ws: Workspace, *texts: str) -> tuple:
    """A set name is a level-1 operand; a comma-separated list of them, level 2."""
    from .hierarchy import NestedSet

    operands = []
    for text in texts:
        names = [part.strip() for part in text.split(",") if part.strip()]
        if not names:
            raise ParameterError(f"empty nested operand {text!r}")
        level1 = [NestedSet.of(map(NestedSet.leaf, _named(ws.sets, "set", name))) for name in names]
        operands.append(NestedSet.of(level1) if "," in text else level1[0])
    return tuple(operands)


class Family(NamedTuple):
    operands: Callable  # (ws, *names) -> operands
    distance: Callable  # (ws, args) -> ((a, b) -> value)


# Every family of the CLI, in the order of the --family choices. The
# distances are looked up when a command runs, not at import.
FAMILIES = {
    "f": Family(_sets, lambda ws, args: partial(average_metric, ws.metric)),
    "g": Family(_sets, lambda ws, args: partial(group_average, ws.metric)),
    "e": Family(_sets, lambda ws, args: partial(semi_metric, ws.metric)),
    "h": Family(_sets, lambda ws, args: partial(hausdorff, ws.metric)),
    "j": Family(_sets, lambda ws, args: jaccard),
    "symdiff": Family(_sets, lambda ws, args: lambda a, b: float(symdiff_cardinality(a, b))),
    "u": Family(_sets, lambda ws, args: partial(
        _module("power_means").pointwise_mean_distance, ws.metric,
        i=args.i, j=args.j, p=args.p, q=args.q)),
    "v": Family(_sets, lambda ws, args: partial(
        _module("power_means").sidewise_mean_distance, ws.metric,
        k=args.k, i=args.i, j=args.j, r=args.r, p=args.p, q=args.q)),
    "u00": Family(_sets, lambda ws, args: partial(
        _module("power_means").closed_form_pointwise_discrete, p=args.p, lam=_lam(ws, args))),
    "v000": Family(_sets, lambda ws, args: partial(
        _module("power_means").closed_form_sidewise_discrete, p=args.p, lam=_lam(ws, args))),
    "dnu": Family(_sets, lambda ws, args: partial(
        _module("power_means").log_cardinality_distance, nu=args.nu)),
    "fk": Family(_nested, lambda ws, args: partial(
        _module("hierarchy").nested_average_metric, ws.metric, ws.registry)),
    "interval": Family(_intervals,
                       lambda ws, args: _module("continuous").interval_metric_closed_form),
    "steinhaus": Family(_unions, lambda ws, args: _module("continuous").steinhaus),
    "fuzzy": Family(_fuzzy_sets, lambda ws, args: partial(
        _module("continuous").fuzzy_distance, ws.metric, ws.registry,
        alpha_grid=args.alpha_grid, alpha_weight=args.alpha_weight)),
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_dist(args) -> int:
    ws = load_workspace(args.workspace)
    family = FAMILIES[args.family]
    distance = family.distance(ws, args)
    print(format_scalar(distance(*family.operands(ws, args.set_a, args.set_b))))
    return 0


def cmd_matrix(args) -> int:
    ws = load_workspace(args.workspace)
    names = args.sets
    if len(names) < 2:
        raise ParameterError("matrix needs at least two names")
    family = FAMILIES[args.family]
    distance = family.distance(ws, args)
    # Every cell's operands are resolved, in row-major order, so each error
    # comes at the cell it always came at. Under an exactly symmetric ground
    # metric each family is symmetric bit for bit, so a cell below the
    # diagonal copies its mirror image; the diagonal is computed, as g and
    # dnu are not 0 there.
    mirror = ws.metric.symmetric
    values: list[list[float]] = []
    for i, na in enumerate(names):
        row = []
        for j, nb in enumerate(names):
            a, b = family.operands(ws, na, nb)
            row.append(values[j][i] if mirror and j < i else distance(a, b))
        values.append(row)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow([""] + list(names))
    for name, row in zip(names, values):
        writer.writerow([name] + [format_scalar(v) for v in row])
    return 0


def cmd_axioms(args) -> int:
    axioms = _module("axioms")
    if args.random:
        rng = random.Random(args.seed)
        registry = axioms.random_point_registry(rng, size=args.pool, dim=args.dim)
        ws = Workspace(registry=registry, metric=EuclideanMetric())
    else:
        ws = load_workspace(args.workspace)

    if args.fixture == "chained-overlap":
        sampler = axioms.chained_overlap_sampler(ws.registry)
    else:
        min_size, _, max_size = args.sizes.partition(":")
        try:
            lo, hi = int(min_size), int(max_size or min_size)
        except ValueError:
            raise ParameterError(f"bad --sizes {args.sizes!r}, expected LO:HI") from None
        sampler = axioms.subset_triple_sampler(ws.registry, lo, hi)

    report = axioms.check_axioms(
        FAMILIES[args.family].distance(ws, args), sampler, n=args.n, seed=args.seed,
        tolerance=args.tolerance,
        axioms=axioms.PARTIAL_AXIOMS if args.partial else axioms.METRIC_AXIOMS,
    )

    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print(
            f"family={args.family} checked={report.checked} "
            f"tolerance={report.tolerance:g} axioms={','.join(report.axioms)}"
        )
        counts = report.counts()
        if counts:
            for axiom in sorted(counts):
                print(f"violations[{axiom}] = {counts[axiom]}")
            worst = max(report.violations, key=lambda v: v.magnitude)
            print(f"worst: {worst.axiom} magnitude={format_scalar(worst.magnitude)}")
            print(f"  witness: {' | '.join(worst.witness)}")
        else:
            print("violations: none")
    return 0 if report.ok else 1


# The order in which worker processes take the suites: costliest first, as
# timed in one process on a 2-vCPU VM.
COSTLIEST_FIRST = ("duality", "appendixB", "identities", "appendixA", "interval")


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _suite_rows(names: list[str], seed: int) -> Iterator[tuple[str, list]]:
    """(name, rows) of each suite in ``names``, in that order.

    The suites are independent, so with more than one usable CPU they run on
    worker processes. A suite's exception is raised where its rows would
    come, after the rows of the suites before it, as in one process. Every
    worker is reaped before the generator ends or is closed.
    """
    # Forked workers inherit the imported package, where spawned ones would
    # start an interpreter and import it again. fork copies the calling
    # thread alone, so a process with other threads, one of which may hold a
    # lock a worker needs, runs the suites itself.
    run_suite = _module("verify").run_suite
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    workers = min(len(names), _usable_cpus()) if forkable else 1
    if workers < 2:
        for name in names:
            yield name, run_suite(name, seed=seed)
        return
    import multiprocessing  # here, so that no other command pays for it

    # leaving the block, by a raise too, terminates and joins every worker
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        pending = {name: pool.apply_async(run_suite, (name, seed))
                   for name in sorted(names, key=COSTLIEST_FIRST.index)}
        for name in names:
            yield name, pending[name].get()


def cmd_verify(args) -> int:
    names = list(_module("verify").SUITES) if args.suite == "all" else [args.suite]
    total = failed = 0
    with contextlib.closing(_suite_rows(names, args.seed)) as results:
        for name, rows in results:
            for row in rows:
                total += 1
                failed += not row.passed
                print(
                    f"[{name}] {'PASS' if row.passed else 'FAIL'} {row.name}: "
                    f"max_dev={row.deviation:.3e} tol={row.tolerance:.0e}"
                )
    print(f"verify: {total - failed}/{total} checks passed")
    return 0 if failed == 0 else 1


def cmd_estimate(args) -> int:
    continuous = _module("continuous")
    ws = load_workspace(args.workspace)
    name_a, name_b = args.set_a, args.set_b

    if name_a in ws.intervals or name_b in ws.intervals:
        a, b = _unions(ws, name_a, name_b)
        if not args.population:
            raise ParameterError("interval estimation needs --population")
        population = _named(ws.intervals, "interval", args.population)
        exact = continuous.interval_average_metric
    else:
        a, b = _sets(ws, name_a, name_b)
        population = (_named(ws.sets, "set", args.population) if args.population
                      else ws.registry.universe())
        exact = partial(average_metric, ws.metric)
    plan = continuous.SamplePlan(population, n=args.n, seed=args.seed, mode=args.mode)
    # an interval plan ignores the metric
    result = continuous.estimate_average_metric(a, b, plan, metric=ws.metric)
    reference = exact(a, b)

    print(f"estimate {format_scalar(result.value)}")
    print(f"sample_a {result.size_a}")
    print(f"sample_b {result.size_b}")
    print(f"reference {format_scalar(reference)}")
    # against a reference of 0 or inf: 0 for the same value, else 1, the limit
    rel = (abs(result.value - reference) / abs(reference) if 0 < abs(reference) < math.inf
           else float(result.value != reference))
    print(f"relative_error {format_scalar(rel)}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_family_options(sub: argparse.ArgumentParser, families: Collection[str]) -> None:
    sub.add_argument("--family", required=True, choices=families)
    sub.add_argument("--p", type=float, default=1.0,
                     help="order of the outer mean ('inf', '-inf', '0' for limits)")
    sub.add_argument("--q", type=float, default=1.0,
                     help="order of the inner mean")
    sub.add_argument("--r", type=float, default=1.0,
                     help="order of the outermost (sidewise) mean")
    sub.add_argument("--i", type=int, choices=(0, 1), default=1, help="outer mean kind")
    sub.add_argument("--j", type=int, choices=(0, 1), default=1, help="inner mean kind")
    sub.add_argument("--k", type=int, choices=(0, 1), default=1, help="outermost mean kind")
    sub.add_argument("--lam", type=float, default=None,
                     help="discrete scale for the closed forms (defaults to the "
                          "workspace metric's scale)")
    sub.add_argument("--nu", type=float, default=0.5, help="log-cardinality exponent")
    if "fuzzy" in families:
        sub.add_argument("--alpha-grid", type=_alpha_grid, default=DEFAULT_ALPHA_GRID,
                         help="comma-separated alpha levels for family fuzzy")
        sub.add_argument("--alpha-weight", type=float, default=1.0,
                         help="weight of the |alpha - beta| term for family fuzzy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setmetric",
        description="Distances between finite sets, their generalizations, "
                    "and a randomized metric-axiom verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distance between two named operands")
    p_dist.add_argument("--workspace", required=True)
    _add_family_options(p_dist, FAMILIES)
    p_dist.add_argument("set_a")
    p_dist.add_argument("set_b")
    p_dist.set_defaults(func=cmd_dist)

    p_matrix = sub.add_parser("matrix", help="pairwise distance matrix as CSV")
    p_matrix.add_argument("--workspace", required=True)
    _add_family_options(p_matrix, FAMILIES)
    p_matrix.add_argument("sets", nargs="+")
    p_matrix.set_defaults(func=cmd_matrix)

    p_axioms = sub.add_parser("axioms", help="randomized metric-axiom check")
    source = p_axioms.add_mutually_exclusive_group(required=True)
    source.add_argument("--workspace")
    source.add_argument("--random", action="store_true",
                        help="sample over a random plane pool instead of a workspace")
    # the finite-set families: the samplers draw finite sets
    _add_family_options(p_axioms, [name for name, family in FAMILIES.items()
                                   if family.operands is _sets])
    p_axioms.add_argument("--n", type=int, default=1000,
                          help=f"sampled triples, from 1 to {MAX_TRIPLES:,}")
    p_axioms.add_argument("--seed", type=int, default=0)
    p_axioms.add_argument("--tolerance", type=float, default=1e-9)
    p_axioms.add_argument("--dim", type=int, default=2,
                          help=f"point dimension; --pool x --dim at most {MAX_COORDINATES:,}")
    p_axioms.add_argument("--pool", type=int, default=12, help="random pool size")
    p_axioms.add_argument("--sizes", default="1:8", help="set size range LO:HI")
    p_axioms.add_argument("--fixture", choices=["chained-overlap"],
                          help="structured sampler instead of independent subsets")
    p_axioms.add_argument("--partial", action="store_true",
                          help="check the partial-metric axiom set "
                               "(M1, M3, M4, partial triangle)")
    p_axioms.add_argument("--json", action="store_true")
    p_axioms.set_defaults(func=cmd_axioms)

    p_verify = sub.add_parser("verify", help="run the identity verification suites")
    p_verify.add_argument("--suite", default="all", choices=["all", *SUITE_NAMES])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_est = sub.add_parser("estimate", help="sampled estimate of the set metric")
    p_est.add_argument("--workspace", required=True)
    p_est.add_argument("set_a")
    p_est.add_argument("set_b")
    p_est.add_argument("--population", help="named superset to sample from")
    p_est.add_argument("--n", type=int, default=10000,
                       help=f"sample count, from 1 to {MAX_SAMPLES:,}")
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--mode", choices=["random", "systematic"], default="random")
    p_est.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WorkspaceError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
