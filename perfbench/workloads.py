"""The three workloads: the CLI invocations of one round, the set-up probes,
and the check every output must pass.

Each check compares the program's output with ``reference`` (computed apart
from the program) or with a metric property, never with a stored copy of an
earlier output. A check returns the list of problems it found.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as R

Check = Callable[[str], list]

# Sampled estimates must land this close to the exact value (relative).
# Worst seen over seeds 0-99: random 0.0085, systematic 0.00023, finite 0.0087.
ESTIMATE_BOUND = 0.05
ESTIMATE_N = 100_000
FINITE_ESTIMATE_N = 3000


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``python -m setmetric <argv>``."""

    argv: tuple[str, ...]
    check: Check
    exit_code: int = 0


@dataclass(frozen=True)
class Workload:
    probes: tuple[Op, ...]  # set-up: load every workspace, do trivial work
    ops: tuple[Op, ...]  # one round


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def parse_matrix(text: str, names: list[str]) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != [""] + names or [r[0] for r in rows[1:]] != names:
        raise ValueError(f"matrix labels {rows[0]} do not match {names}")
    return np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def expect_matrix(names: list[str], pair: Callable[[str, str], float] | None,
                  metric: bool = True) -> Check:
    """Every cell matches ``pair`` (when given); with ``metric``, the matrix
    also has a zero diagonal, symmetry, positive off-diagonal cells and the
    triangle inequality over all triples."""
    expected = None
    if pair is not None:
        expected = np.array([[pair(a, b) for b in names] for a in names])

    def check(out: str) -> list:
        d = parse_matrix(out, names)
        problems = R.metric_violations(names, d) if metric else []
        if expected is not None:
            for i, a in enumerate(names):
                for j, b in enumerate(names):
                    if not R.close(d[i, j], expected[i, j]):
                        problems.append(f"({a},{b}) = {d[i, j]:.12g}, reference {expected[i, j]:.12g}")
        return problems

    return check


def expect_scalar(value: float) -> Check:
    def check(out: str) -> list:
        got = float(out)
        return [] if R.close(got, value) else [f"printed {got!r}, reference {value!r}"]

    return check


def expect_text(text: str) -> Check:
    return lambda out: [] if out == text else [f"printed {out!r}, expected {text!r}"]


def expect_estimate(exact: float, sizes: tuple) -> Check:
    """The ``reference`` line is the exact value, the estimate is within
    ESTIMATE_BOUND of it, ``relative_error`` agrees with both, and each
    sample size lies within (expected, slack) of ``sizes``."""

    def check(out: str) -> list:
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        est, ref = float(fields["estimate"]), float(fields["reference"])
        rel = float(fields["relative_error"])
        problems = []
        if not R.close(ref, exact):
            problems.append(f"reference {ref!r}, exact {exact!r}")
        if not abs(est - exact) / exact <= ESTIMATE_BOUND:
            problems.append(f"estimate {est!r} is off the exact {exact!r} by more than {ESTIMATE_BOUND}")
        if not abs(rel - abs(est - ref) / ref) <= 1e-9:
            problems.append(f"relative_error {rel!r} disagrees with the printed values")
        for key, (expected, slack) in zip(("sample_a", "sample_b"), sizes):
            size = int(fields[key])
            if not size > 0 or abs(size - expected) > slack:
                problems.append(f"{key} {size}, expected {expected:.1f} +- {slack:.1f}")
        return problems

    return check


def binomial_size(n: int, p: float, extra: float = 0.0) -> tuple[float, float]:
    """Expected count of n Bernoulli(p) trials, with a slack of 8 standard
    deviations plus ``extra``."""
    return n * p, 8 * math.sqrt(n * p * (1 - p)) + extra


VERIFY_ROWS = {"identities": 9, "appendixA": 1, "appendixB": 7, "duality": 5, "interval": 4}
VERIFY_ROW = re.compile(r"\[(\w+)\] (PASS|FAIL) (.+): max_dev=(\S+) tol=(\S+)$")


def check_verify(out: str) -> list:
    lines = out.splitlines()
    total = sum(VERIFY_ROWS.values())
    problems = []
    seen: dict[str, int] = {}
    for line in lines[:-1]:
        m = VERIFY_ROW.match(line)
        if not m:
            problems.append(f"unparsed verify line {line!r}")
            continue
        suite, status, name, dev, tol = m.groups()
        seen[suite] = seen.get(suite, 0) + 1
        if status != "PASS" or not float(dev) <= float(tol):
            problems.append(f"{suite}: {name} deviates by {dev} > {tol}")
    if seen != VERIFY_ROWS:
        problems.append(f"rows per suite {seen}, expected {VERIFY_ROWS}")
    if lines[-1:] != [f"verify: {total}/{total} checks passed"]:
        problems.append(f"summary line {lines[-1:]!r}")
    return problems


def expect_axioms_clean(family: str, n: int) -> Check:
    return expect_text(
        f"family={family} checked={n} tolerance=1e-09 axioms=M1,M2,M3,M4,M5\n"
        "violations: none\n"
    )


def check_semi_metric_fails_triangle(out: str) -> list:
    # The semi-metric e is not triangular: chained-overlap triples must show
    # M5 violations, and only M5.
    counts = dict(re.findall(r"^violations\[(\S+)\] = (\d+)$", out, re.M))
    worst = re.search(r"^worst: M5 magnitude=(\S+)$", out, re.M)
    if set(counts) != {"M5"} or int(counts["M5"]) < 1:
        return [f"expected M5 violations only, got {counts}"]
    if not worst or not float(worst.group(1)) > 1e-9:
        return ["no M5 witness above the tolerance"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _probe(path: str, set_name: str) -> Op:
    # import, parse, load_workspace (with its validation), then a Jaccard
    # distance of a set to itself
    return Op(("dist", "--workspace", path, "--family", "j", set_name, set_name), expect_text("0\n"))


def finite_matrix(files: dict, seed: int) -> Workload:
    points, table = files["points"], files["table"]
    ws = _load(points)
    sets, block = ws["sets"], R.ground_block(ws)
    tws = _load(table)
    tsets, tblock = tws["sets"], R.ground_block(tws)

    # Pairs run from nested through half overlap to disjoint. Only f meets
    # the 1000-member set: g and h cost |A||B| per ordered pair, diagonal too.
    big = ["L1000", "H400", "N300", "S50"]
    g_sets = ["H400", "D200", "S50"]
    h_sets = ["H400", "N300", "S50"]
    nested = ["K60,K80", "K80,K100", "K60,K80,K100"]
    tnames = ["T100", "T70", "T50", "T30"]

    def on(sets_, fn, *extra):
        return lambda a, b: fn(sets_[a], sets_[b], *extra)

    def operand(text):
        return [sets[name] for name in text.split(",")]

    def matrix(path, family, names, *flags):
        return ("matrix", "--workspace", path, "--family", family, *flags, *names)

    ops = (
        Op(matrix(points, "f", big), expect_matrix(big, on(sets, R.average_metric, block))),
        Op(matrix(points, "g", g_sets),
           expect_matrix(g_sets, on(sets, R.group_average, block), metric=False)),
        Op(matrix(points, "h", h_sets), expect_matrix(h_sets, on(sets, R.hausdorff, block))),
        # u at non-arithmetic orders: quadratic outer mean, harmonic inner mean
        Op(matrix(points, "u", h_sets, "--p", "2", "--q=-1"),
           expect_matrix(h_sets, on(sets, R.pointwise, block, 2.0, -1.0), metric=False)),
        Op(matrix(points, "fk", nested),
           expect_matrix(nested, lambda a, b: R.nested2(operand(a), operand(b), block))),
        Op(matrix(table, "f", tnames), expect_matrix(tnames, on(tsets, R.average_metric, tblock))),
    )
    return Workload((_probe(points, "S50"), _probe(table, "T30")), ops)


def verify_suites(files: dict, seed: int) -> Workload:
    s = str(seed)
    probe = Op(("axioms", "--random", "--family", "j", "--n", "1", "--seed", s),
               expect_axioms_clean("j", 1))
    ops = (
        Op(("verify", "--seed", s), check_verify),
        Op(("axioms", "--random", "--family", "f", "--seed", s), expect_axioms_clean("f", 1000)),
        Op(("axioms", "--random", "--family", "h", "--seed", s), expect_axioms_clean("h", 1000)),
        Op(("axioms", "--random", "--family", "e", "--fixture", "chained-overlap", "--seed", s),
           check_semi_metric_fails_triangle, exit_code=1),
    )
    return Workload((probe,), ops)


def continuous_estimate(files: dict, seed: int) -> Workload:
    path = files["continuous"]
    ws = _load(path)
    iv, sets, block = ws["intervals"], ws["sets"], R.ground_block(ws)
    pop = R.measure(iv["POP"])
    s = str(seed)

    def estimate(a, b, mode):
        return Op(
            ("estimate", "--workspace", path, a, b, "--population", "POP",
             "--n", str(ESTIMATE_N), "--seed", s, "--mode", mode),
            # a systematic grid puts up to one point more or less in each part
            expect_estimate(R.interval_metric(iv[a], iv[b]), tuple(
                binomial_size(ESTIMATE_N, R.measure(iv[x]) / pop, len(iv[x]) + 1) for x in (a, b)
            )),
        )

    def interval_pair(a, b):
        (lo_a, hi_a), (lo_b, hi_b) = iv[a][0], iv[b][0]
        if (lo_a <= lo_b and hi_b <= hi_a) or (lo_b <= lo_a and hi_a <= hi_b):
            return R.interval_metric(iv[a], iv[b])  # containment, equality included
        return abs((lo_a + hi_a) / 2 - (lo_b + hi_b) / 2)  # the distance of the centres

    unions = ["U3", "U24", "U60", "U250"]
    # pairs: disjoint, overlapping, proper containment, containment with a
    # shared endpoint, and equal (the diagonal)
    singles = ["I12", "I34", "I13", "I24", "I14", "I23"]
    fuzzy = ["F1", "F2", "F3"]
    reached = 1 - (1 - 1 / len(sets["FP"])) ** FINITE_ESTIMATE_N
    ops = (
        estimate("U250", "U60", "random"),
        estimate("U24", "U250", "systematic"),
        Op(("matrix", "--workspace", path, "--family", "steinhaus", *unions),
           expect_matrix(unions, lambda a, b: R.steinhaus(iv[a], iv[b]))),
        Op(("matrix", "--workspace", path, "--family", "interval", *singles),
           expect_matrix(singles, interval_pair)),
        Op(("dist", "--workspace", path, "--family", "interval", "I14", "I23"),
           expect_scalar(interval_pair("I14", "I23"))),
        Op(("matrix", "--workspace", path, "--family", "fuzzy", *fuzzy), expect_matrix(fuzzy, None)),
        Op(("estimate", "--workspace", path, "FA", "FB", "--population", "FP",
            "--n", str(FINITE_ESTIMATE_N), "--seed", s),
           # n draws with replacement from N ids reach each id with chance 1 - (1 - 1/N)^n
           expect_estimate(R.average_metric(sets["FA"], sets["FB"], block), tuple(
               binomial_size(len(sets[x]), reached, 1) for x in ("FA", "FB")
           ))),
    )
    return Workload((_probe(path, "FA"),), ops)


WORKLOADS = {
    "finite-matrix": finite_matrix,
    "verify-suites": verify_suites,
    "continuous-estimate": continuous_estimate,
}
