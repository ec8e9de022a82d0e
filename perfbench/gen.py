"""Seeded input generator: writes the workspace JSON files each workload reads.

The shapes are fixed (set sizes, overlaps, part counts); the seed only moves
coordinates, member choices and interval endpoints. Cost per run therefore
does not depend on the seed, which keeps run-to-run spread down to machine
noise. Run directly to inspect the files:

    python3 perfbench/gen.py --workload finite-matrix --seed 1 --out perfbench/out/inspect
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

# finite-matrix: one Euclidean workspace of 3-d points ...
CLUSTER_A = 1600  # points in the unit cube
CLUSTER_B = 300  # a far cluster, for sets disjoint from everything in A
# ... and one explicit distance table.
TABLE_IDS = 150

# continuous-estimate
UNION_PARTS = {"U3": 3, "U24": 24, "U60": 60, "U250": 250}
POPULATION = (0.0, 100.0)
FINITE_POOL = 600
FUZZY_SIZE = 30


def point(rng: random.Random, x0: float = 0.0) -> list[float]:
    return [x0 + rng.random(), rng.random(), rng.random()]


def l1_table(rng: random.Random, n: int) -> tuple[list[str], list[list[float]]]:
    """Ids t0..t(n-1) and their L1 distances as 3-d points: a metric table
    with no zero between distinct ids."""
    pts = [point(rng) for _ in range(n)]
    values = [[sum(abs(p - q) for p, q in zip(a, b)) for b in pts] for a in pts]
    return [f"t{k}" for k in range(n)], values


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def finite_matrix(rng: random.Random, out: Path) -> dict[str, str]:
    a_ids = [f"a{k}" for k in range(CLUSTER_A)]
    b_ids = [f"b{k}" for k in range(CLUSTER_B)]
    elements = {eid: point(rng) for eid in a_ids}
    elements.update({eid: point(rng, 3.0) for eid in b_ids})
    rng.shuffle(a_ids)
    rng.shuffle(b_ids)
    large = a_ids[:1000]
    sets = {
        "L1000": large,
        "N300": large[:300],  # nested in L1000
        # half of H400 lies in N300 (so in L1000), the other half outside L1000
        "H400": large[100:300] + a_ids[1000:1200],
        "S50": large[:50],  # nested in N300, disjoint from H400
        "D200": b_ids[:200],  # disjoint from every other set
        # small overlapping sets for the level-2 (fk) operands
        "K60": a_ids[1200:1260],
        "K80": a_ids[1230:1310],
        "K100": a_ids[1290:1390],
    }

    t_ids, values = l1_table(rng, TABLE_IDS)
    order = t_ids[:]
    rng.shuffle(order)
    table_sets = {
        "T100": order[:100],
        "T70": order[50:120],  # half of T100 lies in T70
        "T50": order[:50],  # nested in T100
        "T30": order[120:150],  # disjoint from T100 and T70
    }
    return {
        "points": _write(out / "points.json", {
            "metric": {"kind": "euclidean"}, "elements": elements, "sets": sets,
        }),
        "table": _write(out / "table.json", {
            "metric": {"kind": "matrix", "ids": t_ids, "values": values},
            "elements": {eid: None for eid in t_ids},
            "sets": table_sets,
        }),
    }


def _disjoint_parts(rng: random.Random, count: int, lo: float, hi: float) -> list[list[float]]:
    # 2*count sorted draws paired up give `count` disjoint parts
    cuts = sorted(rng.uniform(lo, hi) for _ in range(2 * count))
    return [[cuts[2 * k], cuts[2 * k + 1]] for k in range(count)]


def continuous_estimate(rng: random.Random, out: Path) -> dict[str, str]:
    lo, hi = POPULATION
    intervals = {name: _disjoint_parts(rng, parts, lo, hi) for name, parts in UNION_PARTS.items()}
    intervals["POP"] = [[lo, hi]]
    x1, x2, x3, x4 = sorted(rng.uniform(lo, hi) for _ in range(4))
    # single intervals [xi, xj]: among their pairs every containment case occurs
    intervals.update({
        "I12": [[x1, x2]], "I34": [[x3, x4]],  # disjoint
        "I13": [[x1, x3]], "I24": [[x2, x4]],  # overlapping, neither contains
        "I14": [[x1, x4]], "I23": [[x2, x3]],  # proper containment
    })

    q_ids = [f"q{k}" for k in range(FINITE_POOL)]
    elements = {eid: point(rng) for eid in q_ids}
    order = q_ids[:]
    rng.shuffle(order)
    sets = {
        "FA": order[:240],
        "FB": order[120:360],  # half overlap with FA
        "FP": q_ids,
    }
    fuzzy = {}
    for k, name in enumerate(("F1", "F2", "F3")):
        members = order[360 + 10 * k: 360 + 10 * k + FUZZY_SIZE]  # consecutive sets share 20 ids
        fuzzy[name] = {eid: round(rng.uniform(0.05, 1.0), 3) for eid in members}
        fuzzy[name][members[0]] = 1.0  # every fuzzy set is normal
    return {
        "continuous": _write(out / "continuous.json", {
            "metric": {"kind": "euclidean"}, "elements": elements, "sets": sets,
            "intervals": intervals, "fuzzy": fuzzy,
        }),
    }


GENERATORS = {
    "finite-matrix": finite_matrix,
    "verify-suites": lambda rng, out: {},  # no workspace: the CLI's own --seed drives it
    "continuous-estimate": continuous_estimate,
}


def generate(workload: str, seed: int, out: Path) -> dict[str, str]:
    """Write the workload's workspace files under ``out``; return name -> path."""
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"), out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for name, path in generate(args.workload, args.seed, Path(args.out)).items():
        print(name, path)


if __name__ == "__main__":
    main()
