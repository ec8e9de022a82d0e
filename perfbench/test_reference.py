"""The benchmark's references against hand-worked cases from the paper.

    python3 -m pytest perfbench
"""

import json
import math

import numpy as np
import pytest

import reference as R
import run
import tracing
import workloads

LINE = {"metric": {"kind": "euclidean"},
        "elements": {str(x): [float(x), 0.0, 0.0] for x in range(10)}}


@pytest.fixture
def line():
    return R.ground_block(LINE)


def test_singleton_distance_equals_ground_distance(line):
    assert R.average_metric(["2"], ["7"], line) == 5.0
    assert R.hausdorff(["2"], ["7"], line) == 5.0
    assert R.nested2([["2"]], [["7"]], line) == 5.0


def test_discrete_ground_metric_gives_jaccard():
    discrete = R.discrete_block()
    assert R.average_metric(["1", "2"], ["2", "3"], discrete) == pytest.approx(2 / 3, abs=1e-15)
    assert R.average_metric(["1", "2", "3", "4"], ["3", "4", "5"], discrete) == pytest.approx(3 / 5, abs=1e-15)


def test_disjoint_sets_f_equals_g(line):
    a, b = ["0", "1", "4"], ["6", "9"]
    assert R.average_metric(a, b, line) == pytest.approx(R.group_average(a, b, line), rel=1e-15)
    assert R.group_average(a, b, line) == pytest.approx((6 + 9 + 5 + 8 + 2 + 5) / 6, rel=1e-15)


def test_twice_sidewise_equals_f_at_arithmetic_orders(line):
    a, b = ["0", "1", "2", "5"], ["2", "5", "8"]
    f = R.average_metric(a, b, line)
    assert 2 * R.sidewise(a, b, line, 1.0, 1.0, 1.0) == pytest.approx(f, rel=1e-14)
    assert R.pointwise(a, b, line, 1.0, 1.0) == pytest.approx(f, rel=1e-14)


def test_pointwise_max_of_min_is_hausdorff(line):
    a, b = ["0", "3"], ["0", "1", "9"]
    assert R.pointwise(a, b, line, math.inf, -math.inf) == R.hausdorff(a, b, line) == 6.0


def test_readme_interval_example_gives_two():
    assert R.interval_metric([[0, 1]], [[2, 3]]) == 2.0


def test_interval_containment_and_steinhaus():
    # B = [1,2] inside A = [0,3]: I(A\B, B) = 2, mu(A∪B) = 3, mu(B) = 1
    assert R.interval_metric([[0, 3]], [[1, 2]]) == pytest.approx(2 / 3, rel=1e-15)
    assert R.abs_integral([[0, 1]], [[0, 1]]) == pytest.approx(1 / 3, rel=1e-15)
    assert R.steinhaus([[0, 2]], [[1, 3]]) == pytest.approx(2 / 3, rel=1e-15)
    assert R.steinhaus([[0, 1], [5, 6]], [[5, 6], [0, 1]]) == 0.0


def test_checks_flag_wrong_outputs(line):
    names = ["A", "B", "C"]
    sets = {"A": ["0"], "B": ["1"], "C": ["3"]}
    check = workloads.expect_matrix(names, lambda a, b: R.average_metric(sets[a], sets[b], line))
    good = ",A,B,C\nA,0,1,3\nB,1,0,2\nC,3,2,0\n"
    assert check(good) == []
    assert check(good.replace("B,1,0,2", "B,1,0,2.5"))
    assert R.metric_violations(names, np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0.0]]))
    row = "[interval] PASS x: max_dev=1e-3 tol=1e-9"
    assert any("deviates" in p for p in workloads.check_verify(row + "\nverify: 1/1 checks passed\n"))


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    traced = set(tracing.per_layer({}, {}, 1.0, 1.0, 1.0)) | {"cli.import_s", "cli.numpy_import_s"}
    traced |= {f"layer.{case}" for case in (
        "average_metric_n1000_s", "hausdorff_n1000_s", "pointwise_n1000_s", "matrix_metric_150_s")}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: tracing.unit(n) for n in traced}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracing_records_spans_and_undo_restores_the_package():
    import contextlib
    import importlib
    import io
    import sys

    sys.path.insert(0, str(run.SRC))
    mods = {name: importlib.import_module(f"setmetric.{name}") for name in tracing.MODULES}
    before = {name: dict(vars(m)) for name, m in mods.items()}
    init = mods["core"].FiniteSet.__init__
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer, mods)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = mods["cli"].main(["axioms", "--random", "--family", "f", "--n", "3"])
    finally:
        patches.undo()
    agg = tracing.aggregate(tracer.names, tracer.spans())
    assert code == 0
    assert agg["cli.main"]["calls"] == 1 and agg["axioms.check"]["calls"] == 1
    assert agg["axioms.sample"]["calls"] == 4  # the point registry and three triples
    assert tracer.counters["axioms.dist_calls"][0] > 0
    assert {name: dict(vars(m)) for name, m in mods.items()} == before
    assert mods["core"].FiniteSet.__init__ is init
