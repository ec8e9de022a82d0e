"""CLI contract: exit codes, output formats, determinism."""

import csv
import json
import math
import subprocess
import sys

import pytest

WORKSPACE = {
    "metric": {"kind": "discrete", "lambda": 1.0},
    "elements": {"1": None, "2": None, "3": None, "4": None},
    "sets": {"A": ["1", "2"], "B": ["2", "3"], "C": ["3", "4"], "EMPTY": []},
    "intervals": {
        "I": [[0, 1]],
        "J": [[2, 3]],
        "K": [[0, 2]],
        "L": [[1, 3]],
        "TWO": [[0, 1], [5, 6]],
    },
    "fuzzy": {"FA": {"1": 1.0, "2": 0.5}, "FB": {"2": 1.0, "3": 0.5}},
}

ESTIMATE_WORKSPACE = {
    "metric": {"kind": "euclidean"},
    "elements": {},
    "intervals": {"A": [[0, 1]], "B": [[0.5, 1.5]], "P": [[0, 1.5]]},
}


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "setmetric", *argv],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    path = tmp_path_factory.mktemp("ws") / "workspace.json"
    path.write_text(json.dumps(WORKSPACE))
    return str(path)


@pytest.fixture(scope="module")
def est_ws(tmp_path_factory):
    path = tmp_path_factory.mktemp("ws") / "estimate.json"
    path.write_text(json.dumps(ESTIMATE_WORKSPACE))
    return str(path)


class TestDist:
    def test_discrete_average_metric_prints_12_digits(self, ws):
        result = run_cli("dist", "--workspace", ws, "--family", "f", "A", "B")
        assert result.returncode == 0
        assert result.stdout == "0.666666666667\n"

    def test_equal_sets_print_zero(self, ws):
        result = run_cli("dist", "--workspace", ws, "--family", "f", "A", "A")
        assert result.returncode == 0
        assert result.stdout == "0\n"

    def test_interval_center_distance(self, ws):
        result = run_cli("dist", "--workspace", ws, "--family", "interval", "I", "J")
        assert result.returncode == 0
        assert result.stdout == "2\n"

    def test_steinhaus(self, ws):
        result = run_cli("dist", "--workspace", ws, "--family", "steinhaus", "K", "L")
        assert result.stdout == "0.666666666667\n"

    def test_fuzzy(self, ws):
        result = run_cli("dist", "--workspace", ws, "--family", "fuzzy", "FA", "FB",
                         "--alpha-grid", "0.5,1.0", "--alpha-weight", "0")
        assert result.returncode == 0
        assert float(result.stdout) > 0

    def test_nested_family_level_two(self, ws):
        result = run_cli("dist", "--workspace", ws, "--family", "fk", "A,B", "B,C")
        assert result.returncode == 0
        assert float(result.stdout) > 0

    def test_nested_level_one_matches_f(self, ws):
        nested = run_cli("dist", "--workspace", ws, "--family", "fk", "A", "B")
        flat = run_cli("dist", "--workspace", ws, "--family", "f", "A", "B")
        assert nested.stdout == flat.stdout

    def test_unresolved_name_exits_2(self, ws):
        result = run_cli("dist", "--workspace", ws, "--family", "f", "A", "NOPE")
        assert result.returncode == 2
        assert "NOPE" in result.stderr

    def test_empty_set_is_domain_error_exit_3(self, ws):
        result = run_cli("dist", "--workspace", ws, "--family", "f", "A", "EMPTY")
        assert result.returncode == 3
        assert "non-empty" in result.stderr

    def test_invalid_params_exit_2(self, ws):
        result = run_cli("dist", "--workspace", ws, "--family", "dnu",
                         "--nu", "0.9", "A", "B")
        assert result.returncode == 2

    def test_multipart_union_rejected_for_interval_family(self, ws):
        result = run_cli("dist", "--workspace", ws, "--family", "interval", "I", "TWO")
        assert result.returncode == 2

    def test_both_interval_names_are_resolved_before_the_part_check(self, ws):
        result = run_cli("dist", "--workspace", ws, "--family", "interval", "TWO", "NOPE")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: unknown interval name 'NOPE'\n"

    def test_extended_real_literals(self, ws):
        # negative literals need the --opt=value form ('-inf' looks like a flag)
        result = run_cli("dist", "--workspace", ws, "--family", "u",
                         "--p", "inf", "--q=-inf", "A", "B")
        assert result.returncode == 0
        assert result.stdout == "1\n"  # hausdorff under the discrete metric


# each of these printed nan and exited 0
@pytest.mark.parametrize("argv, message", [
    (["--family", "u", "--p", "nan", "A", "B"], "argument --p: expected a number"),
    (["--family", "u00", "--p", "nan", "A", "B"], "argument --p: expected a number"),
    (["--family", "v", "--q", "nan", "A", "B"], "argument --q: expected a number"),
    (["--family", "v", "--r", "NaN", "A", "B"], "argument --r: expected a number"),
    (["--family", "fuzzy", "--alpha-weight", "nan", "FA", "FB"], "alpha weight must be finite"),
    (["--family", "fuzzy", "--alpha-weight", "inf", "FA", "FB"], "alpha weight must be finite"),
    # an infinite discrete scale printed inf and 0.405465108108
    (["--family", "u00", "--lam", "inf", "A", "B"], "discrete scale must be finite and positive"),
    (["--family", "v000", "--p=-1", "--lam", "inf", "A", "B"],
     "discrete scale must be finite and positive"),
])
def test_nan_and_infinite_parameters_exit_2(ws, argv, message):
    result = run_cli("dist", "--workspace", ws, *argv)
    assert (result.returncode, result.stdout) == (2, "")
    assert message in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("doc, argv", [
    ({"elements": [1, 2]}, ["--family", "f", "A", "B"]),
    ({"sets": ["A"]}, ["--family", "f", "A", "B"]),
    ({"sets": {"A": [["a"]]}}, ["--family", "f", "A", "B"]),
    ({"intervals": [[0, 1]]}, ["--family", "steinhaus", "I", "J"]),
    ({"fuzzy": "FA"}, ["--family", "fuzzy", "FA", "FB"]),
    ({"metric": {"kind": "lp", "p": "x"}}, ["--family", "f", "A", "B"]),
    ({"intervals": {"I": [[0, "inf"]], "J": [[0, 1]]}}, ["--family", "steinhaus", "I", "J"]),
    ({"intervals": {"I": [["nan", 1]], "J": [[0, 1]]}}, ["--family", "steinhaus", "I", "J"]),
    ({"metric": {"kind": "lp", "p": "inf"}}, ["--family", "f", "A", "B"]),
    ({"metric": {"kind": "matrix", "ids": ["a", "b"], "values": [[0, math.nan], [math.nan, 0]]}},
     ["--family", "f", "A", "B"]),
    ({"metric": {"kind": "matrix", "ids": ["a", "b"], "values": [[0, math.inf], [math.inf, 0]]},
      "elements": {"a": None, "b": None}, "sets": {"A": ["a"], "B": ["b"]}},
     ["--family", "f", "A", "B"]),
    ({"elements": {"a": [0.0, math.nan], "b": [1.0, 1.0]}, "sets": {"A": ["a"], "B": ["b"]}},
     ["--family", "f", "A", "B"]),
    # infinite and empty coordinates: the distance printed nan and 0
    ({"elements": {"a": [math.inf], "b": [math.inf]}, "sets": {"A": ["a"], "B": ["b"]}},
     ["--family", "f", "A", "B"]),
    ({"elements": {"a": [], "b": []}, "sets": {"A": ["a"], "B": ["b"]}},
     ["--family", "f", "A", "B"]),
])
def test_malformed_workspace_exits_2(tmp_path, doc, argv):
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc))
    result = run_cli("dist", "--workspace", str(path), *argv)
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


# f printed inf, and u exited 2 with the misleading "mean of a NaN value"
@pytest.mark.parametrize("argv", [
    ["--family", "f", "A", "B"],
    ["--family", "u", "--p", "2", "--q=-1", "A", "B"],
])
def test_infinite_discrete_scale_exits_2(tmp_path, argv):
    doc = {
        "metric": {"kind": "discrete", "lambda": math.inf},
        "elements": {"a": None, "b": None, "c": None},
        "sets": {"A": ["a", "b"], "B": ["b", "c"]},
    }
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc))
    result = run_cli("dist", "--workspace", str(path), *argv)
    assert (result.returncode, result.stdout) == (2, "")
    assert "discrete scale must be finite and positive" in result.stderr


def test_mean_composition_over_extreme_distances(tmp_path):
    # the inner quadratic mean of x's distances, 1e-300 and 1e300, once
    # ended in a math domain error traceback
    doc = {
        "metric": {"kind": "euclidean"},
        "elements": {"a": [1e-300], "b": [1e300], "x": [0.0]},
        "sets": {"A": ["x"], "B": ["a", "b"]},
    }
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc))
    result = run_cli("dist", "--workspace", str(path), "--family", "u", "--q", "2", "A", "B")
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    assert float(result.stdout) == pytest.approx((1e300 + 1e300 / 2**0.5 + 1e-300) / 3)


def test_exponential_inner_mean_at_an_overflowing_order(tmp_path):
    # q * d overflows for every distance: the inner means are at their limit,
    # the maximum; this exited 2 with "mean of a NaN value"
    doc = {
        "metric": {"kind": "euclidean"},
        "elements": {"x": [0.0], "a": [1e9], "b": [2e9]},
        "sets": {"A": ["x"], "B": ["a", "b"]},
    }
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc))
    result = run_cli("dist", "--workspace", str(path), "--family", "u", "--j", "0",
                     "--q", "1e300", "A", "B")
    assert (result.returncode, result.stderr) == (0, "")
    assert float(result.stdout) == pytest.approx((2e9 + 1e9 + 2e9) / 3)


# math.dist overflows to inf between 1.7e308 and -1.7e308: the exponential
# inner mean over it ran out of recursion, and the quadratic power mean
# exited 2 with "mean of a NaN value"
@pytest.mark.parametrize("argv", [["--j", "0"], ["--q", "2"]])
def test_inner_mean_over_an_infinite_distance(tmp_path, argv):
    doc = {
        "metric": {"kind": "euclidean"},
        "elements": {"a": [1.7e308], "b": [-1.7e308], "c": [0.0]},
        "sets": {"A": ["a", "c"], "B": ["b"]},
    }
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc))
    result = run_cli("dist", "--workspace", str(path), "--family", "u", *argv, "A", "B")
    assert (result.returncode, result.stdout, result.stderr) == (0, "inf\n", "")


class TestMatrix:
    def test_symmetric_zero_diagonal_csv(self, ws):
        result = run_cli("matrix", "--workspace", ws, "--family", "f", "A", "B", "C")
        assert result.returncode == 0
        rows = list(csv.reader(result.stdout.splitlines()))
        assert rows[0] == ["", "A", "B", "C"]
        names = [r[0] for r in rows[1:]]
        assert names == ["A", "B", "C"]
        values = [[float(v) for v in r[1:]] for r in rows[1:]]
        for i in range(3):
            assert values[i][i] == 0.0
            for j in range(3):
                assert values[i][j] == values[j][i]

    def test_group_average_diagonal_may_be_nonzero(self, ws):
        result = run_cli("matrix", "--workspace", ws, "--family", "g", "A", "B")
        rows = list(csv.reader(result.stdout.splitlines()))
        assert float(rows[1][1]) > 0.0  # g(A,A) = 1/2 under the discrete metric

    def test_single_name_exits_2(self, ws):
        result = run_cli("matrix", "--workspace", ws, "--family", "f", "A")
        assert result.returncode == 2


class TestAxioms:
    def test_average_metric_random_passes(self):
        result = run_cli("axioms", "--random", "--family", "f",
                         "--n", "300", "--seed", "0")
        assert result.returncode == 0
        assert "violations: none" in result.stdout

    def test_counterexample_fixture_fails_with_m5_witness(self):
        result = run_cli("axioms", "--random", "--family", "e",
                         "--fixture", "chained-overlap",
                         "--n", "100", "--seed", "1", "--json")
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert not report["ok"]
        assert any(v["axiom"] == "M5" for v in report["violations"])
        assert all(v["magnitude"] > report["tolerance"] for v in report["violations"])

    def test_partial_mode_for_log_cardinality(self):
        result = run_cli("axioms", "--random", "--family", "dnu", "--nu", "0.25",
                         "--partial", "--n", "300", "--seed", "2")
        assert result.returncode == 0

    def test_workspace_mode(self, ws):
        result = run_cli("axioms", "--workspace", ws, "--family", "f",
                         "--n", "200", "--seed", "3", "--sizes", "1:3")
        assert result.returncode == 0

    def test_needs_workspace_or_random(self):
        result = run_cli("axioms", "--family", "f")
        assert result.returncode == 2

    @pytest.mark.parametrize("flags, message", [
        (["--sizes", "0:2"], "bad --sizes '0:2'"),  # exited 3 on an empty set
        (["--sizes", "5:3"], "bad --sizes '5:3'"),  # ran as 3:3
        (["--dim", "0"], "--dim must be at least 1"),  # reported false M3 violations
    ])
    def test_bad_sizes_and_dim_exit_2(self, flags, message):
        result = run_cli("axioms", "--random", "--family", "f", "--n", "20", *flags)
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {message}")

    @pytest.mark.parametrize("flags, message", [
        (["--tolerance", "nan"], "tolerance must be non-negative, got nan"),  # passed any distance
        (["--n", "100001"], "at most 100,000 samples, got n=100001"),
        (["--pool", "100001", "--dim", "1"], "100001 points x 1 coordinates exceed 100,000"),
        (["--pool", "12", "--dim", "8334"], "12 points x 8334 coordinates exceed 100,000"),
    ])
    def test_nan_tolerance_and_resource_limits_exit_2(self, flags, message):
        result = run_cli("axioms", "--random", "--family", "f", *flags)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: {message}\n"

    def test_sizes_above_the_pool_are_clamped(self):
        result = run_cli("axioms", "--random", "--family", "f", "--n", "20",
                         "--pool", "6", "--sizes", "2:50")
        assert result.returncode == 0


class TestVerify:
    def test_full_suite_deterministic(self):
        one = run_cli("verify", "--seed", "1234")
        two = run_cli("verify", "--seed", "1234")
        assert one.returncode == 0
        assert one.stdout == two.stdout
        assert one.stdout.count("FAIL") == 0

    def test_single_suite(self):
        result = run_cli("verify", "--suite", "interval", "--seed", "7")
        assert result.returncode == 0
        assert "[interval]" in result.stdout

    def test_unknown_suite_rejected(self):
        result = run_cli("verify", "--suite", "bogus")
        assert result.returncode == 2


class TestEstimate:
    def test_interval_estimate_close_to_reference(self, est_ws):
        result = run_cli("estimate", "--workspace", est_ws, "A", "B",
                         "--population", "P", "--n", "10000", "--seed", "0")
        assert result.returncode == 0
        lines = dict(line.split(" ", 1) for line in result.stdout.splitlines())
        assert float(lines["reference"]) == 0.5
        assert abs(float(lines["estimate"]) - 0.5) / 0.5 <= 0.05
        assert int(lines["sample_a"]) > 0 and int(lines["sample_b"]) > 0
        assert float(lines["relative_error"]) <= 0.05

    def test_identical_sets_estimate_zero(self, est_ws):
        result = run_cli("estimate", "--workspace", est_ws, "A", "A",
                         "--population", "P", "--n", "100", "--seed", "0")
        lines = dict(line.split(" ", 1) for line in result.stdout.splitlines())
        assert lines["estimate"] == "0"

    def test_population_not_covering_exits_2(self, est_ws):
        result = run_cli("estimate", "--workspace", est_ws, "A", "B",
                         "--population", "A", "--n", "100", "--seed", "0")
        assert result.returncode == 2
        assert "cover" in result.stderr

    def test_missed_set_exits_3(self, est_ws):
        # population covers only the left end, so B is never hit: the
        # coverage precondition is violated and reported as a domain error
        result = run_cli("estimate", "--workspace", est_ws, "B", "B",
                         "--population", "B", "--n", "1", "--seed", "0",
                         "--mode", "systematic")
        assert result.returncode == 0  # sanity: one systematic point lands in B
        result = run_cli("estimate", "--workspace", est_ws, "A", "B",
                         "--population", "P", "--n", "1", "--seed", "3")
        assert result.returncode in (0, 3)  # a single draw may miss one side

    def test_finite_population_mode(self, ws):
        result = run_cli("estimate", "--workspace", ws, "A", "B", "--n", "500",
                         "--seed", "1")
        assert result.returncode == 0
        lines = dict(line.split(" ", 1) for line in result.stdout.splitlines())
        assert float(lines["reference"]) == pytest.approx(2 / 3)
