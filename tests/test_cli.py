"""CLI contract: exit codes, output formats, determinism."""

import csv
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from test_continuous import spaced_integral

from setmetric import (
    ParameterError,
    SamplePlan,
    estimate_average_metric,
    pointwise_mean_distance,
    random_point_registry,
    subset_triple_sampler,
)
from setmetric.workspace import load_workspace

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
    (["--family", "u", "--p", "nan", "A", "B"], "order p must be a number, inf or -inf, got nan"),
    (["--family", "u00", "--p", "nan", "A", "B"], "order p must be a number, inf or -inf, got nan"),
    (["--family", "v", "--q", "nan", "A", "B"], "order q must be a number, inf or -inf, got nan"),
    (["--family", "v", "--r", "NaN", "A", "B"], "order r must be a number, inf or -inf, got nan"),
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
    # bool("false") is True: the table loaded as a pseudo-metric and f printed 0
    ({"metric": {"kind": "matrix", "ids": ["a", "b"], "values": [[0, 0], [0, 0]], "pseudo": "false"},
      "elements": {"a": None, "b": None}, "sets": {"A": ["a"], "B": ["b"]}},
     ["--family", "f", "A", "B"]),
    # bounds beyond ±2^1022: a union measure of inf ended in a traceback
    ({"intervals": {"I": [[-1.7e308, 1.7e308]], "J": [[0, 1]]}}, ["--family", "steinhaus", "I", "J"]),
])
def test_malformed_workspace_exits_2(tmp_path, doc, argv):
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc))
    result = run_cli("dist", "--workspace", str(path), *argv)
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


TABLE_ELEMENTS = {"elements": {"a": None, "b": None}, "sets": {"A": ["a"], "B": ["b"]}}
EMPTY_POPULATIONS = {"elements": {"a": None}, "sets": {"Z": []}, "intervals": {"E": []}}
EMPTY_OPERANDS = {"elements": {"a": None}, "sets": {"Z": [], "A": ["a"]},
                  "intervals": {"E": [], "I": [[0, 1]]}}
DIST_F = ["dist", "--workspace", "{ws}", "--family", "f", "A", "B"]


# Each refusal prints its message, with no traceback, and exits with the code
# of its class. ``doc`` is the workspace text or object, None for no file;
# "{ws}" stands for its path. The message is the last line of stderr, after
# argparse's usage where argparse refuses.
@pytest.mark.parametrize("doc, argv, code, message", [
    (None, DIST_F, 2, "error: workspace file not found: {ws}"),
    ('{"a": ', DIST_F, 2,
     "error: workspace file is not valid JSON: Expecting value: line 1 column 7 (char 6)"),
    ({"metric": {"kind": "bogus"}}, DIST_F, 2, "error: unknown metric kind 'bogus'"),
    ({"metric": {"kind": "matrix", "ids": ["a", "b"]}, **TABLE_ELEMENTS}, DIST_F, 2,
     'error: matrix metric needs "ids" and "values"'),
    ({"metric": {"kind": "matrix", "ids": ["a", "a"], "values": [[0, 1], [1, 0]]}, **TABLE_ELEMENTS},
     DIST_F, 2, "error: invalid metric config: matrix metric ids must be unique"),
    ({"metric": {"kind": "matrix", "ids": ["a", "b"], "values": [[0, 1], [1]]}, **TABLE_ELEMENTS},
     DIST_F, 2, "error: invalid metric config: matrix metric table must be 2x2"),
    ({"elements": {"a": [0.0]}, "fuzzy": {"FA": ["a"]}}, DIST_F, 2,
     "error: fuzzy set 'FA' must map ids to grades"),
    ({"elements": {"a": [0.0]}, "fuzzy": {"FA": {"z": 1.0}}}, DIST_F, 2,
     "error: fuzzy set 'FA' references unknown ids ['z']"),
    (WORKSPACE, ["dist", "--workspace", "{ws}", "--family", "fuzzy", "--alpha-grid", "x", "FA", "FB"],
     2, "setmetric dist: error: argument --alpha-grid: bad alpha grid 'x'"),
    (WORKSPACE, ["dist", "--workspace", "{ws}", "--family", "fuzzy", "--alpha-grid", "2", "FA", "FB"],
     2, "error: alpha level must lie in (0, 1], got 2.0"),
    (WORKSPACE, ["dist", "--workspace", "{ws}", "--family", "fuzzy", "--alpha-grid", ",", "FA", "FB"],
     2, "error: alpha grid is empty"),
    (WORKSPACE, ["dist", "--workspace", "{ws}", "--family", "fk", ",", "A"],
     2, "error: empty nested operand ','"),
    (None, ["axioms", "--random", "--family", "f", "--sizes", "a:b"],
     2, "error: bad --sizes 'a:b', expected LO:HI"),
    (EMPTY_POPULATIONS, ["estimate", "--workspace", "{ws}", "E", "E", "--population", "E"],
     3, "domain error: sampling population has zero measure"),
    # raised a ParameterError, and exited 2
    (EMPTY_POPULATIONS, ["estimate", "--workspace", "{ws}", "Z", "Z", "--population", "Z"],
     3, "domain error: finite sampling population is empty"),
    # "sample missed a set entirely (|S∩A|=0, |S∩B|=1); increase n or fix the population"
    (EMPTY_OPERANDS, ["estimate", "--workspace", "{ws}", "Z", "A", "--population", "A"],
     3, "domain error: estimate_average_metric requires non-empty sets"),
    (EMPTY_OPERANDS, ["estimate", "--workspace", "{ws}", "E", "I", "--population", "I"],
     3, "domain error: estimate_average_metric requires non-empty sets"),
], ids=["missing-file", "invalid-json", "bogus-kind", "no-values", "duplicate-ids", "not-square",
        "fuzzy-not-object", "fuzzy-unknown-id", "alpha-grid-x", "alpha-grid-2", "alpha-grid-comma",
        "empty-nested", "sizes-a-b", "empty-interval-population", "empty-finite-population",
        "empty-finite-operand", "empty-interval-operand"])
def test_refusals_exit_cleanly(tmp_path, doc, argv, code, message):
    path = tmp_path / "workspace.json"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    result = run_cli(*(arg.format(ws=path) for arg in argv))
    assert (result.returncode, result.stdout) == (code, "")
    assert result.stderr.splitlines()[-1] == message.format(ws=path)
    assert "Traceback" not in result.stderr


# the registry refuses empty coordinates, and the loader names the element
def test_empty_coordinates_message(tmp_path):
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps({"elements": {"a": [], "b": []}, "sets": {"A": ["a"], "B": ["b"]}}))
    result = run_cli("dist", "--workspace", str(path), "--family", "f", "A", "B")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("error: element 'a' has a malformed payload: "
                             "no coordinates in the payload of 'a'\n")


# a valid pseudo-metric table of 1,001 ids loaded, in about 3 s and 100 MB
def test_table_above_the_id_limit_exits_2(tmp_path):
    doc = {
        "metric": {"kind": "matrix", "ids": [str(k) for k in range(1001)], "pseudo": True,
                   "values": [[0] * 1001] * 1001},
        "elements": {"0": None}, "sets": {"A": ["0"]},
    }
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc))
    result = run_cli("dist", "--workspace", str(path), "--family", "j", "A", "A")
    assert (result.returncode, result.stdout) == (2, "")
    assert "from 1 to 1,000 ids, got 1,001" in result.stderr


# d(a, c) = 9 > d(a, b) + d(b, c) = 3: every cell passes, the triangle check does not
TRIANGLE_FAILS = {
    "metric": {"kind": "matrix", "ids": ["a", "b", "c"],
               "values": [[0, 1, 9], [1, 0, 2], [9, 2, 0]]},
    "elements": {"a": None, "b": None, "c": None},
    "sets": {"A": ["a"], "B": ["b", "c"]},
    "fuzzy": {"FA": {"a": 1.0}, "FB": {"b": 1.0, "c": 0.5}},
}


@pytest.fixture(scope="module")
def triangle_ws(tmp_path_factory):
    path = tmp_path_factory.mktemp("ws") / "triangle.json"
    path.write_text(json.dumps(TRIANGLE_FAILS))
    return str(path)


# the table is checked for triangles only where a distance is read
@pytest.mark.parametrize("family, stdout", [("j", "1\n"), ("symdiff", "3\n")])
def test_families_that_read_no_distance_accept_a_table_failing_a_triangle(
        triangle_ws, family, stdout):
    result = run_cli("dist", "--workspace", triangle_ws, "--family", family, "A", "B")
    assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")


@pytest.mark.parametrize("argv", [
    *[["dist", "--family", family, "A", "B"] for family in ("f", "g", "e", "h", "u", "v", "fk")],
    ["dist", "--family", "fuzzy", "FA", "FB"],
    ["matrix", "--family", "f", "A", "B"],
    ["axioms", "--family", "f", "--n", "5"],
    ["estimate", "A", "B", "--n", "50"],
])
def test_a_read_of_a_table_failing_a_triangle_exits_2(triangle_ws, argv):
    result = run_cli(argv[0], "--workspace", triangle_ws, *argv[1:])
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: triangle inequality fails for ids ('a', 'b', 'c')\n"


# a limit of 10^7 pairs of parts refused this reference (10,008,338 pairs, 3.5 s on a 2-vCPU VM)
def test_interval_reference_of_2237_parts(tmp_path):
    n = 2237
    parts = [[2 * k, 2 * k + 1] for k in range(n)]
    doc = {
        "elements": {}, "sets": {},
        "intervals": {"I": parts, "J": [[lo + 0.5, hi + 0.5] for lo, hi in parts], "P": [[0, 4475]]},
    }
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc))
    result = run_cli("estimate", "--workspace", str(path), "I", "J",
                     "--n", "100", "--seed", "0", "--population", "P")
    assert (result.returncode, result.stderr) == (0, "")
    # I\J and J\I are the halves [2k, 2k + 0.5] and [2k + 1, 2k + 1.5]
    exact = (spaced_integral(n, (0, 1), (1, 1.5)) + spaced_integral(n, (0, 0.5), (0.5, 1.5))
             ) / (Fraction(3, 2) * n**2)
    assert f"reference {float(exact):.12g}\n" in result.stdout


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


# the reference f(A, B) is inf, as math.dist(a, b) is: relative_error was
# inf / inf, printed nan
def test_estimate_against_an_infinite_reference(tmp_path):
    doc = {
        "metric": {"kind": "euclidean"},
        "elements": {"a": [1.7e308], "b": [-1.7e308], "c": [0.0]},
        "sets": {"A": ["a", "c"], "B": ["b", "c"]},
    }
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc))
    result = run_cli("estimate", "--workspace", str(path), "A", "B", "--n", "50", "--seed", "0")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "estimate inf\nsample_a 2\nsample_b 2\nreference inf\nrelative_error 0\n"


# Scaled by max|x| = 1e12, the sample's prefix sums cancelled and the
# estimate printed 0.426129653343; the exact metric of the same sample is
# 0.400700023381 and the interval value 0.400024414062
def test_estimate_far_from_the_origin(tmp_path):
    o = 10.0**12
    doc = {"intervals": {"P": [[o, o + 1]], "A": [[o, o + 0.5]], "B": [[o + 0.3, o + 1]]}}
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc))
    result = run_cli("estimate", "--workspace", str(path), "A", "B", "--population", "P",
                     "--n", "20000", "--seed", "1")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[0] == "estimate 0.400700023381"


# Each mean and each average of cells of 1e308 overflowed math.fsum, a
# traceback, and loading the table printed "RuntimeWarning: overflow
# encountered in add"
@pytest.mark.parametrize("family, stdout", [
    ("u", "1e+308\n"), ("v", "5e+307\n"), ("j", "1\n"),
    ("f", "1e+308\n"), ("g", "1e+308\n"), ("e", "1e+308\n"), ("fk", "1e+308\n"),
])
def test_table_of_distances_near_the_largest_float(tmp_path, family, stdout):
    doc = {
        "metric": {"kind": "matrix", "ids": ["a", "b", "c"],
                   "values": [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]},
        "elements": {"a": None, "b": None, "c": None},
        "sets": {"A": ["a"], "B": ["b", "c"]},
    }
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc))
    result = run_cli("dist", "--workspace", str(path), "--family", family, "A", "B")
    assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")


# Every distance here is finite; the sums behind f, g and e overflowed
# math.fsum, a traceback. At ±1.7e308, math.dist(a, b) is inf, but no pair
# that e sums holds it: e printed nan, as inf - inf.
@pytest.mark.parametrize("elements, sets, family, stdout", [
    *[({"a": [1e308], "b": [-1e307], "c": [-2e307]}, {"A": ["a"], "B": ["b", "c"]},
       family, "1.15e+308\n") for family in ("f", "g", "e")],
    ({"a": [1.7e308], "b": [-1.7e308], "c": [0.0]}, {"A": ["a", "b"], "B": ["a", "b", "c"]},
     "e", "5.66666666667e+307\n"),
])
def test_euclidean_sets_near_the_largest_float(tmp_path, elements, sets, family, stdout):
    doc = {"metric": {"kind": "euclidean"}, "elements": elements, "sets": sets}
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc))
    result = run_cli("dist", "--workspace", str(path), "--family", family, "A", "B")
    assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")


EXTREME_INTERVALS = {
    "metric": {"kind": "euclidean"},
    "elements": {},
    "intervals": {"I": [[-1e300, 0]], "K": [[-1e300, 1]], "WIDE": [[-1e200, 1e200]],
                  "SHORT": [[0, 0.5]], "TINY": [[0, 1e-300]]},
}


# interval printed -inf, and estimate printed "reference inf" and
# "relative_error nan"; all exited 0. Around TINY, interval exited 3 with
# "the bounds differ too widely in scale".
@pytest.mark.parametrize("argv, stdout", [
    (["dist", "--family", "interval", "WIDE", "SHORT"], "5e+199\n"),
    (["estimate", "I", "K", "--n", "1", "--seed", "0", "--population", "K"],
     "estimate 0\nsample_a 1\nsample_b 1\nreference 0.5\nrelative_error 1\n"),
    (["dist", "--family", "interval", "TINY", "WIDE"], "5e+199\n"),
])
def test_interval_distances_at_extreme_bounds(tmp_path, argv, stdout):
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(EXTREME_INTERVALS))
    result = run_cli(argv[0], "--workspace", str(path), *argv[1:])
    assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")


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

    def test_text_report_of_violations(self):
        result = run_cli("axioms", "--random", "--family", "e", "--fixture", "chained-overlap",
                         "--n", "50", "--seed", "5")
        assert result.returncode == 1
        assert result.stdout == (
            "family=e checked=50 tolerance=1e-09 axioms=M1,M2,M3,M4,M5\n"
            "violations[M5] = 50\n"
            "worst: M5 magnitude=0.0966084558542\n"
            "  witness: {4, 8} | {4, 8, 9, 10} | {8, 9, 10}\n"
        )

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
        # --workspace was ignored
        (["--random", "--workspace", "ws.json", "--family", "f"],
         "argument --workspace: not allowed with argument --random"),
        (["--random", "--family", "fuzzy"], "argument --family: invalid choice: 'fuzzy'"),
        (["--random", "--family", "fk"], "argument --family: invalid choice: 'fk'"),
        (["--random", "--family", "f", "--alpha-weight", "2"],
         "unrecognized arguments: --alpha-weight 2"),
    ])
    def test_refused_command_lines_exit_2(self, flags, message):
        result = run_cli("axioms", *flags)
        assert (result.returncode, result.stdout) == (2, "")
        assert message in result.stderr

    @pytest.mark.parametrize("flags, message", [
        # exited 3 on an empty set
        (["--sizes", "0:2"], "subset sizes need 1 <= min_size <= max_size, got min_size=0, max_size=2"),
        # ran as 3:3
        (["--sizes", "5:3"], "subset sizes need 1 <= min_size <= max_size, got min_size=5, max_size=3"),
        (["--dim", "0"], "dimension must be >= 1, got 0"),  # reported false M3 violations
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


# Each rule below is decided by the library function that receives the
# value; the CLI prints that function's message, so no copy of the rule can
# drift back into the CLI unseen. "{ws}" stands for the workspace path.
@pytest.mark.parametrize("argv, call", [
    (["axioms", "--random", "--family", "f", "--dim", "0"],
     lambda w: random_point_registry(random.Random(0), size=12, dim=0)),
    (["axioms", "--random", "--family", "f", "--sizes", "5:3"],
     lambda w: subset_triple_sampler(random_point_registry(random.Random(0)), 5, 3)),
    (["axioms", "--random", "--family", "f", "--sizes", "0:2"],
     lambda w: subset_triple_sampler(random_point_registry(random.Random(0)), 0, 2)),
    (["estimate", "--workspace", "{ws}", "I", "K", "--population", "I"],
     lambda w: estimate_average_metric(w.intervals["I"], w.intervals["K"],
                                       SamplePlan(w.intervals["I"], n=10000))),
    (["estimate", "--workspace", "{ws}", "A", "B", "--population", "C"],
     lambda w: estimate_average_metric(w.sets["A"], w.sets["B"], SamplePlan(w.sets["C"], n=10000),
                                       metric=w.metric)),
    (["dist", "--workspace", "{ws}", "--family", "u", "--p", "nan", "A", "B"],
     lambda w: pointwise_mean_distance(w.metric, w.sets["A"], w.sets["B"], p=math.nan)),
], ids=["dim", "sizes-order", "sizes-zero", "interval-cover", "finite-cover", "nan-order"])
def test_cli_prints_the_library_refusal(ws, argv, call):
    with pytest.raises(ParameterError) as refusal:
        call(load_workspace(ws))
    result = run_cli(*(ws if arg == "{ws}" else arg for arg in argv))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {refusal.value}\n"


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

    @pytest.mark.parametrize("argv, message", [
        (["I", "J"], "interval estimation needs --population"),
        (["I", "J", "--population", "P1"],
         "sampling population does not cover the operands (uncovered measure 0.5)"),
        (["A", "B", "--population", "P"], "sampling population does not cover the operands "
                                          "(ids outside it: 1)"),
        # numpy refused the seed only when drawing, with a ValueError traceback
        (["I", "J", "--population", "P2", "--seed", "-1"], "sampling seed must be >= 0, got -1"),
        (["A", "B", "--seed", "-1"], "sampling seed must be >= 0, got -1"),
    ])
    def test_refusals_exit_2(self, tmp_path, argv, message):
        path = tmp_path / "workspace.json"
        path.write_text(json.dumps({
            "elements": {"1": None, "2": None},
            "sets": {"A": ["1"], "B": ["2"], "P": ["1"]},
            "intervals": {"I": [[0, 1]], "J": [[0.5, 1.5]], "P1": [[0, 1]], "P2": [[0, 2]]},
        }))
        result = run_cli("estimate", "--workspace", str(path), *argv, "--n", "10")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: {message}\n"

    def test_finite_population_mode(self, ws):
        result = run_cli("estimate", "--workspace", ws, "A", "B", "--n", "500",
                         "--seed", "1")
        assert result.returncode == 0
        lines = dict(line.split(" ", 1) for line in result.stdout.splitlines())
        assert float(lines["reference"]) == pytest.approx(2 / 3)

    def test_systematic_mode_over_a_finite_population_exits_2(self, ws):
        # it printed the bytes of --mode random
        result = run_cli("estimate", "--workspace", ws, "A", "B", "--n", "500",
                         "--seed", "1", "--mode", "systematic")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: systematic sampling needs an interval population\n"
