"""``matrix`` evaluates each unordered pair once under an exactly symmetric
ground metric, and prints what the full n x n computation prints.

The reference is the same command with the metric's ``symmetric`` flag
cleared, which makes ``cmd_matrix`` evaluate every cell: stdout, stderr and
the exit code must agree byte for byte, errors included.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setmetric import EuclideanMetric, MatrixMetric, cli
from setmetric.workspace import load_workspace

N_IDS = 40
IDS = [f"e{k}" for k in range(N_IDS)]
ORDERS = ["-inf", "-1", "0", "0.5", "1", "2", "inf"]


def run(argv, mirror=True):
    """(exit code, stdout, stderr) of ``setmetric <argv>``, run in process;
    with ``mirror`` off every cell is evaluated."""

    def unmirrored(path):
        ws = load_workspace(path)
        # a frozen metric reads the flag from its class, a table from itself;
        # a subclass would leave the block path for the scalar one
        owner = ws.metric if isinstance(ws.metric, MatrixMetric) else type(ws.metric)
        patches.enter_context(mock.patch.object(owner, "symmetric", False))
        return ws

    out, err = io.StringIO(), io.StringIO()
    patches = contextlib.ExitStack()
    if not mirror:
        patches.enter_context(mock.patch.object(cli, "load_workspace", unmirrored))
    with patches, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaping error must escape alike
            code = repr(exc)
    return code, out.getvalue(), err.getvalue()


@st.composite
def metrics(draw):
    kind = draw(st.sampled_from(["euclidean", "lp", "discrete", "table", "asymmetric table"]))
    if kind in ("euclidean", "lp"):
        coord = st.floats(-100, 100, allow_nan=False)
        points = draw(st.lists(st.tuples(coord, coord), min_size=N_IDS, max_size=N_IDS))
        if draw(st.booleans()):
            points = [points[k % 7] for k in range(N_IDS)]  # distinct ids at one point
        elements = dict(zip(IDS, map(list, points)))
        config = {"kind": "euclidean"} if kind == "euclidean" else {"kind": "lp", "p": 3}
        return config, elements
    elements = dict.fromkeys(IDS)
    if kind == "discrete":
        return {"kind": "discrete", "lambda": draw(st.sampled_from([1.0, 0.3]))}, elements
    # L1 distances on a grid, a pseudo table; the asymmetric one is off by
    # less than the load tolerance above the diagonal
    grid = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                         min_size=N_IDS, max_size=N_IDS))
    skew = 4e-13 if kind == "asymmetric table" else 0.0
    values = [[abs(x1 - x2) / 8 + abs(y1 - y2) / 8 + (skew if i < j else 0.0)
               for j, (x2, y2) in enumerate(grid)] for i, (x1, y1) in enumerate(grid)]
    return {"kind": "matrix", "ids": IDS, "values": values, "pseudo": True}, elements


@st.composite
def invocations(draw, directory):
    config, elements = draw(metrics())
    # up to 30 members: pairs of sets reach the cross-distance block
    members = st.lists(st.sampled_from(IDS), min_size=1, max_size=30, unique=True)
    sets = {f"S{k}": draw(members) for k in range(4)}
    endpoints = st.integers(0, 12).map(lambda v: v / 4)
    parts = st.tuples(endpoints, endpoints).filter(lambda iv: iv[0] < iv[1]).map(list)
    intervals = {f"I{k}": draw(st.lists(parts, min_size=1, max_size=2)) for k in range(4)}
    grades = st.dictionaries(st.sampled_from(IDS), st.sampled_from([0.3, 0.5, 1.0]),
                             min_size=1, max_size=12)
    fuzzy = {f"F{k}": draw(grades) for k in range(3)}
    doc = {"metric": config, "elements": elements, "sets": sets,
           "intervals": intervals, "fuzzy": fuzzy}

    family = draw(st.sampled_from(list(cli.FAMILIES)))
    pool = {
        cli._sets: list(sets),
        cli._nested: ["S0", "S1", "S0,S1", "S1,S2", "S0,S2,S3", "S3"],
        cli._intervals: list(intervals),
        cli._unions: list(intervals),
        cli._fuzzy_sets: list(fuzzy),
    }[cli.FAMILIES[family].operands]
    names = draw(st.lists(st.sampled_from(pool + ["NOPE"]), min_size=2, max_size=4))
    flags = []
    for flag in ("--p", "--q", "--r"):
        flags.append(f"{flag}={draw(st.sampled_from(ORDERS))}")
    for flag in ("--i", "--j", "--k"):
        flags += [flag, draw(st.sampled_from(["0", "1"]))]
    flags += ["--nu", draw(st.sampled_from(["0", "0.25", "0.5", "0.9"]))]

    path = directory / "workspace.json"
    path.write_text(json.dumps(doc))
    return ["matrix", "--workspace", str(path), "--family", family, *flags, *names]


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("matrix")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mirrored_matrix_prints_the_full_computation(directory, data):
    argv = data.draw(invocations(directory))
    assert run(argv) == run(argv, mirror=False)


NAMED = {
    "metric": {"kind": "euclidean"},
    "elements": {k: [float(i), float(i % 5)] for i, k in enumerate(IDS)},
    "sets": {"A": IDS[:20], "B": IDS[10:30], "C": IDS[25:], "D": IDS[::3]},
}


@pytest.mark.parametrize("names, flags, error", [
    # a bad name last: today's order reports it at the first cell of its row
    (["A", "B", "C", "NOPE"], [], "error: unknown set name 'NOPE'\n"),
    (["A", "NOPE", "B"], [], "error: unknown set name 'NOPE'\n"),
    # operands at different levels: the first row's last cell fails first
    (["A,B", "B,C", "A"], ["--family", "fk"],
     "domain error: operands at different levels: 2 vs 1\n"),
])
def test_errors_below_the_diagonal_are_reported(tmp_path, names, flags, error):
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(NAMED))
    argv = ["matrix", "--workspace", str(path), *(flags or ["--family", "f"]), *names]
    assert run(argv) == run(argv, mirror=False) == (3 if error.startswith("domain") else 2, "", error)


@pytest.mark.parametrize("config, evaluated", [
    ({"kind": "euclidean"}, 10),
    ({"kind": "matrix", "ids": IDS, "pseudo": True,
      "values": [[abs(i - j) / 8 for j in range(N_IDS)] for i in range(N_IDS)]}, 10),
    # asymmetric within the load tolerance: every cell is evaluated
    ({"kind": "matrix", "ids": IDS, "pseudo": True,
      "values": [[abs(i - j) / 8 + (4e-13 if i < j else 0.0) for j in range(N_IDS)]
                 for i in range(N_IDS)]}, 16),
])
def test_each_unordered_pair_is_evaluated_once(tmp_path, config, evaluated):
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps({**NAMED, "metric": config}))
    calls = []
    family = cli.FAMILIES["f"]

    def counting(ws, args):
        distance = family.distance(ws, args)

        def counted(a, b):
            calls.append((a, b))
            return distance(a, b)

        return counted

    # the reference run evaluates all 16 cells, and then restores the flag
    for mirror, expected in ((True, evaluated), (False, 16)):
        calls.clear()
        with mock.patch.dict(cli.FAMILIES, {"f": family._replace(distance=counting)}):
            code, _, _ = run(["matrix", "--workspace", str(path), "--family", "f",
                              "A", "B", "C", "D"], mirror)
        assert code == 0 and len(calls) == expected
    assert EuclideanMetric.symmetric

