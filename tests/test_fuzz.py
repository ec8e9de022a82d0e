"""Fuzzing the workspace parser and the command line over arbitrary JSON
documents, every family and extreme flag values.

Whatever the input, ``dist``, ``matrix`` and ``estimate`` exit 0, 2 or 3,
raise nothing past ``cli.main``, and print no ``nan`` when they succeed.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from setmetric import cli
from setmetric.workspace import WorkspaceError, parse_workspace

IDS = ["x", "y", "z", "w"]
SETS, INTERVALS, FUZZY = ["A", "B", "C"], ["I", "J", "K"], ["F", "G"]

extremes = st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e300, -1e300, 1e308, 1.7e308, -1.7e308,
                            5e-324, 1e-300])
scalars = st.one_of(extremes, st.floats(-1e3, 1e3), st.floats(allow_nan=True, allow_infinity=True))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), scalars, st.integers(-3, 3), st.text(max_size=3)),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
ids = st.sampled_from(IDS)


@st.composite
def documents(draw):
    """Mostly well-formed workspaces, one section at a time replaced by any
    JSON value; now and then a whole document of any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    coordinate = st.one_of(extremes, st.floats(-1e3, 1e3))
    # bounds beyond 2^1022 (about 4.49e307) are rejected
    bound = st.one_of(coordinate, st.sampled_from([4e307, -4e307, 1.7e308, -1.7e308]))
    dim = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["discrete", "euclidean", "lp", "matrix"]))
    metric = {"kind": kind}
    if kind == "discrete":
        metric["lambda"] = draw(st.sampled_from([0.5, 1.0, 1e300]))
    elif kind == "lp":
        metric["p"] = draw(st.sampled_from([1.0, 3.0, 1e300]))
    elif kind == "matrix":
        grid = draw(st.lists(st.integers(0, 3), min_size=len(IDS), max_size=len(IDS)))
        unit = draw(st.sampled_from([0.5, 1e308 / 3]))  # cells up to 1e308
        values = [[abs(a - b) * unit for b in grid] for a in grid]
        metric.update(ids=IDS, pseudo=True, values=values)
    doc = {
        "metric": metric,
        "elements": {eid: draw(st.lists(coordinate, min_size=dim, max_size=dim)) for eid in IDS},
        "sets": {name: draw(st.lists(ids, max_size=4, unique=True)) for name in SETS},
        "intervals": {name: draw(st.lists(st.lists(bound, min_size=2, max_size=2).map(sorted),
                                          min_size=1, max_size=3)) for name in INTERVALS},
        "fuzzy": {name: draw(st.dictionaries(ids, st.sampled_from([1.0, 0.5, 0.3, 0.0]),
                                             min_size=1, max_size=4)) for name in FUZZY},
    }
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(json_values)
    return doc


# values for each flag, rejected ones included
FLAG_VALUES = {
    "--p": ["0", "1", "2", "-1", "0.5", "5e-324", "-5e-324", "1e300", "-1e300", "inf", "-inf", "nan"],
    "--lam": ["0.5", "1", "1e300", "inf", "0", "nan"],
    "--nu": ["0", "0.25", "0.5", "0.9", "nan"],
    "--alpha-weight": ["0", "1", "1e300", "inf", "nan"],
    "--alpha-grid": ["0.5,1", "1", "0.3", "", "0,2", "nan"],
}
FLAG_VALUES["--q"] = FLAG_VALUES["--r"] = FLAG_VALUES["--p"]


@st.composite
def invocations(draw, path):
    family = draw(st.sampled_from(list(cli.FAMILIES)))
    operands = cli.FAMILIES[family].operands
    if operands in (cli._sets, cli._nested):
        names = SETS + (["A,B", "B,C", "A,", ","] if operands is cli._nested else [])
    else:
        names = FUZZY if operands is cli._fuzzy_sets else INTERVALS
    operand = st.sampled_from(names) | st.sampled_from(SETS + INTERVALS + FUZZY + ["NOPE"])
    command = draw(st.sampled_from(["dist", "matrix", "estimate"]))
    if command == "estimate":
        argv = ["estimate", "--workspace", path, draw(operand), draw(operand),
                "--n", draw(st.sampled_from(["1", "7", "50", "0"])),
                "--seed", draw(st.sampled_from(["0", "1"])),
                "--mode", draw(st.sampled_from(["random", "systematic"]))]
        if draw(st.booleans()):
            argv += ["--population", draw(operand)]
        return argv
    argv = [command, "--workspace", path, "--family", family]
    for flag, values in FLAG_VALUES.items():
        if draw(st.integers(0, 2)) == 0:
            argv.append(f"{flag}={draw(st.sampled_from(values))}")
    for flag in ("--i", "--j", "--k"):
        argv += [flag, draw(st.sampled_from(["0", "1"]))]
    count = 2 if command == "dist" else draw(st.integers(2, 4))
    return argv + draw(st.lists(operand, min_size=count, max_size=count))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "workspace.json"


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(), data=st.data())
def test_any_document_and_command_line_exits_cleanly(path, doc, data):
    text = json.dumps(doc)
    path.write_text(text)
    try:
        parse_workspace(json.loads(text))
    except WorkspaceError:
        pass
    argv = data.draw(invocations(str(path)))
    code, stdout, _ = run(argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert "nan" not in stdout
