"""Cold start: commands run without importing numpy, but for a table's
triangle check and the row-wise means of `u` and `v` from 256 pairs on; a
command imports only the modules of the package it runs, and the CLI imports
no process pool until a `verify` of several suites.

Each case runs in a fresh interpreter, since a module stays in
``sys.modules`` once any test of this process has imported it.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import setmetric
from setmetric.continuous import _MEMO_MAX_PAIRS

SRC = Path(__file__).resolve().parents[1] / "src"

# 3 x 4 = 12 cross pairs, far below the block threshold of 256
SMALL = {
    "metric": {"kind": "euclidean"},
    "elements": {f"p{k}": [float(k), float(k % 3)] for k in range(7)},
    "sets": {"A": ["p0", "p1", "p2"], "B": ["p3", "p4", "p5", "p6"], "C": ["p1", "p4"]},
    "intervals": {"I": [[0, 1]], "J": [[0.5, 2]], "K": [[0.25, 0.75]]},
}

# two disjoint sets of 16 points: 256 cross pairs, the first batched size
LARGE = {
    "metric": {"kind": "euclidean"},
    "elements": {f"p{k}": [float(k), float(k % 5)] for k in range(32)},
    "sets": {"A": [f"p{k}" for k in range(16)], "B": [f"p{k}" for k in range(16, 32)]},
}

# the same two sets of 16 ids over a table of the distances of 32 points of a line
LARGE_TABLE = {
    "metric": {"kind": "matrix", "ids": [f"p{k}" for k in range(32)],
               "values": [[abs(x - y) for y in range(32)] for x in range(32)]},
    "elements": dict.fromkeys(LARGE["elements"]),
    "sets": LARGE["sets"],
}

# the distances of the points 0, 1, 3 and 7 of a line, a valid table
TABLE = {
    "metric": {"kind": "matrix", "ids": ["t0", "t1", "t2", "t3"],
               "values": [[abs(x - y) for y in (0, 1, 3, 7)] for x in (0, 1, 3, 7)]},
    "elements": {f"t{k}": None for k in range(4)},
    "sets": {"A": ["t0", "t1"], "B": ["t1", "t2", "t3"], "C": ["t3"]},
}


def _fuzzy_workspace(sizes: dict[str, int], shift: int) -> dict:
    """Fuzzy sets of the given sizes over 3-d points, each set starting
    ``shift`` ids after the one before it, with grades from 0.05 to 1."""
    ids = [f"q{k}" for k in range(shift * len(sizes) + max(sizes.values()))]
    fuzzy = {}
    for k, (name, size) in enumerate(sizes.items()):
        members = ids[shift * k: shift * k + size]
        fuzzy[name] = {eid: 0.05 + (7 * j % 20) / 20 for j, eid in enumerate(members)}
    return {
        "metric": {"kind": "euclidean"},
        "elements": {eid: [k % 7 / 7, k % 5 / 5, k % 3 / 3] for k, eid in enumerate(ids)},
        "fuzzy": fuzzy,
    }


# three 30-member sets, each sharing 20 members with the next, as the
# benchmark's; and two pairs on either side of the memo bound
_SIDE = math.isqrt(_MEMO_MAX_PAIRS)
FUZZY = _fuzzy_workspace({"F1": 30, "F2": 30, "F3": 30}, shift=10)
AT_BOUND = _fuzzy_workspace({"A": _SIDE, "B": _MEMO_MAX_PAIRS // _SIDE}, shift=_SIDE)
ABOVE_BOUND = _fuzzy_workspace({"A": _SIDE, "B": _MEMO_MAX_PAIRS // _SIDE + 1}, shift=_SIDE)


def module_loaded(statements: str, module: str = "numpy") -> bool:
    """Run ``statements`` in a fresh interpreter with ``src`` on the path and
    report whether ``module`` was imported by the end."""
    script = f"{statements}\nimport sys\nprint({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


def cli_run(argv: list[str]) -> str:
    return f"import setmetric.cli\nassert setmetric.cli.main({argv!r}) == 0"


@pytest.fixture(scope="module")
def workspaces(tmp_path_factory):
    paths = {}
    for name, doc in (("small", SMALL), ("large", LARGE), ("large_table", LARGE_TABLE),
                      ("table", TABLE), ("fuzzy", FUZZY), ("at_bound", AT_BOUND),
                      ("above_bound", ABOVE_BOUND)):
        path = tmp_path_factory.mktemp("ws") / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("statements", ["import setmetric", "import setmetric.cli"])
def test_import_does_not_load_numpy(statements):
    assert not module_loaded(statements)


@pytest.mark.parametrize("module", ["multiprocessing", "concurrent.futures"])
def test_cli_import_does_not_load_a_process_pool(module):
    # only a `verify` of several suites loads one
    assert not module_loaded("import setmetric.cli", module)


@pytest.mark.parametrize("argv", [
    ["dist", "--family", "f", "A", "B"],
    ["dist", "--family", "h", "A", "B"],
    ["matrix", "--family", "f", "A", "B", "C"],
    ["matrix", "--family", "u", "--p", "2", "--q=-1", "A", "B", "C"],
    ["matrix", "--family", "steinhaus", "I", "J", "K"],
    ["matrix", "--family", "interval", "I", "J", "K"],
], ids=["dist-f", "dist-h", "matrix-f", "matrix-u", "matrix-steinhaus", "matrix-interval"])
def test_small_workspace_commands_do_not_load_numpy(workspaces, argv):
    argv = [argv[0], "--workspace", workspaces["small"], *argv[1:]]
    assert not module_loaded(cli_run(argv))


# a table's triangles are checked with numpy at the first read of a distance
@pytest.mark.parametrize("argv, loaded", [
    (["dist", "--family", "j", "A", "B"], False),
    (["dist", "--family", "symdiff", "A", "B"], False),
    (["matrix", "--family", "j", "A", "B", "C"], False),
    (["dist", "--family", "f", "A", "B"], True),
], ids=["dist-j", "dist-symdiff", "matrix-j", "dist-f"])
def test_table_workspace_loads_numpy_only_to_read_a_distance(workspaces, argv, loaded):
    argv = [argv[0], "--workspace", workspaces["table"], *argv[1:]]
    assert module_loaded(cli_run(argv)) is loaded


def test_random_axiom_check_does_not_load_numpy():
    assert not module_loaded(cli_run(["axioms", "--random", "--family", "f", "--n", "20"]))


@pytest.mark.parametrize("suite", ["identities", "appendixA", "appendixB", "duality", "interval"])
def test_verify_suites_do_not_load_numpy(suite):
    assert not module_loaded(cli_run(["verify", "--suite", suite]))


# from 256 pairs on, sums and Hausdorff read exact Python rows; the row-wise
# means of u still take the numpy block, and a table its triangle check
@pytest.mark.parametrize("workspace, family, operands, loaded", [
    ("large", "f", ["A", "B"], False),
    ("large", "g", ["A", "B"], False),
    ("large", "e", ["A", "B"], False),
    ("large", "h", ["A", "B"], False),
    ("large", "fk", ["A,B", "B,"], False),
    ("large", "u", ["A", "B"], True),
    ("large_table", "f", ["A", "B"], True),
], ids=["f", "g", "e", "h", "fk", "u", "table-f"])
def test_batched_operands_load_numpy_only_for_means_and_tables(workspaces, workspace, family,
                                                                operands, loaded):
    argv = ["dist", "--workspace", workspaces[workspace], "--family", family, *operands]
    assert module_loaded(cli_run(argv)) is loaded


@pytest.mark.parametrize("module", [
    "dataclasses", "setmetric.verify", "setmetric.axioms", "setmetric.hierarchy",
    "setmetric.power_means",
])
@pytest.mark.parametrize("argv", [
    ["dist", "--family", "interval", "I", "J"],
    ["matrix", "--family", "steinhaus", "I", "J", "K"],
    ["dist", "--family", "f", "A", "B"],
], ids=["dist-interval", "matrix-steinhaus", "dist-f"])
def test_small_workspace_commands_load_only_what_they_run(workspaces, argv, module):
    argv = [argv[0], "--workspace", workspaces["small"], *argv[1:]]
    assert not module_loaded(cli_run(argv), module)


@pytest.mark.parametrize("module", ["setmetric.continuous", "setmetric.verify"])
def test_random_axiom_check_loads_only_what_it_runs(module):
    assert not module_loaded(cli_run(["axioms", "--random", "--family", "f", "--n", "20"]), module)


def test_small_fuzzy_sets_do_not_load_numpy(workspaces):
    argv = ["matrix", "--workspace", workspaces["fuzzy"], "--family", "fuzzy", "F1", "F2", "F3"]
    assert not module_loaded(cli_run(argv))


@pytest.mark.parametrize("name, memo", [("at_bound", True), ("above_bound", False)])
def test_fuzzy_sets_on_either_side_of_the_memo_bound_load_no_numpy(workspaces, name, memo):
    # the memo is chosen by the count of member pairs; above the bound the
    # cut distances read exact rows, which need no numpy either
    spy = (f"import setmetric.continuous as c\nmemo = c._Memo\n"
           f"c._Memo = lambda m: (print('memo'), memo(m))[1]\n")
    argv = ["dist", "--workspace", workspaces[name], "--family", "fuzzy", "A", "B"]
    assert not module_loaded(spy + cli_run(argv))
    result = subprocess.run([sys.executable, "-c", spy + cli_run(argv)],
                            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
    assert (result.stdout.splitlines()[0] == "memo") is memo


def test_bare_import_loads_no_module_of_the_package():
    assert not module_loaded("import setmetric", "setmetric.core")
    assert module_loaded("import setmetric\nassert setmetric.core.FiniteSet", "setmetric.core")


def test_public_names_are_the_attributes_of_their_modules():
    for name in setmetric.__all__:
        module = importlib.import_module(f"setmetric.{setmetric._MODULE_OF[name]}")
        assert getattr(setmetric, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        setmetric.no_such_name
