"""Cold start: commands on small operands run without importing numpy, and
the CLI imports no process pool until a `verify` of several suites.

Each case runs in a fresh interpreter, since a module stays in
``sys.modules`` once any test of this process has imported it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# 3 x 4 = 12 cross pairs, far below the block threshold of 256
SMALL = {
    "metric": {"kind": "euclidean"},
    "elements": {f"p{k}": [float(k), float(k % 3)] for k in range(7)},
    "sets": {"A": ["p0", "p1", "p2"], "B": ["p3", "p4", "p5", "p6"], "C": ["p1", "p4"]},
    "intervals": {"I": [[0, 1]], "J": [[0.5, 2]], "K": [[0.25, 0.75]]},
}

# two disjoint sets of 16 points: 256 cross pairs, the first block size
LARGE = {
    "metric": {"kind": "euclidean"},
    "elements": {f"p{k}": [float(k), float(k % 5)] for k in range(32)},
    "sets": {"A": [f"p{k}" for k in range(16)], "B": [f"p{k}" for k in range(16, 32)]},
}


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
    for name, doc in (("small", SMALL), ("large", LARGE)):
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


def test_random_axiom_check_does_not_load_numpy():
    assert not module_loaded(cli_run(["axioms", "--random", "--family", "f", "--n", "20"]))


@pytest.mark.parametrize("suite", ["identities", "appendixA", "appendixB", "duality", "interval"])
def test_verify_suites_do_not_load_numpy(suite):
    assert not module_loaded(cli_run(["verify", "--suite", suite]))


def test_block_sized_operands_load_numpy(workspaces):
    # the block path is still taken from 256 pairs on
    argv = ["dist", "--workspace", workspaces["large"], "--family", "f", "A", "B"]
    assert module_loaded(cli_run(argv))
