"""`verify` on worker processes: the same bytes, errors and exit codes as in
one process, and no child left behind."""

import os
import threading

import pytest

from setmetric import cli
from setmetric.errors import DomainError
from setmetric.verify import SUITES, CheckRow


def run_verify(capsys, monkeypatch, cpus, *argv):
    """``verify`` with ``cpus`` usable CPUs: (exit code, stdout, stderr)."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    code = cli.main(["verify", *argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_every_suite_is_handed_out():
    assert sorted(cli.COSTLIEST_FIRST) == sorted(SUITES)


@pytest.mark.parametrize("seed", ["0", "1", "1234"])
def test_two_workers_print_what_one_process_prints(capsys, monkeypatch, seed):
    one = run_verify(capsys, monkeypatch, 1, "--seed", seed)
    two = run_verify(capsys, monkeypatch, 2, "--seed", seed)
    assert one == two
    assert one[0] == 0 and one[1].endswith("verify: 26/26 checks passed\n")


def where_run(seed):
    return [CheckRow(f"pid {os.getpid()}", 0.0, 0.0, True)]


def test_suites_run_on_workers_that_are_reaped(capsys, monkeypatch):
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, where_run)
    code, out, _ = run_verify(capsys, monkeypatch, 2)
    assert code == 0
    rows = out.splitlines()[:-1]
    assert [row.split("]")[0][1:] for row in rows] == list(SUITES)
    pids = {int(row.split("pid ")[1].split(":")[0]) for row in rows}
    # a worker may take every suite before the other one starts
    assert len(pids) <= 2 and os.getpid() not in pids
    for pid in pids:  # not running, and not a zombie either
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_one_suite_runs_in_this_process(capsys, monkeypatch):
    monkeypatch.setitem(SUITES, "interval", where_run)
    code, out, _ = run_verify(capsys, monkeypatch, 2, "--suite", "interval")
    assert (code, out.splitlines()[0]) == (
        0, f"[interval] PASS pid {os.getpid()}: max_dev=0.000e+00 tol=0e+00")


def raise_domain_error(seed):
    raise DomainError(f"no closed form at seed {seed}")


def raise_runtime_error(seed):
    raise RuntimeError(f"broken suite at seed {seed}")


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_raising_suite_ends_the_run_as_in_one_process(capsys, monkeypatch, cpus):
    monkeypatch.setitem(SUITES, "appendixB", raise_domain_error)
    one = run_verify(capsys, monkeypatch, 1, "--seed", "7")
    many = run_verify(capsys, monkeypatch, cpus, "--seed", "7")
    assert one == many
    code, out, err = one
    assert (code, err) == (3, "domain error: no closed form at seed 7\n")
    assert [row.split("]")[0][1:] for row in out.splitlines()] == ["identities"] * 9 + ["appendixA"]


def test_an_unexpected_error_is_raised_again(capsys, monkeypatch):
    monkeypatch.setitem(SUITES, "identities", raise_runtime_error)
    for cpus in (1, 2):
        with pytest.raises(RuntimeError, match="^broken suite at seed 0$"):
            run_verify(capsys, monkeypatch, cpus)
        assert capsys.readouterr().out == ""


def test_a_process_with_threads_runs_the_suites_itself(capsys, monkeypatch):
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, where_run)
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(60,))
    other.start()
    try:
        code, out, _ = run_verify(capsys, monkeypatch, 2)
    finally:
        done.set()
        other.join(60)
    assert code == 0 and not other.is_alive()
    assert out.count(f"pid {os.getpid()}:") == len(SUITES)
