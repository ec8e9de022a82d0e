"""Benchmark of the setmetric command line over three workloads.

    python3 perfbench/run.py --workload finite-matrix --seed 1 --seconds 10 --trace 0

With ``--trace 0`` every CLI invocation runs as its own child process, one at
a time, so interpreter start and imports count. A round is the set-up probes
(load each workspace, do trivial work) followed by the workload's
invocations; whole rounds repeat until ``--seconds`` have passed. With ``--trace 1`` the
same invocations are replayed in this process through ``setmetric.cli.main``
and traced (see ``tracing.py``). Every output is checked against values
computed apart from the program (``reference.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (invocations with an unexpected exit status) and
``metrics``. ``--workload all`` runs every workload and prints one object
keyed by workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import tracing
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

OP_TIMEOUT_S = 120  # a child still running after this is killed and counted as failed


class Runner:
    """Runs CLI invocations as child processes, one at a time, and keeps the
    tally: attempts, failures, output problems and the highest peak RSS."""

    def __init__(self, workdir: Path):
        # PYTHONHASHSEED fixes set iteration order, so every run does the same work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.stdout = workdir / "stdout.txt"
        self.stderr = workdir / "stderr.txt"
        self.attempted = 0
        self.failures: list[str] = []  # unexpected exit status
        self.problems: list[str] = []  # wrong output
        self.peak_rss_kb = 0

    def run(self, op: Op) -> float:
        """Run one invocation; return its wall time in seconds."""
        with open(self.stdout, "w+b") as out, open(self.stderr, "w+b") as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "setmetric", *op.argv],
                stdout=out, stderr=err, cwd=ROOT, env=self.env,
            )
            watchdog = threading.Timer(OP_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                # wait4, not wait: it returns the child's own resource usage
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)  # KiB on Linux
        self.record(op, child.returncode, stdout, stderr)
        return elapsed

    def record(self, op: Op, code: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        label = " ".join(op.argv)
        if code != op.exit_code:
            self.failures.append(f"{label}: exit {code}, expected {op.exit_code}: {stderr.strip()[-500:]}")
            return
        try:
            problems = op.check(stdout)
        except (ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output {stdout[:200]!r}: {exc}"]
        self.problems.extend(f"{label}: {p}" for p in problems)


def measure(workload, runner: Runner, seconds: float) -> dict[str, float]:
    """Repeat whole rounds (the set-up probes, then the workload's
    invocations) until ``seconds`` have passed. Each invocation's median over
    the rounds is taken, so a burst of machine noise in one round moves the
    result little; wall_s and setup_s are sums of those medians."""
    for probe in workload.probes:  # warm-up: bytecode cache and page cache
        runner.run(probe)
    sequence = workload.probes + workload.ops
    times: list[list[float]] = [[] for _ in sequence]
    start = time.perf_counter()
    while not times[0] or time.perf_counter() - start < seconds:
        for samples, op in zip(times, sequence):
            samples.append(runner.run(op))
    medians = [statistics.median(samples) for samples in times]
    n_probes = len(workload.probes)
    return {
        "wall_s": sum(medians[n_probes:]),
        "setup_s": sum(medians[:n_probes]),
        "peak_rss_mb": runner.peak_rss_kb / 1024,
    }


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"{name}-{seed}"
    files = gen.generate(name, seed, workdir)
    workload = WORKLOADS[name](files, seed)
    runner = Runner(workdir)
    if trace:
        values = tracing.run(workload, seed, seconds, workdir, SRC, runner.env, runner.record)
        units = {key: tracing.unit(key) for key in values}
    else:
        values = measure(workload, runner, seconds)
        units = UNITS
    for problem in (runner.failures + runner.problems)[:20]:
        print(f"{name}: {problem}", file=sys.stderr)
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the setmetric command line.")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "setmetric" / "cli.py").is_file():
        print(f"error: no setmetric sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
