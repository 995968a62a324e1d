#!/usr/bin/env python3
"""Benchmark of the bayescv command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare_q32 --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it builds the workload's inputs from the seed, runs the
workload's CLI commands as child processes until ``--seconds`` have passed,
checks every output, and prints the end-to-end metrics. With ``--trace 1``
it runs the commands once in this process instead, with spans around each
module's public functions, and prints the per-layer metrics; ``--seconds``
does not apply there. The last line of standard output is one JSON object:
correct, attempted, failed, metrics. Scratch files, logs, spans and a full
record of each run go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Input builds take tens of milliseconds, so one run repeats them for at
# least this long (and at least SETUP_MIN_BUILDS times) and reports the median.
SETUP_MIN_S = 1.0
SETUP_MIN_BUILDS = 5
# Every run must end within 180 s; a child still running this long after
# the start is killed and counted as failed.
CHILD_DEADLINE_S = 170.0
STARTED = time.perf_counter()


def machine_info(seed: int) -> dict[str, object]:
    import numpy

    # The ceiling keeps git from searching above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "bayescv").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_inputs(workload, seed: int, inputs: Path) -> tuple[list[float], bool]:
    """Build the inputs repeatedly; return the build times and whether
    every build wrote the same bytes."""
    times: list[float] = []
    first: dict[str, str] | None = None
    same = True
    while len(times) < SETUP_MIN_BUILDS or sum(times) < SETUP_MIN_S:
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        start = time.perf_counter()
        workload.build(seed, inputs)
        times.append(time.perf_counter() - start)
        built = {p.name: digest(p) for p in sorted(inputs.iterdir())}
        first = first or built
        same = same and built == first
    return times, same


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_child(argv: list[str], work: Path, log: Path) -> tuple[int, float, int]:
    """Run one child to completion: exit code, wall seconds, peak RSS in KiB."""
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=work, env=child_env(work), stdin=subprocess.DEVNULL,
            stdout=out, stderr=out,
        )
        remaining = max(1.0, CHILD_DEADLINE_S - (start - STARTED))
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Checker:
    """Counts operations and failures. An operation fails when its exit
    code is neither 0 nor 3, an output is missing, a content check fails,
    or an output differs from the first repetition of the same seed."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.nonconverged = 0
        self.reference: dict[str, str] = {}

    def check(self, step, code: int | None) -> None:
        self.attempted += 1
        self.nonconverged += code == 3
        problem = None
        if code not in (0, 3):
            problem = f"exit code {code}"
        else:
            missing = [o for o in step.outputs if not (self.work / o).is_file()]
            if missing:
                problem = f"missing outputs {missing}"
            else:
                try:
                    problem = step.check(self.work)
                except (OSError, ValueError, LookupError) as exc:
                    problem = f"unreadable output: {exc!r}"
                for name in step.outputs:
                    seen = digest(self.work / name)
                    if self.reference.setdefault(name, seen) != seen:
                        problem = problem or f"{name} differs from the first repetition"
        if problem:
            self.failures.append(f"{step.name}: {problem}")

    def output_bytes(self, step) -> int:
        return sum((self.work / o).stat().st_size for o in step.outputs if (self.work / o).is_file())


def fresh_run_dir(work: Path) -> None:
    for name in ("run", "tmp"):
        shutil.rmtree(work / name, ignore_errors=True)
        (work / name).mkdir()


def drop_artifacts(work: Path) -> None:
    """Delete command outputs and temporary files once a run is checked:
    one compare_q32 chains file is 126 MB. Logs, inputs and the record stay."""
    for pattern in ("run", "tmp", "*/run", "*/tmp"):
        for path in work.glob(pattern):
            shutil.rmtree(path)


def measure(
    workload, seed: int, seconds: float, work: Path, nproc: int, setup: list[float]
) -> dict:
    """Repeat the workload's commands as children until ``seconds`` have
    passed; there is always at least one repetition."""
    checker = Checker(work)
    walls: dict[str, list[float]] = {"main": [], "aux": []}
    peak_kib = 0
    begin = time.perf_counter()
    reps = 0
    while True:
        fresh_run_dir(work)
        out_bytes = 0
        for step in workload.steps(seed, nproc):
            argv = [sys.executable, "-m", "bayescv.cli", *step.argv]
            for _ in range(step.repeat):
                code, wall, kib = run_child(argv, work, work / f"{step.name}.log")
                walls[step.role].append(wall)
                peak_kib = max(peak_kib, kib)
                checker.check(step, code)
            out_bytes += checker.output_bytes(step)
        reps += 1
        if time.perf_counter() - begin >= seconds:
            break
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "main_s": (statistics.median(walls["main"]), "s"),
        "aux_s": (statistics.median(walls["aux"]), "s"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
        "output_mb": (out_bytes / 1e6, "MB"),
    }
    samples: dict[str, object] = {"repetitions": reps, "walls_s": walls, "setup_s": setup}
    if workload.sidecar and (work / workload.sidecar).is_file():
        meta = dict(
            line.partition("=")[::2]
            for line in (work / workload.sidecar).read_text(encoding="utf-8").splitlines()
        )
        with contextlib.suppress(KeyError, ValueError):
            ess = {name: float(meta[f"ess[{name}]"]) for name in ("delta0", "sigma0")}
            samples["ess"] = ess
            samples["ess_per_s"] = min(ess.values()) / metrics["main_s"][0]
    return {"checker": checker, "metrics": metrics, "samples": samples}


def run_inprocess(steps, work: Path, checker: Checker, tracer=None) -> float:
    """Run CLI commands through ``bayescv.cli.main`` in this process; with a
    tracer, each command is a root span. Returns the commands' wall time."""
    from bayescv import cli

    saved_cwd, saved_tmp = os.getcwd(), tempfile.tempdir
    os.chdir(work)
    tempfile.tempdir = str(work / "tmp")
    wall = 0.0
    try:
        for step in steps:
            command = cli.main
            if tracer is not None:
                tracer.command = step.name
                command = tracer.traced(f"cli.{step.name}", cli.main)
            with (work / f"{step.name}.log").open("w", encoding="utf-8") as log, \
                    contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                start = time.perf_counter()
                try:
                    code = command(list(step.argv))
                except Exception:
                    # A crash in one command is that operation's failure;
                    # the run goes on and reports it.
                    traceback.print_exc()
                    code = None
                wall += time.perf_counter() - start
            checker.check(step, code)
    finally:
        os.chdir(saved_cwd)
        tempfile.tempdir = saved_tmp
    return wall


def cli_startup_s(work: Path, repeats: int = 5) -> float:
    """Median seconds to import bayescv.cli in a fresh interpreter."""
    probe = (
        "import time; t = time.perf_counter(); import bayescv.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", probe], cwd=work, env=child_env(work),
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def trace_run(workload_name: str, seed: int, work: Path, nproc: int) -> dict:
    """Untraced then traced in-process passes. The traced pass runs every
    workload's commands, the named one first, so every layer is measured
    in every traced run; the named workload's two passes give the tracing
    overhead and must write identical artifacts."""
    import layers
    from workloads import WORKLOADS

    order = [workload_name] + [n for n in WORKLOADS if n != workload_name]
    checkers = {}
    problems = []
    for name in order:
        _, same = build_inputs(WORKLOADS[name], seed, work / name / "inputs")
        if not same:
            problems.append(f"{name}: input builds of one seed differ")
        checkers[name] = Checker(work / name)
    startup = cli_startup_s(work)

    first = WORKLOADS[workload_name]
    fresh_run_dir(work / workload_name)
    untraced = run_inprocess(first.steps(seed, nproc), work / workload_name, checkers[workload_name])

    tracer = layers.install()
    walls = {}
    try:
        for name in order:
            fresh_run_dir(work / name)
            walls[name] = run_inprocess(
                WORKLOADS[name].steps(seed, nproc), work / name, checkers[name], tracer
            )
    finally:
        tracer.restore()
    spans_path = work / "spans.jsonl"
    with spans_path.open("w", encoding="utf-8") as handle:
        for name, start, end, parent, command in tracer.spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "command": command}) + "\n")
    selfs = tracer.self_times()
    metrics = layers.metrics(tracer, selfs, startup, walls[workload_name] - untraced)
    return {
        "checkers": list(checkers.values()),
        "problems": problems,
        "metrics": metrics,
        "samples": {
            "untraced_s": untraced,
            "traced_s": walls,
            "self_s_by_command": layers.self_by_command(tracer, selfs),
            "fits": tracer.records,
            "spans": str(spans_path),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bayescv" / "cli.py").is_file():
        print(f"perfbench: no bayescv sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    info = machine_info(args.seed)
    info.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    if args.trace:
        result = trace_run(args.workload, args.seed, work, nproc)
        checkers, problems = result["checkers"], result["problems"]
    else:
        setup, same = build_inputs(workload, args.seed, work / "inputs")
        problems = [] if same else ["input builds of one seed differ"]
        result = measure(workload, args.seed, args.seconds, work, nproc, setup)
        checkers = [result["checker"]]
    attempted = sum(c.attempted for c in checkers)
    failures = problems + [f for c in checkers for f in c.failures]
    failed = sum(len(c.failures) for c in checkers)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}

    record = {
        "info": info,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else None,
        "nonconverged": sum(c.nonconverged for c in checkers),
        "failures": failures,
        "metrics": metrics,
        "samples": result["samples"],
    }
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    drop_artifacts(work)
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"info": info, "record": str(work / "record.json")}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
