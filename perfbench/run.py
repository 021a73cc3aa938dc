"""Benchmark of the wfuse command-line tool, run from the root of a checkout.

    python3 perfbench/run.py --workload mc-deep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's commands run as separate interpreters, as
a user runs them, pass after pass for ``--seconds`` seconds; the end-to-end
metrics of BENCHMARK.json are medians over the passes, with times rescaled
by a reference program timed between passes (see REFERENCE_PROGRAM).  With ``--trace 1``
they run inside this process with spans around the calls into each wfuse
module, and the per-layer metrics are reported instead (see tracing.py).

Either way every output is checked after the timed region, and the last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when a result was printed,
1 when the run could not be trusted (for instance when a repeat of the same
seed produced different output) and 2 outside a wfuse checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

from workloads import ORACLE_PROGRAM, WORKLOADS, BenchmarkError, Output, assess, require_same

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_PROGRAM = "import wfuse.cli\nwfuse.cli.build_parser()\n"
SETUP_BLOCKS = 3
SETUP_BLOCK_REPEATS = 5
COMMAND_TIMEOUT_S = 150
# The host's speed drifts by a factor of two within minutes, so every
# timing is rescaled by a fixed reference program timed around it: a time t
# becomes t * REFERENCE_NOMINAL_S / (time of the reference), the time the
# work would take on a host where the reference takes REFERENCE_NOMINAL_S.
# The reference is a separate interpreter, like the commands it calibrates,
# and mixes what they do: imports, integer loops, 64-bit mixing into short
# FIFO lists, and Fraction arithmetic.  It does not use wfuse, so no change
# to wfuse can move it.
REFERENCE_PROGRAM = """\
import argparse, concurrent.futures, dataclasses, json, statistics
from fractions import Fraction
x = 0
for i in range(400_000):
    x += i * i % 7
state, queue = 0, []
for i in range(150_000):
    state = (state * 0x5851F42D4C957F2D + 0x14057B7EF767814F) & 0xFFFFFFFFFFFFFFFF
    queue.append((state >> 40, i))
    if len(queue) > 2 and queue[0][0] < queue[1][0]:
        del queue[:2]
total = Fraction(0)
for i in range(1, 1500):
    total += Fraction(1, i)
table = {i: Fraction(i, 7) for i in range(10_000)}
"""
REFERENCE_NOMINAL_S = 0.25
# Runs a command and writes the peak RSS of its own process (VmHWM, in kB)
# to argv[1] at exit.  ru_maxrss from wait4 cannot be used: Linux folds the
# peak of the process that spawned the command, this benchmark, into it.
LAUNCHER = """\
import atexit, runpy, sys
def report(path=sys.argv[1]):
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(peak)
atexit.register(report)
mode, target = sys.argv[2:4]
sys.argv = [target, *sys.argv[4:]]
if mode == "-m":
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
"""


def _run_process(argv: list[str], label: str) -> tuple[int, float, float]:
    """Run one interpreter to completion: (exit code, wall s, cpu s).

    The CPU time comes from ``wait4`` and so includes the worker processes
    the command started and reaped.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(WORKDIR / f"{label}.out", "wb") as out, open(WORKDIR / f"{label}.err", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=WORKDIR, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise BenchmarkError(f"{label} was killed by signal {-proc.returncode}")
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime


def run_command(cmd) -> tuple[Output, float, float, float]:
    """Run a workload command as its own interpreter: (output, wall, cpu, peak RSS MB)."""
    peak_file = WORKDIR / f"{cmd.label}.peak"
    peak_file.unlink(missing_ok=True)
    if cmd.oracle_k is None:
        target = ["-m", "wfuse", *cmd.argv]
    else:
        target = ["-c", ORACLE_PROGRAM, str(cmd.oracle_k)]
    argv = [sys.executable, "-c", LAUNCHER, str(peak_file), *target]
    code, wall, cpu = _run_process(argv, cmd.label)
    if not peak_file.is_file():
        raise BenchmarkError(f"{cmd.label} did not report its peak RSS")
    output = Output(
        code,
        (WORKDIR / f"{cmd.label}.out").read_text(),
        (WORKDIR / f"{cmd.label}.err").read_text(),
        {name: (WORKDIR / name).read_text() for name in cmd.files},
    )
    return output, wall, cpu, int(peak_file.read_text()) / 1024


def reference_time(copies: int = 1) -> float:
    """Seconds the reference program takes now, ``copies`` of it at once.

    A workload that keeps several processes busy is calibrated by as many
    copies, so that every CPU it runs on is sampled.
    """
    argv = [sys.executable, "-c", REFERENCE_PROGRAM]
    with ThreadPoolExecutor(copies) as pool:
        runs = list(pool.map(lambda i: _run_process(argv, f"reference{i}"), range(copies)))
    if any(code != 0 for code, _, _ in runs):
        raise BenchmarkError("the reference program failed")
    return statistics.fmean(wall for _, wall, _ in runs)


def measure_setup() -> float:
    """Median time to start the interpreter, import wfuse.cli and build its parser.

    Measured in blocks between reference runs and rescaled to the nominal
    host speed, like every end-to-end timing.
    """
    times = []
    before = reference_time()
    for _ in range(SETUP_BLOCKS):
        walls = []
        for _ in range(SETUP_BLOCK_REPEATS):
            code, wall, _ = _run_process([sys.executable, "-c", SETUP_PROGRAM], "setup")
            if code != 0:
                raise BenchmarkError("importing wfuse.cli failed")
            walls.append(wall)
        after = reference_time()
        times += [wall * 2 * REFERENCE_NOMINAL_S / (before + after) for wall in walls]
        before = after
    return statistics.median(times)


def untraced_run(workload, seed: int, seconds: float, wf) -> dict:
    commands = workload.commands(seed, str(WORKDIR))
    setup_s = measure_setup()
    walls, cpus, rsss = [], [], []
    # Reference times before the first pass and after every pass.
    refs = [reference_time(workload.processes)]
    first = None
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        outputs, wall, cpu, rss = {}, 0.0, 0.0, 0.0
        for cmd in commands:
            outputs[cmd.label], w, c, r = run_command(cmd)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        if first is None:
            first = outputs
        require_same(first, outputs, seed)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        refs.append(reference_time(workload.processes))

    checked = dict(first)
    if workload.twin:
        twin = workload.twin(seed, str(WORKDIR))
        checked[twin.label] = run_command(twin)[0]
    problems, work, attempted, failed = assess(
        workload, seed, commands, checked, len(walls), wf
    )
    scales = [2 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    metrics = {
        "wall_s": statistics.median(wall * scale for wall, scale in zip(walls, scales)),
        "cpu_s": statistics.median(cpu * scale for cpu, scale in zip(cpus, scales)),
        "peak_rss_mb": statistics.median(rsss),
        "setup_s": setup_s,
    }
    print(
        f"raw wall s per pass: {' '.join(f'{wall:.4f}' for wall in walls)}\n"
        f"speed scale per pass: {' '.join(f'{scale:.3f}' for scale in scales)}\n"
        f"{work} units of work per pass ({workload.work_unit}), "
        f"{work / metrics['wall_s']:.6g} per calibrated second",
        file=sys.stderr,
    )
    return {"metrics": metrics, "problems": problems, "attempted": attempted, "failed": failed}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wfuse" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a wfuse checkout (src/wfuse, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(
        f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"CPU {_cpu_model()}",
        file=sys.stderr,
    )

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        # Building a pure-Python package is byte-compiling it.
        build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=False)
        if build.returncode != 0:
            raise BenchmarkError("byte-compiling src/ failed")
        sys.path.insert(0, str(SRC))
        import wfuse.cli  # loads every wfuse module; the checks use them

        workload = WORKLOADS[args.workload]
        if args.trace:
            from tracing import traced_run

            result = traced_run(workload, args.seed, args.seconds, wfuse, str(WORKDIR))
        else:
            result = untraced_run(workload, args.seed, args.seconds, wfuse)
        absent = [m["name"] for m in declared if m["name"] not in result["metrics"]]
        if absent:
            raise BenchmarkError(f"not measured: {', '.join(absent)}")
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    for label, problem in result["problems"]:
        print(f"perfbench: wrong output from {label}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
