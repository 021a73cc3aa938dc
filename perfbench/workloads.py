"""The benchmark's workloads: the commands each one runs and their output checks.

A workload is a list of :class:`Command` values run one after another by a
single client (closed loop).  A command is either a ``wfuse`` CLI call or an
exact-oracle library call; both run as their own interpreter in untraced
runs and inside the benchmark process in traced runs.

The checks recompute every output independently of the timed run, from the
library in ``src/``: nothing is compared against a pinned digest, because
the seed is an argument.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

# Exact similar-sizes expectations at the k the oracle supports.
ORACLE_VALUES = {0: Fraction(9, 2), 1: Fraction(21), 2: Fraction(76)}

# The library call an oracle command makes, as a standalone program.
ORACLE_PROGRAM = (
    "import sys\n"
    "from wfuse.simulate import exact_expected_cost\n"
    "print(exact_expected_cost(int(sys.argv[1])))\n"
)

# Known defect: the float column of `cost --strategy linear-recycled`
# overflows at targets >= 1033 and the command exits 1 with this traceback.
KNOWN_DEFECT_ERROR = "OverflowError"

MC_DEEP_MAX_K = 6
MC_DEEP_RUNS = 100
MC_WIDE_K = 1
MC_WIDE_RUNS = 100_000
MC_WIDE_WORKERS = 2
DUMP_FILE = "runs.csv"


@dataclass(frozen=True)
class Command:
    """One operation of a workload.

    ``argv`` are the ``wfuse`` CLI arguments; ``oracle_k`` marks a library
    call to ``exact_expected_cost(oracle_k)`` instead.
    """

    label: str
    argv: tuple[str, ...] = ()
    oracle_k: Optional[int] = None
    files: tuple[str, ...] = ()  # files the command writes into the work directory


@dataclass
class Output:
    """What one command produced: exit code, streams and the files it wrote."""

    returncode: int
    stdout: str
    stderr: str
    files: dict[str, str]

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or "Traceback" in self.stderr


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, work directory) -> the commands of one pass.
    commands: Callable[[int, str], list[Command]]
    # (seed, outputs by label, the wfuse package) -> (problems, work): the
    # (label, problem) pairs found, [] when every output is correct, and the
    # units of work in one pass (fusion attempts for MC workloads, commands
    # otherwise), counted independently of the timed commands.
    check: Callable[[int, dict, object], tuple]
    # Spans outside the MC layers that the workload's own commands produce
    # in a traced run (see perfbench/tracing.py); the traced run times the
    # other layers with probes.
    spans: frozenset = frozenset()
    # MC workloads only: the same command at the other worker count, for the
    # 1-vs-2-worker byte-equality check and the traced run's MC layers.
    twin: Optional[Callable[[int, str], Command]] = None
    # Processes the commands keep busy at once (the MC worker count).
    processes: int = 1
    work_unit: str = "fusion attempts"


def cli_seed(seed: int) -> int:
    """Master seed handed to the CLI: the benchmark seed, kept non-negative."""
    return seed % (1 << 63)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _rational(row: dict, prefix: str) -> Optional[Fraction]:
    num, den = row[f"{prefix}_num"], row[f"{prefix}_den"]
    if not num and not den:
        return None
    return Fraction(int(num), int(den))


def _close(cell: str, expected: float) -> bool:
    return math.isclose(float(cell), expected, rel_tol=1e-12, abs_tol=1e-12)


def _batch_moments(costs: list[int]) -> tuple[float, float, float]:
    """(mean, std, stderr) as the batch statistics define them."""
    mean = statistics.fmean(costs)
    std = statistics.stdev(costs) if len(costs) > 1 else 0.0
    return mean, std, std / math.sqrt(len(costs))


def replay_costs(wf, k: int, runs: int, master_seed: int) -> tuple[list, list, int]:
    """Re-run a batch run by run: (costs, final indices, fusion attempts)."""
    costs, finals, attempts = [], [], 0
    for i in range(runs):
        result = wf.simulate.run_similar_sizes(k, wf.rng.stream_for_run(master_seed, i))
        costs.append(result.cost)
        finals.append(result.final_size)
        attempts += result.fusion_attempts
    return costs, finals, attempts


def _check_cost_table(label: str, out: Output, strategy: str, expected: dict) -> list:
    """Compare the exact num/den columns of a `cost` table with ``expected``.

    ``expected`` maps actual size N to the exact cost.
    """
    rows = _rows(out.stdout)
    if [int(r["N"]) for r in rows] != list(expected):
        return [(label, "rows do not cover the requested sizes")]
    for row in rows:
        if row["strategy"] != strategy or _rational(row, "cost_exact") != expected[int(row["N"])]:
            return [(label, f"wrong cost at N = {row['N']}")]
    return []


# ---------------------------------------------------------------- mc-deep


def _mc_deep_argv(seed: int, workers: int) -> tuple[str, ...]:
    return (
        "figure4", "--max-k", str(MC_DEEP_MAX_K), "--runs", str(MC_DEEP_RUNS),
        "--seed", str(cli_seed(seed)), "--workers", str(workers),
    )


def _mc_deep_commands(seed: int, workdir: str) -> list[Command]:
    return [Command("figure4", _mc_deep_argv(seed, 1))]


def _mc_deep_twin(seed: int, workdir: str) -> Command:
    return Command("figure4-2workers", _mc_deep_argv(seed, 2))


def mc_deep_batches(seed: int) -> list[tuple[int, int, int]]:
    """(k, runs, master seed) of every batch `figure4` runs."""
    base = cli_seed(seed)
    return [(k, MC_DEEP_RUNS, base + k * MC_DEEP_RUNS) for k in range(MC_DEEP_MAX_K + 1)]


def _check_mc_deep(seed: int, outputs: dict, wf):
    replays = {k: replay_costs(wf, k, runs, master) for k, runs, master in mc_deep_batches(seed)}
    work = sum(attempts for _, _, attempts in replays.values())
    return _figure4_problems(seed, outputs, wf, replays), work


def _figure4_problems(seed: int, outputs: dict, wf, replays: dict) -> list:
    out = outputs["figure4"]
    if out.failed:
        return [("figure4", f"exit code {out.returncode}")]
    problems = []
    twin = outputs.get("figure4-2workers")
    if twin is not None and twin.stdout != out.stdout:
        problems.append(("figure4", "output differs between 1 and 2 workers"))
    n_max = 2**MC_DEEP_MAX_K + 1
    recycled = wf.growth_costs.linear_recycled_costs(n_max)
    table = wf.optimal.optimal_costs(n_max)
    rows = _rows(out.stdout)
    if [int(r["N"]) for r in rows] != list(range(3, n_max + 3)):
        return problems + [("figure4", "rows do not cover N = 3..2^max_k + 3")]
    mc_rows, wrong = {}, {}
    for row in rows:
        n = int(row["N"]) - 2
        exp = wf.growth_costs.exponential_cost(n.bit_length() - 1) if n & (n - 1) == 0 else None
        expected = {
            "linear": wf.growth_costs.w3_linear_cost(n),
            "linear_recycled": recycled[n],
            "optimal": table.cost(n),
            "exponential": exp,
        }
        for prefix, value in expected.items():
            if _rational(row, prefix) != value:
                wrong.setdefault(prefix, []).append(n + 2)
        if row["mc_k"]:
            mc_rows[int(row["mc_k"])] = row
    problems += [
        ("figure4", f"{prefix} cost wrong at N = {sizes[0]} and {len(sizes) - 1} more")
        for prefix, sizes in wrong.items()
    ]
    if sorted(mc_rows) != list(range(MC_DEEP_MAX_K + 1)):
        return problems + [("figure4", "MC rows missing")]
    for k, runs, master in mc_deep_batches(seed):
        row = mc_rows[k]
        if int(row["N"]) != 2**k + 3 or int(row["mc_runs"]) != runs:
            problems.append(("figure4", f"MC row k = {k} misplaced"))
            continue
        mean, _, stderr = _batch_moments(replays[k][0])
        if not (_close(row["mc_mean"], mean) and _close(row["mc_stderr"], stderr)):
            problems.append(("figure4", f"MC mean or stderr wrong at k = {k}"))
    return problems


# ---------------------------------------------------------------- mc-wide


def _mc_wide_argv(seed: int, workdir: str, workers: int) -> tuple[str, ...]:
    return (
        "simulate", "--k", str(MC_WIDE_K), "--runs", str(MC_WIDE_RUNS),
        "--seed", str(cli_seed(seed)), "--workers", str(workers),
        "--dump-runs", f"{workdir}/{DUMP_FILE}",
    )


def _mc_wide_commands(seed: int, workdir: str) -> list[Command]:
    return [Command("simulate", _mc_wide_argv(seed, workdir, MC_WIDE_WORKERS), files=(DUMP_FILE,))]


def _mc_wide_twin(seed: int, workdir: str) -> Command:
    return Command("simulate-1worker", _mc_wide_argv(seed, workdir, 1), files=(DUMP_FILE,))


def _check_mc_wide(seed: int, outputs: dict, wf):
    replay = replay_costs(wf, MC_WIDE_K, MC_WIDE_RUNS, cli_seed(seed))
    return _simulate_problems(seed, outputs, replay), replay[2]


def _simulate_problems(seed: int, outputs: dict, replay: tuple) -> list:
    out = outputs["simulate"]
    if out.failed:
        return [("simulate", f"exit code {out.returncode}")]
    problems = []
    twin = outputs.get("simulate-1worker")
    if twin is not None and (twin.stdout, twin.files) != (out.stdout, out.files):
        problems.append(("simulate", "output differs between 1 and 2 workers"))
    (row,) = _rows(out.stdout)
    dump = _rows(out.files[DUMP_FILE])
    dump_costs = [int(r["cost"]) for r in dump]
    if [int(r["run"]) for r in dump] != list(range(MC_WIDE_RUNS)):
        return problems + [("simulate", "--dump-runs rows are not runs 0..runs-1")]
    # The summary row against the per-run file it came with.
    moments = _batch_moments(dump_costs)
    if not all(_close(row[name], value) for name, value in zip(("mean", "std", "stderr"), moments)):
        problems.append(("simulate", "mean/std/stderr disagree with --dump-runs"))
    if (int(row["min"]), int(row["max"])) != (min(dump_costs), max(dump_costs)):
        problems.append(("simulate", "min/max disagree with --dump-runs"))
    echoed = (int(row["k"]), int(row["runs"]), int(row["seed"]))
    if echoed != (MC_WIDE_K, MC_WIDE_RUNS, cli_seed(seed)):
        problems.append(("simulate", "echoes the wrong k, runs or seed"))
    # Every run against an independent replay of its stream.
    costs, finals, _ = replay
    if dump_costs != costs or [int(r["final_N"]) for r in dump] != [f + 2 for f in finals]:
        problems.append(("simulate", "--dump-runs differs from a replay of the per-run streams"))
    return problems


# ---------------------------------------------------------------- exact


OPTIMAL_TARGET = 514
RECYCLED_TARGET = 3002  # ROADMAP's row; above the overflow at 1033 on purpose
EXPONENTIAL_TARGET = 1026
GATE_SIZE = 12


def _exact_commands(seed: int, workdir: str) -> list[Command]:
    # Exact arithmetic has no random inputs, so the seed changes nothing.
    return [
        Command("cost-optimal", ("cost", "--strategy", "optimal", "--target", str(OPTIMAL_TARGET))),
        # Fails with the known defect; counted as failed, not as incorrect.
        Command(
            "cost-linear-recycled",
            ("cost", "--strategy", "linear-recycled", "--target", str(RECYCLED_TARGET)),
        ),
        Command(
            "cost-exponential",
            ("cost", "--strategy", "exponential", "--target", str(EXPONENTIAL_TARGET)),
        ),
        Command("verify-gate", ("verify-gate", "--n", str(GATE_SIZE), "--m", str(GATE_SIZE))),
    ] + [Command(f"oracle-k{k}", oracle_k=k) for k in sorted(ORACLE_VALUES)]


def _check_exact(seed: int, outputs: dict, wf):
    return _exact_problems(outputs, wf), len(_exact_commands(seed, ""))


def _exact_problems(outputs: dict, wf) -> list:
    problems = [
        (label, f"exit code {out.returncode}")
        for label, out in outputs.items()
        if out.failed and label != "cost-linear-recycled"
    ]
    if problems:
        return problems

    table = wf.optimal.optimal_costs(OPTIMAL_TARGET - 2)
    problems += _check_cost_table(
        "cost-optimal", outputs["cost-optimal"], "optimal",
        {n + 2: table.cost(n) for n in range(1, OPTIMAL_TARGET - 1)},
    )
    levels = (EXPONENTIAL_TARGET - 2).bit_length()
    problems += _check_cost_table(
        "cost-exponential", outputs["cost-exponential"], "exponential",
        {2**l + 2: wf.growth_costs.exponential_cost(l) for l in range(levels)},
    )
    recycled = outputs["cost-linear-recycled"]
    if not recycled.failed:
        costs = wf.growth_costs.linear_recycled_costs(RECYCLED_TARGET - 2)
        problems += _check_cost_table(
            "cost-linear-recycled", recycled, "linear-recycled",
            {n + 2: costs[n] for n in range(1, RECYCLED_TARGET - 1)},
        )
    elif KNOWN_DEFECT_ERROR not in recycled.stderr:
        problems.append(("cost-linear-recycled", "failed, and not with the known OverflowError"))

    dist = wf.fusion_model.outcome_distribution(GATE_SIZE - 2, GATE_SIZE - 2)
    analytic = {"success": dist.p_success, "recycle": dist.p_recycle, "failure": dist.p_failure}
    gate_rows = _rows(outputs["verify-gate"].stdout)
    if [r["branch"] for r in gate_rows] != list(analytic):
        problems.append(("verify-gate", "rows are not success, recycle, failure"))
    for row in gate_rows:
        branch = row["branch"]
        if branch in analytic and not (
            _close(row["analytic"], float(analytic[branch]))
            and abs(float(row["simulated"]) - float(analytic[branch])) < 1e-12
            and abs(1.0 - float(row["fidelity"])) < 1e-12
        ):
            problems.append(("verify-gate", f"{branch} row off the closed form"))

    for k, value in ORACLE_VALUES.items():
        if outputs[f"oracle-k{k}"].stdout.strip() != str(value):
            problems.append((f"oracle-k{k}", f"exact_expected_cost({k}) is not {value}"))
    return problems


_TABLES = frozenset(
    {"optimal.dp", "growth_costs.linear_recycled", "growth_costs.closed_forms"}
)
WORKLOADS = {
    "mc-deep": Workload(
        "mc-deep", _mc_deep_commands, _check_mc_deep, _TABLES, _mc_deep_twin
    ),
    "mc-wide": Workload(
        "mc-wide", _mc_wide_commands, _check_mc_wide, frozenset(), _mc_wide_twin, MC_WIDE_WORKERS
    ),
    "exact": Workload(
        "exact",
        _exact_commands,
        _check_exact,
        _TABLES
        | {"gate.verify"}
        | {f"simulate.oracle.k{k}" for k in ORACLE_VALUES},
        work_unit="commands",
    ),
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result; it exits non-zero."""


def require_same(first: dict, outputs: dict, seed: int) -> None:
    """Fail loudly when a repeat of the same seed produced different outputs."""
    for label, out in outputs.items():
        ref = first[label]
        if (out.returncode, out.stdout, out.files) != (ref.returncode, ref.stdout, ref.files):
            raise BenchmarkError(f"{label}: output differs between repeats of seed {seed}")


def assess(workload: Workload, seed: int, commands: list, outputs: dict, passes: int, wf):
    """Check one pass's outputs; return (problems, work, attempted, failed).

    Every pass produced the same outputs (see :func:`require_same`), so a
    command that failed, or whose output is wrong, failed in every pass.
    ``outputs`` may also hold the twin's output, which the checks use but
    which is not one of the pass's commands.
    """
    problems, work = workload.check(seed, outputs, wf)
    bad = {label for label, _ in problems}
    failed = sum(outputs[cmd.label].failed or cmd.label in bad for cmd in commands)
    return problems, work, passes * len(commands), passes * failed
