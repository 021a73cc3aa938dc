"""``wfuse``: deterministic CSV/JSON tables for every cost curve and run.

Subcommands:

* ``cost``        exact cost table of one analytic strategy;
* ``simulate``    seeded Monte Carlo batch of the similar-sizes strategy;
* ``verify-gate`` amplitude-level check of the gate against closed forms;
* ``figure4``     combined table of all strategy curves plus MC means.

The CLI speaks in actual photon counts (``N >= 3``); conversion to the
library's additive index ``n = N - 2`` happens only here.  Every output is
a pure function of the flag set, seeds included: rerunning a command
reproduces it byte for byte.  Exit codes: 0 success, 1 verification
failure, a Monte Carlo run over its step budget, a worker process that
could not be started or that ended early, or an output that could not be
written (a full disk, a closed pipe), 2 usage error, an output path that
cannot be opened for writing included, 130 interrupted (Ctrl-C).

One failure policy holds for every command: each validates its flags,
opens its outputs and only then computes.  A command whose batch or write
fails removes the regular files it opened (``--out`` and ``--dump-runs``,
never a device such as /dev/null; through a symlink, its target) and
exits 1; an interrupted command removes them too and exits 130; an output
that cannot be opened exits 2 and removes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext, suppress
from math import gcd
from typing import Iterable, Iterator, Optional

# The commands compute the integer forms, the normalized costs
# a(n) = (n+2) R(n) and the gate check's (num, den) ratios, so that no
# command builds a Fraction or loads fractions, decimal and numbers.  They
# keep the names of the Fraction functions because the benchmark's tracer
# (perfbench/tracing.py) times the layer calls made through these five
# names of ``wfuse.cli``.
from .growth_costs import (
    exponential_normalized_cost as exponential_cost,
    linear_recycled_normalized_cost as linear_recycled_costs,
    w3_linear_normalized_cost as w3_linear_cost,
)
from .optimal import optimal_normalized_costs as optimal_costs
from .gate import verify_weights as verify_probabilities
from .simulate import simulate_batch

_FLOAT_FMT = ".17g"
# Largest stage k that `simulate --k` and `figure4 --max-k` accept: the
# expected cost of a run grows about 3.6x per stage.
_MAX_K = 8
# Largest actual size N that `cost --target` accepts.  At the bound the
# optimal table takes 4.5 to 6.5 s (shared 2-core host, CPython 3.11) and
# the linear table writes 24 MB (25 MB as JSON); the linear table's size
# grows quadratically in N.  Tables are written row by row from the
# integer forms, so memory does not grow with the text: at the bound every
# table peaks at about 15.5 MB of resident memory in CSV and JSON, the
# optimal one at 16.5 MB, whose DP list of normalized costs is held whole.
_MAX_TARGET = 10_000
# Rows of a `simulate --dump-runs` file rendered by one format operation.
# The dump is written one batch part at a time, and each part in chunks of
# this many rows: a chunk's 3,072 cells, their tuple, the format string and
# the text peak at about 0.1 MiB of allocations (tracemalloc, k = 1,
# 100k runs; 0.4 MiB at 4,096 rows).
_DUMP_CHUNK = 1024
_WORKERS_HELP = (
    "worker processes, at most the number of CPUs (default 1); "
    "the output does not depend on it"
)
# The columns of each table, in the order of the cells of its row tuples.
_COST_HEADER = ("N", "strategy", "cost_exact_num", "cost_exact_den", "cost_float")
_SIMULATE_HEADER = ("k", "nominal_N", "runs", "seed", "mean", "std", "stderr", "min", "max")
_GATE_HEADER = ("N", "M", "branch", "analytic", "simulated", "abs_error", "fidelity")
_FIGURE4_HEADER = (
    "N",
    *(
        f"{strategy}_{cell}"
        for strategy in ("linear", "linear_recycled", "optimal", "exponential")
        for cell in ("num", "den", "float")
    ),
    *("mc_k", "mc_runs", "mc_mean", "mc_stderr"),
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)
    return str(value)


def _csv_lines(header: tuple, rows: Iterable[tuple]) -> Iterator[str]:
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(_cell, row)) + "\n"


class _OutputError(Exception):
    """An output path that cannot be opened for writing."""


# The real paths of the files the running command has opened, which _run
# removes when the command fails.
_opened: list[str] = []


def _open_output(path: str):
    try:
        handle = open(path, "w", newline="")
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror}") from None
    # Through a symlink, the file written is the link's target.
    _opened.append(os.path.realpath(path))
    return handle


@contextmanager
def _writing(handle):
    """Raise an ``OSError`` of the body, such as a full disk or a pipe
    whose reader has gone, as a ``RuntimeError``.

    When ``handle`` is stdout, stdout is first pointed at ``os.devnull``,
    so that the flush at exit does not fail again on the text left in its
    buffer.
    """
    try:
        yield
    except OSError as exc:
        if handle is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        raise RuntimeError(f"cannot write {handle.name}: {exc.strerror}") from None


@contextmanager
def _output(path: Optional[str]):
    """An open handle on ``path``, or stdout when ``path`` is None, flushed
    or closed on leaving.  An empty path cannot be opened, like any other
    path that names no file."""
    if path is None:
        yield sys.stdout
        with _writing(sys.stdout):
            sys.stdout.flush()
        return
    handle = _open_output(path)
    try:
        yield handle
    finally:
        with _writing(handle):
            handle.close()


def _json_lines(header: tuple, rows: Iterable[tuple]) -> Iterator[str]:
    """The text of ``json.dumps([dict(zip(header, row)) for row in rows],
    indent=2) + "\n"``, row by row.

    A row is flat, and ``json.dumps`` escapes every newline inside a
    string, so indenting each line of its own dump nests it in the list.
    """
    import json  # only here: most commands never load it

    encode = json.JSONEncoder(indent=2).encode  # what json.dumps(indent=2) uses
    separator = "[\n  "
    for row in rows:
        yield separator + encode(dict(zip(header, row))).replace("\n", "\n  ")
        separator = ",\n  "
    yield "[]\n" if separator == "[\n  " else "\n]\n"


def _write_rows(header: tuple, rows: Iterable[tuple], fmt: str, handle) -> None:
    """Write ``rows``, tuples of the cells under ``header``, to the open
    ``handle``.

    Both formats are written row by row as ``rows`` yields them, so a
    generator of rows never has the whole table in memory: the 24 MB linear
    table of ``cost --target 10000`` peaks at about 15.5 MB of resident memory
    in CSV and in JSON (27 and 116 MB when it was built whole first).  A CSV
    table of no rows would be its header line alone, but every command
    writes at least one row.
    """
    lines = _csv_lines if fmt == "csv" else _json_lines
    with _writing(handle):
        handle.writelines(lines(header, rows))


def _print_error(message) -> None:
    """One ``wfuse: error:`` line on stderr.  When stderr cannot be written
    the line is lost, but the exit code stays that of the error."""
    with suppress(OSError):
        print(f"wfuse: error: {message}", file=sys.stderr)


def _usage_error(message: str) -> int:
    _print_error(message)
    return 2


def _worker_processes(requested: int) -> int:
    """``--workers`` capped at the number of CPUs this process may run on:
    ``os.sched_getaffinity(0)`` where it exists, else ``os.cpu_count()``
    (1 when that is unknown).  ``os.cpu_count()`` counts the host's CPUs,
    also those an affinity mask such as ``taskset`` excludes.

    No output depends on the number of workers, so the cap changes no byte.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(requested, cpus)


def _exact_cells(a: Optional[int], den: int) -> tuple:
    """The cells of the cost ``a / den``: its numerator and denominator in
    lowest terms, and its float, or None (an empty cell) beyond the float
    range.  All three are None when ``a`` is.

    Int true division rounds correctly, so the float is that of the
    ``Fraction`` and overflows where it does.
    """
    if a is None:
        return None, None, None
    divisor = gcd(a, den)
    try:
        value = a / den
    except OverflowError:
        value = None
    return str(a // divisor), str(den // divisor), value


def _cmd_cost(args) -> int:
    target = args.target
    if not 3 <= target <= _MAX_TARGET:
        return _usage_error(
            f"--target must be an actual size in 3..{_MAX_TARGET}, got {target}"
        )
    n_max = target - 2
    if args.strategy == "exponential" and n_max & (n_max - 1):
        return _usage_error(
            "exponential growth reaches only sizes with N - 2 a power "
            f"of two; N = {target} is not one"
        )
    with _output(args.out) as handle:
        # (index, normalized cost) pairs, made as the rows are written.
        indices = range(1, n_max + 1)
        if args.strategy == "linear":
            pairs = ((n, w3_linear_cost(n)) for n in indices)
        elif args.strategy == "linear-recycled":
            pairs = ((n, linear_recycled_costs(n)) for n in indices)
        elif args.strategy == "optimal":
            pairs = zip(indices, optimal_costs(n_max)[0][1:])
        else:
            levels = range(n_max.bit_length())
            pairs = ((2**level, exponential_cost(level)) for level in levels)
        rows = ((n + 2, args.strategy, *_exact_cells(a, n + 2)) for n, a in pairs)
        _write_rows(_COST_HEADER, rows, args.format, handle)
    return 0


def _write_dump(handle, start, costs, final_sizes) -> None:
    """Write the `--dump-runs` rows of runs ``start``, ``start + 1``, ...:
    run index, cost and final actual size.

    Every cell is an int, so the rows that _csv_lines would render are
    formatted directly, with one ``%`` operation per chunk of rows.
    """
    for lo in range(0, len(costs), _DUMP_CHUNK):
        hi = min(lo + _DUMP_CHUNK, len(costs))
        cells = [0] * (3 * (hi - lo))
        cells[0::3] = range(start + lo, start + hi)
        cells[1::3] = costs[lo:hi]
        cells[2::3] = [size + 2 for size in final_sizes[lo:hi]]
        handle.write(("%d,%d,%d\n" * (hi - lo)) % tuple(cells))


def _dump_writer(handle):
    """Write the `--dump-runs` header to ``handle``; return the
    ``simulate_batch`` part callback that writes each part's rows."""
    # The header only fills the new file's buffer, so it cannot fail here.
    handle.write("run,cost,final_N\n")
    start = 0

    def write_part(costs, final_sizes):
        nonlocal start
        with _writing(handle):
            _write_dump(handle, start, costs, final_sizes)
        start += len(costs)

    return write_part


def _batch_flags_error(stage_flag: str, stage: int, args) -> Optional[str]:
    """The usage error of a Monte Carlo command's stage bound, ``--runs`` or
    ``--workers``, checked in that order, or None when all three hold."""
    if not 0 <= stage <= _MAX_K:
        return f"{stage_flag} must be in 0..{_MAX_K}, got {stage}"
    if args.runs < 1:
        return f"--runs must be >= 1, got {args.runs}"
    if args.workers < 1:
        return f"--workers must be >= 1, got {args.workers}"
    return None


def _cmd_simulate(args) -> int:
    if error := _batch_flags_error("--k", args.k, args):
        return _usage_error(error)
    if args.out and args.dump_runs:
        path = os.path.realpath(args.out)
        same = path == os.path.realpath(args.dump_runs)
        # A hard link is one file under another real path; a path that does
        # not exist yet has no file to compare.
        with suppress(OSError):
            same = same or os.path.samefile(path, args.dump_runs)
        # Both are open at once below, and two handles on one file would
        # overwrite each other; two on a device such as /dev/null cannot.
        if same and (os.path.isfile(path) or not os.path.exists(path)):
            return _usage_error("--out and --dump-runs must be different files")
    # Both paths are opened before the batch, --out first, so an unwritable
    # --out leaves no dump behind (an unwritable dump path leaves --out
    # empty).  The dump is written part by part as the batch makes it, and
    # flushed before the summary row is written, so a dump that fails to
    # write leaves no summary.
    with _output(args.out) as out, (
        _output(args.dump_runs) if args.dump_runs is not None else nullcontext()
    ) as dump:
        stats = simulate_batch(
            args.k,
            args.runs,
            args.seed,
            workers=_worker_processes(args.workers),
            on_part=_dump_writer(dump) if dump is not None else None,
        )
        if dump is not None:
            with _writing(dump):
                dump.flush()
        # The fields of BatchStats after k are the columns after nominal_N.
        row = (stats.k, 2**stats.k + 3, *stats[1:])
        _write_rows(_SIMULATE_HEADER, [row], args.format, out)
    return 0


def _cmd_verify_gate(args) -> int:
    for name, size in (("--n", args.n), ("--m", args.m)):
        if not 2 <= size <= 12:
            return _usage_error(f"{name} must be in 2..12, got {size}")
    with _output(args.out) as handle:
        analytic, simulated, fidelities = verify_probabilities(args.n, args.m)
        # Every float is an int true division, so it is that of the Fraction.
        rows, exact = [], True
        for branch in ("success", "recycle", "failure"):
            an, ad = analytic[branch]
            sn, sd = simulated[branch]
            fn, fd = fidelities[branch]
            deviation = abs(sn * ad - an * sd)
            exact = exact and deviation == 0 and fn == fd
            rows.append((args.n, args.m, branch, an / ad, sn / sd, deviation / (sd * ad), fn / fd))
        _write_rows(_GATE_HEADER, rows, args.format, handle)
    return 0 if exact else 1


def _cmd_figure4(args) -> int:
    if error := _batch_flags_error("--max-k", args.max_k, args):
        return _usage_error(error)
    n_max = 2**args.max_k + 1
    # Stage k reuses the per-run seed derivation with run indices offset by
    # k * runs, so every (stage, run) pair has a distinct stream.  Each stage
    # forks its own workers; a worker's fork, exit and wait take about 2 ms.
    workers = _worker_processes(args.workers)
    with _output(args.out) as handle:
        optimal_a, _ = optimal_costs(n_max)
        batches = {
            k: simulate_batch(k, args.runs, args.seed + k * args.runs, workers=workers)
            for k in range(args.max_k + 1)
        }
        mc_rows = {2**k + 3: stats for k, stats in batches.items()}
        _write_rows(_FIGURE4_HEADER, _figure4_rows(n_max, optimal_a, mc_rows), args.format, handle)
    return 0


def _figure4_rows(n_max: int, optimal_a: list, mc_rows: dict) -> Iterator[tuple]:
    """The rows of `figure4` for indices 1..n_max, from the optimal DP's
    normalized costs and the batch statistics keyed by actual size."""
    for n in range(1, n_max + 1):
        size = n + 2
        exp_a = exponential_cost(n.bit_length() - 1) if n & (n - 1) == 0 else None
        stats = mc_rows.get(size)
        yield (
            size,
            *_exact_cells(w3_linear_cost(n), size),
            *_exact_cells(linear_recycled_costs(n), size),
            *_exact_cells(optimal_a[n], size),
            *_exact_cells(exp_a, size),
            *((stats.k, stats.runs, stats.mean, stats.stderr) if stats else (None,) * 4),
        )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output encoding"
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="write to PATH instead of stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfuse",
        description="Resource costs and simulation of the W-state fusion gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cost = sub.add_parser("cost", help="exact cost table of one strategy")
    cost.add_argument(
        "--strategy",
        required=True,
        choices=("linear", "linear-recycled", "optimal", "exponential"),
    )
    cost.add_argument(
        "--target",
        type=int,
        required=True,
        help=f"largest actual size N (3..{_MAX_TARGET}) to tabulate",
    )
    _add_output_flags(cost)
    cost.set_defaults(func=_cmd_cost)

    simulate = sub.add_parser(
        "simulate", help="Monte Carlo batch of the similar-sizes strategy"
    )
    simulate.add_argument("--k", type=int, required=True, help="target bucket stage")
    simulate.add_argument("--runs", type=int, default=1000)
    simulate.add_argument(
        "--seed",
        type=int,
        required=True,
        help="master seed (explicit, so published tables replay exactly)",
    )
    simulate.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    simulate.add_argument(
        "--dump-runs", metavar="PATH", default=None, help="also write per-run costs"
    )
    _add_output_flags(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    verify = sub.add_parser(
        "verify-gate", help="check gate amplitudes against closed forms"
    )
    verify.add_argument("--n", type=int, required=True, help="actual size of state A")
    verify.add_argument("--m", type=int, required=True, help="actual size of state B")
    _add_output_flags(verify)
    verify.set_defaults(func=_cmd_verify_gate)

    figure4 = sub.add_parser(
        "figure4", help="combined strategy-comparison table (all curves)"
    )
    figure4.add_argument("--max-k", type=int, default=6, dest="max_k")
    figure4.add_argument("--runs", type=int, default=1000)
    figure4.add_argument("--seed", type=int, required=True)
    figure4.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    _add_output_flags(figure4)
    figure4.set_defaults(func=_cmd_figure4)

    return parser


def _run(args) -> int:
    """Run the command of ``args`` under the one failure policy.

    A ``RuntimeError`` (a failed batch or write) or a ``KeyboardInterrupt``
    (Ctrl-C) removes the regular files the command opened, never a device
    such as /dev/null, and a symlink's target rather than the link.  Only
    files it opened are removed: a command must never delete an existing
    file that it failed, or was interrupted, before opening.
    """
    _opened.clear()
    try:
        return args.func(args)
    except _OutputError as exc:
        return _usage_error(str(exc))
    except (RuntimeError, KeyboardInterrupt) as exc:
        for path in _opened:
            if os.path.isfile(path):
                os.remove(path)
        if isinstance(exc, KeyboardInterrupt):
            _print_error("interrupted")
            return 130
        _print_error(exc)
        return 1


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(args)
    # Exact costs pass the default 4300-digit cap on int -> str conversion
    # (linear growth at N = 9014); lift it while this command runs.
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
