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
cannot be opened for writing included.
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
    iter_linear_recycled_normalized_costs as linear_recycled_costs,
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


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)
    return str(value)


def _csv_lines(rows: Iterable[dict]) -> Iterator[str]:
    header = None
    for row in rows:
        if header is None:
            header = list(row)
            yield ",".join(header) + "\n"
        yield ",".join(_cell(row[key]) for key in header) + "\n"


class _OutputError(Exception):
    """An output path that cannot be opened for writing."""


class _WriteError(RuntimeError):
    """An output that could not be written, such as a full disk or a pipe
    whose reader has gone."""


def _open_output(path: str):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror}") from None


@contextmanager
def _writing(handle):
    """Raise an ``OSError`` of the body as a :class:`_WriteError`.

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
        raise _WriteError(f"cannot write {handle.name}: {exc.strerror}") from None


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


def _remove_regular_files(*paths: Optional[str]) -> None:
    """Remove each of ``paths`` that names a regular file, never a device
    such as /dev/null."""
    for path in paths:
        if path and os.path.isfile(path):
            os.remove(path)


def _json_lines(rows: Iterable[dict]) -> Iterator[str]:
    """The text of ``json.dumps(list(rows), indent=2) + "\n"``, row by row.

    A row is a flat dict, and ``json.dumps`` escapes every newline inside a
    string, so indenting each line of its own dump nests it in the list.
    """
    import json  # only here: most commands never load it

    encode = json.JSONEncoder(indent=2).encode  # what json.dumps(indent=2) uses
    separator = "[\n  "
    for row in rows:
        yield separator + encode(row).replace("\n", "\n  ")
        separator = ",\n  "
    yield "[]\n" if separator == "[\n  " else "\n]\n"


def _write_rows(rows: Iterable[dict], fmt: str, handle) -> None:
    """Write ``rows`` (dicts with the same keys) to the open ``handle``.

    Both formats are written row by row as ``rows`` yields them, so a
    generator of rows never has the whole table in memory: the 24 MB linear
    table of ``cost --target 10000`` peaks at about 15.5 MB of resident memory
    in CSV and in JSON (27 and 116 MB when it was built whole first).
    """
    with _writing(handle):
        handle.writelines(_csv_lines(rows) if fmt == "csv" else _json_lines(rows))


def _print_error(message) -> None:
    """One ``wfuse: error:`` line on stderr.  When stderr cannot be written
    the line is lost, but the exit code stays that of the error."""
    with suppress(OSError):
        print(f"wfuse: error: {message}", file=sys.stderr)


def _usage_error(message: str) -> int:
    _print_error(message)
    return 2


def _run_error(exc: RuntimeError) -> int:
    _print_error(exc)
    return 1


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


def _exact_cells(a: int, den: int) -> tuple[str, str, Optional[float]]:
    """The cells of the cost ``a / den``: its numerator and denominator in
    lowest terms, and its float, or None (an empty cell) beyond the float
    range.

    Int true division rounds correctly, so the float is that of the
    ``Fraction`` and overflows where it does.
    """
    divisor = gcd(a, den)
    try:
        value = a / den
    except OverflowError:
        value = None
    return str(a // divisor), str(den // divisor), value


def _rational_cells(prefix: str, a: Optional[int], den: int) -> dict:
    """The num, den and float cells of ``a / den``, all None when ``a`` is."""
    cells = (None, None, None) if a is None else _exact_cells(a, den)
    return dict(zip((f"{prefix}_num", f"{prefix}_den", f"{prefix}_float"), cells))


def _cost_rows(strategy: str, pairs) -> Iterator[dict]:
    """The rows of `cost` from (index n, normalized cost a(n)) pairs."""
    for n, a in pairs:
        num, den, value = _exact_cells(a, n + 2)
        yield {
            "N": n + 2,
            "strategy": strategy,
            "cost_exact_num": num,
            "cost_exact_den": den,
            "cost_float": value,
        }


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
    # --out is opened before any cost is computed, so that an unwritable
    # path fails at once.
    try:
        with _output(args.out) as handle:
            # (index, normalized cost) pairs, made as the rows are written.
            indices = range(1, n_max + 1)
            if args.strategy == "linear":
                pairs = ((n, w3_linear_cost(n)) for n in indices)
            elif args.strategy == "linear-recycled":
                pairs = zip(indices, linear_recycled_costs(max(2, n_max)))
            elif args.strategy == "optimal":
                pairs = zip(indices, optimal_costs(n_max)[0][1:])
            else:
                levels = range(n_max.bit_length())
                pairs = ((2**level, exponential_cost(level)) for level in levels)
            _write_rows(_cost_rows(args.strategy, pairs), args.format, handle)
    except _WriteError as exc:
        # A failed write leaves no truncated table.
        _remove_regular_files(args.out)
        return _run_error(exc)
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


def _cmd_simulate(args) -> int:
    if not 0 <= args.k <= _MAX_K:
        return _usage_error(f"--k must be in 0..{_MAX_K}, got {args.k}")
    if args.runs < 1:
        return _usage_error(f"--runs must be >= 1, got {args.runs}")
    if args.workers < 1:
        return _usage_error(f"--workers must be >= 1, got {args.workers}")
    if args.out and args.dump_runs:
        path = os.path.realpath(args.out)
        # Both are open at once below, and two handles on one file would
        # overwrite each other; two on a device such as /dev/null cannot.
        if path == os.path.realpath(args.dump_runs) and (
            os.path.isfile(path) or not os.path.exists(path)
        ):
            return _usage_error("--out and --dump-runs must be different files")
    # Both paths are opened before the batch, --out first, so an unwritable
    # --out leaves no dump behind (an unwritable dump path leaves --out
    # empty).  The dump is written part by part as the batch makes it, and
    # flushed before the summary row is written, so a dump that fails to
    # write leaves no summary.
    try:
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
            row = {
                "k": stats.k,
                "nominal_N": 2**stats.k + 3,
                "runs": stats.runs,
                "seed": stats.master_seed,
                "mean": stats.mean,
                "std": stats.std,
                "stderr": stats.stderr,
                "min": stats.min,
                "max": stats.max,
            }
            _write_rows([row], args.format, out)
    except RuntimeError as exc:
        # A failed batch or write leaves no output, though the dump may
        # hold rows.
        _remove_regular_files(args.out, args.dump_runs)
        return _run_error(exc)
    return 0


def _cmd_verify_gate(args) -> int:
    for name, size in (("--n", args.n), ("--m", args.m)):
        if not 2 <= size <= 12:
            return _usage_error(f"{name} must be in 2..12, got {size}")
    analytic, simulated, fidelities = verify_probabilities(args.n, args.m)
    # Every float is an int true division, so it is that of the Fraction.
    rows, exact = [], True
    for branch in ("success", "recycle", "failure"):
        an, ad = analytic[branch]
        sn, sd = simulated[branch]
        fn, fd = fidelities[branch]
        deviation = abs(sn * ad - an * sd)
        exact = exact and deviation == 0 and fn == fd
        rows.append(
            {
                "N": args.n,
                "M": args.m,
                "branch": branch,
                "analytic": an / ad,
                "simulated": sn / sd,
                "abs_error": deviation / (sd * ad),
                "fidelity": fn / fd,
            }
        )
    try:
        with _output(args.out) as handle:
            _write_rows(rows, args.format, handle)
    except _WriteError as exc:
        # A failed write leaves no truncated table.
        _remove_regular_files(args.out)
        return _run_error(exc)
    return 0 if exact else 1


def _cmd_figure4(args) -> int:
    if not 0 <= args.max_k <= _MAX_K:
        return _usage_error(f"--max-k must be in 0..{_MAX_K}, got {args.max_k}")
    if args.runs < 1:
        return _usage_error(f"--runs must be >= 1, got {args.runs}")
    if args.workers < 1:
        return _usage_error(f"--workers must be >= 1, got {args.workers}")
    n_max = 2**args.max_k + 1
    # Stage k reuses the per-run seed derivation with run indices offset by
    # k * runs, so every (stage, run) pair has a distinct stream.  Each stage
    # forks its own workers; a worker's fork, exit and wait take about 2 ms.
    workers = _worker_processes(args.workers)
    # --out is opened before any cost or batch is computed, so that an
    # unwritable path fails at once.
    try:
        with _output(args.out) as handle:
            optimal_a, _ = optimal_costs(n_max)
            batches = {
                k: simulate_batch(k, args.runs, args.seed + k * args.runs, workers=workers)
                for k in range(args.max_k + 1)
            }
            mc_rows = {2**k + 3: stats for k, stats in batches.items()}
            _write_rows(_figure4_rows(n_max, optimal_a, mc_rows), args.format, handle)
    except RuntimeError as exc:
        # A failed batch or write leaves no output.
        _remove_regular_files(args.out)
        return _run_error(exc)
    return 0


def _figure4_rows(n_max: int, optimal_a: list, mc_rows: dict) -> Iterator[dict]:
    """The rows of `figure4` for indices 1..n_max, from the optimal DP's
    normalized costs and the batch statistics keyed by actual size."""
    recycled = linear_recycled_costs(max(2, n_max))
    for n, recycled_a in zip(range(1, n_max + 1), recycled):
        size = n + 2
        row = {"N": size}
        row.update(_rational_cells("linear", w3_linear_cost(n), size))
        row.update(_rational_cells("linear_recycled", recycled_a, size))
        row.update(_rational_cells("optimal", optimal_a[n], size))
        exp_a = exponential_cost(n.bit_length() - 1) if n & (n - 1) == 0 else None
        row.update(_rational_cells("exponential", exp_a, size))
        stats = mc_rows.get(size)
        row["mc_k"] = stats.k if stats else None
        row["mc_runs"] = stats.runs if stats else None
        row["mc_mean"] = stats.mean if stats else None
        row["mc_stderr"] = stats.stderr if stats else None
        yield row


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
    try:
        return args.func(args)
    except _OutputError as exc:
        return _usage_error(str(exc))
    except _WriteError as exc:
        return _run_error(exc)


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
