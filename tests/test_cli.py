import errno
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import wfuse.cli
import wfuse.simulate
from wfuse.cli import _csv_lines, _json_lines, main
from wfuse.gate import verify_probabilities
from wfuse.growth_costs import exponential_cost, linear_recycled_costs, w3_linear_cost
from wfuse.optimal import optimal_costs
from wfuse.rng import stream_for_run
from wfuse.simulate import run_similar_sizes, simulate_batch

SRC = Path(wfuse.simulate.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def allow_cpus(monkeypatch, cpus):
    """Let this process run on ``cpus`` CPUs, as the CLI counts them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def fraction_cells(value, fmt):
    """The num, den and float cells of ``value`` (a ``Fraction`` or None),
    as `cost` and `figure4` print them in format ``fmt``: rendered from the
    ``Fraction`` itself, and blank beyond the float range."""
    if value is None:
        return ["", "", ""] if fmt == "csv" else [None, None, None]
    try:
        number = float(value)
    except OverflowError:
        number = None
    if fmt == "csv":
        number = "" if number is None else format(number, ".17g")
    return [str(value.numerator), str(value.denominator), number]


def parse_rows(text, fmt):
    return parse_csv(text) if fmt == "csv" else json.loads(text)


@contextmanager
def int_str_digits(limit):
    """Set Python's cap on int <-> str digits (where it exists), then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


class TestCostCommand:
    def test_optimal_table(self, capsys):
        code, out = run_cli(capsys, "cost", "--strategy", "optimal", "--target", "6")
        assert code == 0
        rows = parse_csv(out)
        last = rows[-1]
        assert last["N"] == "6"
        assert (last["cost_exact_num"], last["cost_exact_den"]) == ("24", "1")

    def test_linear_table(self, capsys):
        code, out = run_cli(capsys, "cost", "--strategy", "linear", "--target", "5")
        assert code == 0
        rows = parse_csv(out)
        assert [r["N"] for r in rows] == ["3", "4", "5"]
        assert (rows[-1]["cost_exact_num"], rows[-1]["cost_exact_den"]) == ("66", "5")

    def test_exponential_stages(self, capsys):
        code, out = run_cli(
            capsys, "cost", "--strategy", "exponential", "--target", "4"
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["N"] for r in rows] == ["3", "4"]
        assert (rows[-1]["cost_exact_num"], rows[-1]["cost_exact_den"]) == ("9", "2")

    def test_exponential_rejects_non_stage_target(self, capsys):
        assert main(["cost", "--strategy", "exponential", "--target", "5"]) == 2

    def test_rejects_tiny_target(self, capsys):
        assert main(["cost", "--strategy", "optimal", "--target", "2"]) == 2

    @pytest.mark.parametrize(
        "strategy", ["linear", "linear-recycled", "optimal", "exponential"]
    )
    def test_rejects_target_above_the_bound(self, capsys, strategy):
        target = str(wfuse.cli._MAX_TARGET + 1)
        assert main(["cost", "--strategy", strategy, "--target", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wfuse: error: --target must be")

    @pytest.mark.parametrize(
        "argv, last",
        [
            (
                ["cost", "--strategy", "optimal", "--target", "4"],
                {"cost_exact_num": "9", "cost_float": 4.5},
            ),
            (["simulate", "--k", "1", "--runs", "5", "--seed", "2"], {"k": 1, "runs": 5}),
            (["verify-gate", "--n", "3", "--m", "4"], {"branch": "failure", "fidelity": 1.0}),
            (
                ["figure4", "--max-k", "1", "--runs", "5", "--seed", "2"],
                {"N": 5, "mc_k": 1, "exponential_num": None},
            ),
        ],
        ids=["cost", "simulate", "verify-gate", "figure4"],
    )
    def test_json_mirrors_csv_fields(self, capsys, argv, last):
        code, csv_out = run_cli(capsys, *argv)
        code, json_out = run_cli(capsys, *argv, "--format", "json")
        csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)
        assert [list(r.keys()) for r in json_rows] == [
            list(r.keys()) for r in csv_rows
        ]
        assert {key: json_rows[-1][key] for key in last} == last

    def test_costs_beyond_float_range_keep_exact_cells(self, capsys):
        code, out = run_cli(
            capsys, "cost", "--strategy", "linear-recycled", "--target", "3002"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3000
        costs = linear_recycled_costs(3000)
        for n, row in enumerate(rows, start=1):
            assert row["N"] == str(n + 2)
            assert (row["cost_exact_num"], row["cost_exact_den"]) == (
                str(costs[n].numerator),
                str(costs[n].denominator),
            )
            # float(cost) overflows from N = 1033 on
            assert (row["cost_float"] == "") == (n + 2 >= 1033)

    def test_json_null_beyond_float_range(self, capsys):
        code, out = run_cli(
            capsys, "cost", "--strategy", "linear", "--target", "654",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[-2]["N"] == 653 and rows[-2]["cost_float"] > 1e308
        assert rows[-1]["N"] == 654 and rows[-1]["cost_float"] is None
        assert int(rows[-1]["cost_exact_num"]) > 0

    def test_exact_cells_beyond_the_int_str_digit_cap(self, capsys):
        # The numerator of w3_linear_cost(9012) has 4301 digits, one more than
        # Python's default cap on int -> str conversion.
        with int_str_digits(4300):
            code, out = run_cli(capsys, "cost", "--strategy", "linear", "--target", "9014")
            if hasattr(sys, "get_int_max_str_digits"):
                assert sys.get_int_max_str_digits() == 4300  # main() restored it
        assert code == 0
        rows = parse_csv(out)
        assert [row["N"] for row in rows] == [str(n + 2) for n in range(1, 9013)]
        cost = w3_linear_cost(9012)
        with int_str_digits(0):
            assert (rows[-1]["cost_exact_num"], rows[-1]["cost_exact_den"]) == (
                str(cost.numerator),
                str(cost.denominator),
            )
        assert len(rows[-1]["cost_exact_num"]) == 4301

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "strategy, target, last_float_n",
        [
            ("linear", 654, 653),
            ("linear-recycled", 1033, 1032),
            ("optimal", 300, None),
            ("exponential", 1026, None),
        ],
    )
    def test_cells_match_fraction_rendering(self, capsys, fmt, strategy, target, last_float_n):
        code, out = run_cli(
            capsys, "cost", "--strategy", strategy, "--target", str(target), "--format", fmt
        )
        assert code == 0
        rows = parse_rows(out, fmt)
        n_max = target - 2
        if strategy == "linear":
            expected = {n: w3_linear_cost(n) for n in range(1, n_max + 1)}
        elif strategy == "linear-recycled":
            expected = dict(enumerate(linear_recycled_costs(n_max)))
            del expected[0]
        elif strategy == "optimal":
            table = optimal_costs(n_max)
            expected = {n: table.cost(n) for n in range(1, n_max + 1)}
        else:
            expected = {2**l: exponential_cost(l) for l in range(n_max.bit_length())}
        assert [int(row["N"]) - 2 for row in rows] == list(expected)
        for row in rows:
            cells = [row["cost_exact_num"], row["cost_exact_den"], row["cost_float"]]
            assert cells == fraction_cells(expected[int(row["N"]) - 2], fmt), row["N"]
        if last_float_n is not None:
            # The float cell is blank from the first N whose cost overflows.
            assert rows[-2]["N"] in (last_float_n, str(last_float_n))
            assert rows[-2]["cost_float"] not in ("", None)
            assert rows[-1]["cost_float"] in ("", None)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out = run_cli(
            capsys, "cost", "--strategy", "optimal", "--target", "4", "--out", str(path)
        )
        assert code == 0 and out == ""
        assert path.read_text().startswith("N,strategy,")

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        argv = ["cost", "--strategy", "optimal", "--target", "10", "--out", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"wfuse: error: cannot write {path}: No such file or directory\n"
        )


class TestSimulateCommand:
    def test_stats_row(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--k", "0", "--runs", "400", "--seed", "7"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["k"] == "0" and row["nominal_N"] == "4"
        assert row["runs"] == "400" and row["seed"] == "7"
        assert 4.0 < float(row["mean"]) < 5.0

    def test_missing_seed_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--k", "0", "--runs", "10"])
        assert excinfo.value.code == 2

    def test_rejects_bad_runs(self, capsys):
        assert main(["simulate", "--k", "0", "--runs", "0", "--seed", "1"]) == 2

    @pytest.mark.parametrize("k", ["-1", "9"])
    def test_rejects_k_outside_figure4_range(self, capsys, k):
        assert main(["simulate", "--k", k, "--runs", "1", "--seed", "1"]) == 2
        assert "--k must be in 0..8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "figure4"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_rejects_workers_below_one(self, capsys, command, workers):
        stage = ["--k", "0"] if command == "simulate" else ["--max-k", "0"]
        argv = [command, *stage, "--runs", "1", "--seed", "1", "--workers", workers]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--workers must be >= 1" in captured.err

    def test_dump_runs(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        code, _ = run_cli(
            capsys,
            "simulate", "--k", "0", "--runs", "25", "--seed", "3",
            "--dump-runs", str(path),
        )
        assert code == 0
        dumped = parse_csv(path.read_text())
        assert len(dumped) == 25
        assert [r["run"] for r in dumped] == [str(i) for i in range(25)]
        assert all(int(r["final_N"]) >= 4 for r in dumped)  # 2^0 + 3
        parts = []
        simulate_batch(0, 25, 3, on_part=lambda *part: parts.append(part))
        ((costs, sizes),) = parts
        rows = ((i, cost, size + 2) for i, (cost, size) in enumerate(zip(costs, sizes)))
        header = ("run", "cost", "final_N")
        assert path.read_bytes() == "".join(_csv_lines(header, rows)).encode()

    def test_unwritable_dump_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "d.csv"
        argv = ["simulate", "--k", "0", "--runs", "3", "--seed", "1", "--dump-runs", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"wfuse: error: cannot write {path}: No such file or directory\n"
        )

    def test_unwritable_out_leaves_no_dump(self, capsys, tmp_path):
        dump = tmp_path / "d.csv"
        out = tmp_path / "missing" / "x.csv"
        argv = [
            "simulate", "--k", "0", "--runs", "3", "--seed", "1",
            "--dump-runs", str(dump), "--out", str(out),
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"wfuse: error: cannot write {out}: No such file or directory\n"
        )
        assert not dump.exists()

    def test_out_and_dump_on_one_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "both.csv"
        argv = [
            "simulate", "--k", "0", "--runs", "3", "--seed", "1",
            "--dump-runs", str(path), "--out", str(tmp_path / "." / "both.csv"),
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "wfuse: error: --out and --dump-runs must be different files\n"
        )
        assert not path.exists()

    # A hard link is one file under two real paths: the summary would
    # overwrite the dump.
    @pytest.mark.parametrize(
        "make_link", [None, os.symlink, os.link], ids=["same-path", "symlink", "hardlink"]
    )
    def test_out_and_dump_on_one_existing_file_is_usage_error(
        self, capsys, tmp_path, make_link
    ):
        path = tmp_path / "both.csv"
        path.write_text("kept\n")
        other = path
        if make_link is not None:
            other = tmp_path / "link.csv"
            make_link(path, other)
        argv = [
            "simulate", "--k", "0", "--runs", "3", "--seed", "1",
            "--dump-runs", str(path), "--out", str(other),
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "wfuse: error: --out and --dump-runs must be different files\n"
        )
        assert path.read_text() == "kept\n"

    def test_out_and_dump_on_one_device(self, capsys):
        argv = [
            "simulate", "--k", "0", "--runs", "3", "--seed", "1",
            "--dump-runs", os.devnull, "--out", os.devnull,
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_negative_seed_dump_replays_stream_for_run(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        code, _ = run_cli(
            capsys,
            "simulate", "--k", "1", "--runs", "300", "--seed", "-7",
            "--dump-runs", str(path),
        )
        assert code == 0
        dumped = parse_csv(path.read_text())
        assert len(dumped) == 300
        for i, row in enumerate(dumped):
            result = run_similar_sizes(1, stream_for_run(-7, i))
            assert row == {
                "run": str(i),
                "cost": str(result.cost),
                "final_N": str(result.final_size + 2),
            }

    @staticmethod
    def assert_dumps_replay_stream_for_run(capsys, monkeypatch, tmp_path, runs, seed):
        """The `--dump-runs` files of ``runs`` k = 0 runs, made with 1 and 2
        workers, both hold every run's replay through stream_for_run."""
        allow_cpus(monkeypatch, 2)
        dumps = []
        for workers in ("1", "2"):
            path = tmp_path / f"runs{workers}.csv"
            code, _ = run_cli(
                capsys,
                "simulate", "--k", "0", "--runs", str(runs), "--seed", str(seed),
                "--workers", workers, "--dump-runs", str(path),
            )
            assert code == 0
            dumps.append(path.read_bytes())
        expected = ["run,cost,final_N\n"]
        for i in range(runs):
            result = run_similar_sizes(0, stream_for_run(seed, i))
            expected.append(f"{i},{result.cost},{result.final_size + 2}\n")
        assert dumps[0] == "".join(expected).encode()
        assert dumps[1] == dumps[0]

    def test_dump_across_render_chunks_replays_stream_for_run(self, capsys, monkeypatch, tmp_path):
        # Two full render chunks and a one-row tail, with 1 and 2 workers.
        runs = 2 * wfuse.cli._DUMP_CHUNK + 1
        self.assert_dumps_replay_stream_for_run(capsys, monkeypatch, tmp_path, runs, 31)

    def test_dump_across_batch_parts_replays_stream_for_run(self, capsys, monkeypatch, tmp_path):
        # Two full ranges and a 3-run tail: at 1 worker two parts of
        # _RANGE_CAP runs, each rendered in several chunks, and the tail;
        # at 2 workers 15 parts of 257 runs and one of 244.
        runs = 2 * wfuse.simulate._RANGE_CAP + 3
        self.assert_dumps_replay_stream_for_run(capsys, monkeypatch, tmp_path, runs, 43)

    @pytest.mark.parametrize("command", ["simulate", "figure4", "figure4-out"])
    def test_step_budget_overrun_exits_one(self, capsys, monkeypatch, tmp_path, command):
        def overrun(k, rng, **kwargs):
            raise RuntimeError(f"step budget 10 exceeded at k={k}")

        monkeypatch.setattr(wfuse.simulate, "run_similar_sizes", overrun)
        # The dump of simulate, the --out file of figure4: removed either way;
        # figure4 on stdout prints nothing.
        path = tmp_path / "written.csv"
        if command == "simulate":
            argv = ["simulate", "--k", "0", "--dump-runs", str(path)]
        elif command == "figure4":
            argv = ["figure4", "--max-k", "1"]
        else:
            argv = ["figure4", "--max-k", "1", "--out", str(path)]
        assert main([*argv, "--runs", "5", "--seed", "1", "--workers", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "wfuse: error: step budget 10 exceeded at k=0\n"
        assert not path.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_batch_removes_written_output(self, capsys, monkeypatch, tmp_path, workers):
        # Every process's kernel fails on its first call after one full
        # range, so the dump already holds rows when the batch fails.
        kernel = wfuse.simulate.run_similar_sizes
        calls = itertools.count()

        def fail_after_a_range(k, draws, **kwargs):
            if next(calls) == wfuse.simulate._RANGE_CAP:
                raise RuntimeError(f"step budget 10 exceeded at k={k}")
            return kernel(k, draws, **kwargs)

        write_dump = wfuse.cli._write_dump
        written = []

        def record_dump(handle, start, costs, final_sizes):
            written.append(start)
            write_dump(handle, start, costs, final_sizes)

        monkeypatch.setattr(wfuse.simulate, "run_similar_sizes", fail_after_a_range)
        monkeypatch.setattr(wfuse.cli, "_write_dump", record_dump)
        allow_cpus(monkeypatch, 2)
        dump, out = tmp_path / "runs.csv", tmp_path / "row.csv"
        runs = str(4 * wfuse.simulate._RANGE_CAP)
        argv = [
            "simulate", "--k", "0", "--runs", runs, "--seed", "1", "--workers", workers,
            "--dump-runs", str(dump), "--out", str(out),
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "wfuse: error: step budget 10 exceeded at k=0\n"
        assert written[0] == 0
        assert not dump.exists() and not out.exists()

    def test_worker_that_ends_early_exits_one(self, capsys, monkeypatch, tmp_path):
        # Each worker ends, with status 0, when it starts its second range
        # of 10 runs; the short batch must not pass for a whole one.
        parent = os.getpid()
        kernel = wfuse.simulate.run_similar_sizes
        calls = itertools.count()

        def exit_after_a_range(k, draws, **kwargs):
            if os.getpid() != parent and next(calls) == 10:
                os._exit(0)
            return kernel(k, draws, **kwargs)

        monkeypatch.setattr(wfuse.simulate, "run_similar_sizes", exit_after_a_range)
        allow_cpus(monkeypatch, 2)
        dump, out = tmp_path / "runs.csv", tmp_path / "row.csv"
        argv = [
            "simulate", "--k", "0", "--runs", "160", "--seed", "1", "--workers", "2",
            "--dump-runs", str(dump), "--out", str(out),
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "wfuse: error: a worker process ended early with exit status 0\n"
        assert not dump.exists() and not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "figure4"])
    @pytest.mark.parametrize(
        "function, failing_call, error",
        [
            pytest.param("fork", 0, errno.EAGAIN, id="first-fork"),
            pytest.param("fork", 1, errno.EAGAIN, id="second-fork"),
            pytest.param("pipe", 1, errno.EMFILE, id="second-pipe"),
        ],
    )
    def test_worker_that_cannot_start_exits_one(
        self, capsys, monkeypatch, tmp_path, command, function, failing_call, error
    ):
        # The call fails at once, or after one worker has started, which
        # must then be killed and reaped (the no_child_process_left fixture).
        real = getattr(os, function)
        calls = itertools.count()

        def fail_once(*args):
            if next(calls) == failing_call:
                raise OSError(error, os.strerror(error))
            return real(*args)

        monkeypatch.setattr(os, function, fail_once)
        allow_cpus(monkeypatch, 2)
        dump, out = tmp_path / "runs.csv", tmp_path / "row.csv"
        if command == "simulate":
            argv = ["simulate", "--k", "0", "--dump-runs", str(dump)]
        else:
            argv = ["figure4", "--max-k", "1"]
        argv += ["--runs", "100", "--seed", "1", "--workers", "2", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"wfuse: error: cannot start a worker process: {os.strerror(error)}\n"
        )
        assert not dump.exists() and not out.exists()

    def test_dump_memory_stays_flat(self, tmp_path, constant_runs):
        # At the parent of the fold, which kept every run's cost and final
        # size until the batch ended, this read a peak of 2.66 MB.
        path = tmp_path / "runs.csv"
        argv = [
            "simulate", "--k", "0", "--seed", "1",
            "--dump-runs", str(path), "--out", str(tmp_path / "row.csv"),
        ]
        assert main([*argv, "--runs", "3"]) == 0  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            assert main([*argv, "--runs", str(2**17)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        with path.open() as dumped:
            assert sum(1 for _ in dumped) == 2**17 + 1

    def test_repeat_is_byte_identical(self, capsys):
        _, first = run_cli(capsys, "simulate", "--k", "1", "--runs", "200", "--seed", "9")
        _, second = run_cli(capsys, "simulate", "--k", "1", "--runs", "200", "--seed", "9")
        assert first == second

    def test_workers_flag_does_not_change_output(self, capsys):
        _, one = run_cli(
            capsys, "simulate", "--k", "1", "--runs", "120", "--seed", "5",
            "--workers", "1",
        )
        _, three = run_cli(
            capsys, "simulate", "--k", "1", "--runs", "120", "--seed", "5",
            "--workers", "3",
        )
        assert one == three


class TestVerifyGateCommand:
    def test_passes_for_small_states(self, capsys):
        code, out = run_cli(capsys, "verify-gate", "--n", "3", "--m", "3")
        assert code == 0
        rows = parse_csv(out)
        assert [r["branch"] for r in rows] == ["success", "recycle", "failure"]
        success = rows[0]
        assert float(success["analytic"]) == 4 / 9
        assert success["simulated"] == success["analytic"]
        assert (success["abs_error"], success["fidelity"]) == ("0", "1")

    def test_bell_pair_column(self, capsys):
        code, out = run_cli(capsys, "verify-gate", "--n", "2", "--m", "5")
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["analytic"]) == 0.5

    def test_w5_fidelity_column(self, capsys):
        code, out = run_cli(capsys, "verify-gate", "--n", "3", "--m", "4")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["fidelity"] == "1"

    def test_largest_sizes_exact_bytes(self, capsys):
        code, out = run_cli(capsys, "verify-gate", "--n", "12", "--m", "12")
        assert code == 0
        assert out == (
            "N,M,branch,analytic,simulated,abs_error,fidelity\n"
            "12,12,success,0.15277777777777779,0.15277777777777779,0,1\n"
            "12,12,recycle,0.84027777777777779,0.84027777777777779,0,1\n"
            "12,12,failure,0.0069444444444444441,0.0069444444444444441,0,1\n"
        )

    def test_any_deviation_exits_one(self, capsys, monkeypatch):
        analytic, simulated, fidelities = wfuse.cli.verify_probabilities(3, 3)
        # The failure ratio plus 1/10**30, still as an unreduced pair.
        num, den = simulated["failure"]
        simulated = {**simulated, "failure": (num * 10**30 + den, den * 10**30)}
        monkeypatch.setattr(
            wfuse.cli, "verify_probabilities",
            lambda n, m: (analytic, simulated, fidelities),
        )
        code, out = run_cli(capsys, "verify-gate", "--n", "3", "--m", "3")
        assert code == 1
        assert parse_csv(out)[2]["abs_error"] == "1.0000000000000001e-30"

    def test_unit_fidelity_required(self, capsys, monkeypatch):
        analytic, simulated, fidelities = wfuse.cli.verify_probabilities(3, 3)
        # A recycle fidelity of 1 - 1/10**30 rounds to the float 1.
        fidelities = {**fidelities, "recycle": (10**30 - 1, 10**30)}
        monkeypatch.setattr(
            wfuse.cli, "verify_probabilities",
            lambda n, m: (analytic, simulated, fidelities),
        )
        code, out = run_cli(capsys, "verify-gate", "--n", "3", "--m", "3")
        assert code == 1
        assert [row["fidelity"] for row in parse_csv(out)] == ["1", "1", "1"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_match_fraction_rendering(self, capsys, fmt):
        # Every row on the whole size range, against the rows rendered from
        # the Fraction form of the check, the way the command once did.
        render = _csv_lines if fmt == "csv" else _json_lines
        for n, m in itertools.product(range(2, 13), repeat=2):
            check = verify_probabilities(n, m)
            rows = [
                {
                    "N": n,
                    "M": m,
                    "branch": branch,
                    "analytic": float(check.analytic[branch]),
                    "simulated": float(check.simulated[branch]),
                    "abs_error": float(abs(check.simulated[branch] - check.analytic[branch])),
                    "fidelity": float(check.fidelities[branch]),
                }
                for branch in ("success", "recycle", "failure")
            ]
            code, out = run_cli(
                capsys, "verify-gate", "--n", str(n), "--m", str(m), "--format", fmt
            )
            assert code == 0
            header = tuple(rows[0])
            assert out == "".join(render(header, [tuple(r.values()) for r in rows])), (n, m)

    def test_out_of_range_sizes(self, capsys):
        assert main(["verify-gate", "--n", "13", "--m", "3"]) == 2
        assert main(["verify-gate", "--n", "3", "--m", "1"]) == 2


class TestFigure4Command:
    def test_schema_and_known_row(self, capsys):
        code, out = run_cli(
            capsys, "figure4", "--max-k", "2", "--runs", "30", "--seed", "11"
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["N"] == "3"
        assert rows[-1]["N"] == "7"
        by_size = {r["N"]: r for r in rows}
        row6 = by_size["6"]
        assert (row6["optimal_num"], row6["optimal_den"]) == ("24", "1")
        assert (row6["linear_num"], row6["linear_den"]) == ("71", "2")
        assert row6["exponential_num"] == "24"
        assert row6["mc_mean"] == ""  # MC points sit at nominal sizes 2^k + 3
        assert by_size["4"]["mc_k"] == "0"
        assert by_size["5"]["mc_k"] == "1"
        assert by_size["7"]["mc_k"] == "2"

    def test_rejects_large_k(self, capsys):
        assert main(["figure4", "--max-k", "9", "--runs", "5", "--seed", "1"]) == 2

    def test_each_stage_forks_at_most_workers_children(self, capsys, monkeypatch):
        events = []
        fork, batch = os.fork, wfuse.cli.simulate_batch

        def recording_fork():
            events.append("fork")
            return fork()

        def recording_batch(k, *args, **kwargs):
            events.append(k)
            return batch(k, *args, **kwargs)

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(wfuse.cli, "simulate_batch", recording_batch)
        # Two CPUs, so that --workers 2 is not capped on a one-CPU host.
        allow_cpus(monkeypatch, 2)
        argv = ("figure4", "--max-k", "3", "--runs", "20", "--seed", "4")
        _, serial = run_cli(capsys, *argv, "--workers", "1")
        assert events == [0, 1, 2, 3]
        events.clear()
        _, forked = run_cli(capsys, *argv, "--workers", "2")
        assert events == [0, "fork", "fork", 1, "fork", "fork", 2, "fork", "fork", 3, "fork", "fork"]
        assert forked == serial

    @pytest.mark.parametrize("command", ["simulate", "figure4"])
    def test_workers_capped_at_cpu_count(self, capsys, monkeypatch, command):
        # The stand-in for the fork path records the worker count it is
        # handed and makes the parts in this process, so no worker process
        # is started whatever the count asked for.
        handed = []

        def serial_parts(k, master_seed, runs, step, workers):
            handed.append(workers)
            ranges = wfuse.simulate._ranges(k, master_seed, runs, step)
            return (wfuse.simulate._run_range(args) for args in ranges)

        monkeypatch.setattr(wfuse.simulate, "_forked_parts", serial_parts)
        if command == "simulate":
            argv = ("simulate", "--k", "2", "--runs", "40", "--seed", "6")
        else:
            argv = ("figure4", "--max-k", "2", "--runs", "20", "--seed", "6")
        batches = 1 if command == "simulate" else 3
        _, serial = run_cli(capsys, *argv, "--workers", "1")
        # (CPUs in the affinity mask or None where the platform has none,
        # os.cpu_count(), --workers, workers forked per batch): the mask
        # wins over the host's count, as under `taskset -c 0` on two CPUs.
        for mask_cpus, host_cpus, workers, expected in (
            (3, 8, "64", 3),
            (1, 2, "2", None),
            (None, 3, "64", 3),
            (None, None, "8", None),
        ):
            if mask_cpus is None:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            else:
                allow_cpus(monkeypatch, mask_cpus)
            monkeypatch.setattr(os, "cpu_count", lambda: host_cpus)
            handed.clear()
            assert run_cli(capsys, *argv, "--workers", workers) == (0, serial)
            assert handed == ([expected] * batches if expected else []), (mask_cpus, host_cpus)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cells_match_fraction_rendering(self, capsys, fmt):
        code, out = run_cli(
            capsys, "figure4", "--max-k", "4", "--runs", "5", "--seed", "3", "--format", fmt
        )
        assert code == 0
        rows = parse_rows(out, fmt)
        n_max = 2**4 + 1
        recycled = linear_recycled_costs(n_max)
        table = optimal_costs(n_max)
        assert [int(row["N"]) for row in rows] == list(range(3, n_max + 3))
        for n, row in enumerate(rows, start=1):
            expected = {
                "linear": w3_linear_cost(n),
                "linear_recycled": recycled[n],
                "optimal": table.cost(n),
                "exponential": (
                    exponential_cost(n.bit_length() - 1) if n & (n - 1) == 0 else None
                ),
            }
            for prefix, value in expected.items():
                cells = [row[f"{prefix}_{cell}"] for cell in ("num", "den", "float")]
                assert cells == fraction_cells(value, fmt), (n + 2, prefix)

    def test_json_blanks_are_null(self, capsys):
        code, out = run_cli(
            capsys,
            "figure4", "--max-k", "0", "--runs", "10", "--seed", "2",
            "--format", "json",
        )
        rows = json.loads(out)
        assert rows[0]["N"] == 3
        assert rows[0]["mc_mean"] is None
        assert rows[1]["mc_k"] == 0


# SHA-256 of each command's stdout, taken while the tables were still built
# whole before they were written: writing them row by row keeps every byte.
STDOUT_SHA256 = {
    "cost --strategy linear --target 300":
        "9f80c1a33cd82bfbbabc6416e5d63a3238408b8ffe6df6e96ce8a818dfadcbb4",
    "cost --strategy linear --target 300 --format json":
        "64b73fefaf261000fe10e1931e7a33912fbd8f1ff49689e07379ff2a50d68392",
    "cost --strategy linear-recycled --target 300":
        "950efd17d89797fc61078912264df4aa85bb56514741a2410236b577761d0a36",
    "cost --strategy linear-recycled --target 300 --format json":
        "75e47f211308e068d77cd866399bfa69fd21b7ab5fe48ac56c00045d641f8bf1",
    "cost --strategy optimal --target 300":
        "c55fa931d7918c6832b498bc55764c2dc523de5bf64527c5f7d0d3d42f4da1c7",
    "cost --strategy optimal --target 300 --format json":
        "606673ccf1648ad4a17691011b81db4cbf66bb2e4528c0e3a9e2563b8fbc9878",
    "cost --strategy exponential --target 258":
        "5cf41e626d4510386f0a7ee750be99ec5e0fdb9beb4fb1bdfdc12a1b8fff46c9",
    "cost --strategy exponential --target 258 --format json":
        "e59b76c493af8d14e2587bcaefe731f6c097bbac3d1ad1c1a7b9cb9c003851f6",
    "figure4 --max-k 3 --runs 20 --seed 4 --format json":
        "ce2c46c9703b62aa26669cea1483ce605c773004a51cca46ec6d35dec42af612",
}


class TestStreamedOutput:
    @pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
    def test_stdout_bytes_are_pinned(self, capsys, command):
        code, out = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]

    @pytest.mark.parametrize(
        "header, rows",
        [
            (("N",), []),
            (("N",), [(3,)]),
            (
                ("a", "b", "c", "d"),
                [
                    (None, 1.5, "x\ny \"z\"", float("inf")),
                    (7, -0.0, "", float("nan")),
                ],
            ),
        ],
        ids=["no-rows", "one-row", "special-cells"],
    )
    def test_json_lines_match_json_dumps(self, header, rows):
        text = "".join(_json_lines(header, iter(rows)))
        assert text == json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cost_table_memory_stays_flat(self, tmp_path, fmt):
        # Built whole before it was written, this table of 3000 costs took a
        # peak of 1.07 MiB (CSV) and 8.9 MiB (JSON) of Python allocations.
        path = str(tmp_path / f"table.{fmt}")
        argv = ["cost", "--strategy", "linear-recycled", "--format", fmt, "--out", path]
        assert main([*argv, "--target", "4"]) == 0  # imports outside the trace
        tracemalloc.start()
        try:
            assert main([*argv, "--target", "3002"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20, peak


DEV_FULL = "/dev/full"
needs_dev_full = pytest.mark.skipif(
    not os.path.exists(DEV_FULL), reason="no /dev/full device on this system"
)
FULL_ERROR = "wfuse: error: cannot write /dev/full: No space left on device\n"
needs_dev_stdout = pytest.mark.skipif(
    not os.path.exists("/dev/stdout"), reason="no /dev/stdout on this system"
)


def module_env():
    """The environment of a ``python -m wfuse`` subprocess run on this source."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestWriteErrors:
    @needs_dev_full
    @pytest.mark.parametrize(
        "argv",
        [
            ["cost", "--strategy", "linear", "--target", "3000"],
            ["cost", "--strategy", "optimal", "--target", "10", "--format", "json"],
            ["simulate", "--k", "0", "--runs", "10", "--seed", "1"],
            ["verify-gate", "--n", "3", "--m", "3"],
            ["figure4", "--max-k", "1", "--runs", "5", "--seed", "1"],
        ],
        ids=["cost-large", "cost-small", "simulate", "verify-gate", "figure4"],
    )
    def test_full_out_exits_one(self, capsys, argv):
        # The small outputs fail when the file is closed, the large one
        # while it is written.
        assert main([*argv, "--out", DEV_FULL]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == FULL_ERROR

    @needs_dev_full
    @pytest.mark.parametrize("runs, workers", [("10", "1"), ("20000", "2")])
    def test_full_dump_writes_no_summary(self, capsys, monkeypatch, tmp_path, runs, workers):
        # 10 runs fail at the flush before the summary, 20,000 in a part
        # written while the workers still run.
        allow_cpus(monkeypatch, 2)
        argv = [
            "simulate", "--k", "0", "--runs", runs, "--seed", "1", "--workers", workers,
            "--dump-runs", DEV_FULL,
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == FULL_ERROR
        out = tmp_path / "row.csv"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == FULL_ERROR
        assert not out.exists()

    @needs_dev_full
    def test_full_out_removes_the_written_dump(self, capsys, tmp_path):
        # The dump is written and closed before --out fails on its close;
        # the failed command still leaves no dump.
        dump = tmp_path / "runs.csv"
        argv = [
            "simulate", "--k", "0", "--runs", "10", "--seed", "1",
            "--out", DEV_FULL, "--dump-runs", str(dump),
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == FULL_ERROR
        assert not dump.exists()

    @needs_dev_full
    def test_full_stdout_exits_one(self):
        cmd = [sys.executable, "-m", "wfuse", "verify-gate", "--n", "3", "--m", "3"]
        with open(DEV_FULL, "wb") as full:
            done = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, env=module_env())
        assert done.returncode == 1
        assert done.stderr == b"wfuse: error: cannot write <stdout>: No space left on device\n"

    @needs_dev_full
    def test_full_stdout_removes_the_closed_dump(self, tmp_path):
        # The dump is written and closed before the summary fails on
        # stdout; the failed command still leaves no dump.
        dump = tmp_path / "d.csv"
        cmd = [
            sys.executable, "-m", "wfuse", "simulate", "--k", "0", "--runs", "10",
            "--seed", "1", "--dump-runs", str(dump),
        ]
        with open(DEV_FULL, "wb") as full:
            done = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, env=module_env())
        assert done.returncode == 1
        assert done.stderr == b"wfuse: error: cannot write <stdout>: No space left on device\n"
        assert not dump.exists()

    @needs_dev_full
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["cost", "--strategy", "linear", "--target", "1"], 2),
            (["cost", "--strategy", "linear", "--target", "3", "--out", DEV_FULL], 1),
        ],
        ids=["usage-error", "run-error"],
    )
    def test_full_stderr_keeps_exit_code(self, argv, code):
        cmd = [sys.executable, "-m", "wfuse", *argv]
        with open(DEV_FULL, "wb") as full:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=full, env=module_env())
        assert done.returncode == code
        assert done.stdout == b""

    @pytest.mark.skipif(sys.platform == "win32", reason="no file size limit on Windows")
    @pytest.mark.parametrize(
        "argv, via_symlink",
        [
            (["cost", "--strategy", "linear", "--target", "3000"], False),
            (["cost", "--strategy", "optimal", "--target", "10", "--format", "json"], False),
            (["verify-gate", "--n", "12", "--m", "12"], False),
            (["figure4", "--max-k", "1", "--runs", "5", "--seed", "1"], False),
            (["cost", "--strategy", "linear", "--target", "3000"], True),
        ],
        ids=["cost-large", "cost-small", "verify-gate", "figure4", "symlink"],
    )
    def test_file_too_large_removes_out(self, tmp_path, argv, via_symlink):
        # Under a 100-byte file size limit the large table fails while it is
        # written, the small outputs when the file is closed; either way no
        # truncated file is left behind.  Through a symlink, the truncated
        # file is the link's target, and the link is left as it was made.
        path = tmp_path / "table.out"
        if via_symlink:
            target = tmp_path / "real.csv"
            target.write_text("an earlier table\n")
            path.symlink_to(target)
        limited = (
            "import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (100, hard))\n"
            "from wfuse.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        cmd = [sys.executable, "-c", limited, *argv, "--out", str(path)]
        done = subprocess.run(cmd, capture_output=True, env=module_env())
        assert done.returncode == 1
        assert done.stdout == b""
        assert done.stderr == f"wfuse: error: cannot write {path}: File too large\n".encode()
        assert not path.exists()
        assert path.is_symlink() == via_symlink

    @pytest.mark.skipif(sys.platform == "win32", reason="no process groups on Windows")
    def test_interrupt_removes_outputs(self, tmp_path):
        # Ctrl-C reaches the whole process group, the workers included, once
        # the dump holds rows: the command exits 130 with one error line and
        # leaves no file and no process behind.
        dump, out = tmp_path / "d.csv", tmp_path / "o.csv"
        cmd = [
            sys.executable, "-m", "wfuse", "simulate", "--k", "3", "--runs", "200000",
            "--seed", "1", "--workers", "2", "--dump-runs", str(dump), "--out", str(out),
        ]
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
            start_new_session=True,
        ) as proc:
            deadline = time.monotonic() + 60
            while not (dump.exists() and dump.stat().st_size):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert stdout == b""
        assert stderr == b"wfuse: error: interrupted\n"
        assert not dump.exists() and not out.exists()
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_interrupt_before_open_keeps_existing_out(self, capsys, monkeypatch, tmp_path):
        # `figure4` counts its workers before it opens --out: Ctrl-C there
        # leaves the file the command never opened as it was.
        def interrupt(requested):
            raise KeyboardInterrupt

        monkeypatch.setattr(wfuse.cli, "_worker_processes", interrupt)
        path = tmp_path / "table.csv"
        path.write_text("an earlier table\n")
        argv = ["figure4", "--max-k", "1", "--runs", "5", "--seed", "1", "--out", str(path)]
        assert main(argv) == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "wfuse: error: interrupted\n"
        assert path.read_text() == "an earlier table\n"

    def test_interrupt_while_parsing_exits_130(self, capsys, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt

        monkeypatch.setattr(wfuse.cli, "build_parser", interrupt)
        try:
            code = main(["cost", "--strategy", "optimal", "--target", "10"])
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")
        assert code == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "wfuse: error: interrupted\n"

    def test_interrupt_while_importing_exits_130(self, tmp_path):
        # Ctrl-C while `python -m wfuse` loads the CLI's modules, made here
        # by an import hook that sitecustomize installs at start-up.
        (tmp_path / "sitecustomize.py").write_text(
            "import sys\n"
            "class Interrupt:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'wfuse.cli':\n"
            "            raise KeyboardInterrupt\n"
            "sys.meta_path.insert(0, Interrupt())\n"
        )
        env = module_env()
        env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
        cmd = [sys.executable, "-m", "wfuse", "cost", "--strategy", "optimal", "--target", "10"]
        done = subprocess.run(cmd, capture_output=True, env=env)
        assert done.returncode == 130
        assert done.stdout == b""
        assert done.stderr == b"wfuse: error: interrupted\n"

    def test_closed_stdout_pipe_exits_one(self):
        # The table is 2.2 MB, far more than a pipe holds, so the command is
        # still writing when the reader goes.
        cmd = [sys.executable, "-m", "wfuse", "cost", "--strategy", "linear", "--target", "3000"]
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env()
        ) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 1
        assert head.startswith(b"N,strategy,")
        assert err == b"wfuse: error: cannot write <stdout>: Broken pipe\n"


class TestOutputPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ["cost", "--strategy", "optimal", "--target", "10", "--out", ""],
            ["simulate", "--k", "0", "--runs", "5", "--seed", "1", "--out", ""],
            ["simulate", "--k", "0", "--runs", "5", "--seed", "1", "--dump-runs", ""],
            ["verify-gate", "--n", "3", "--m", "3", "--out", ""],
            ["figure4", "--max-k", "1", "--runs", "5", "--seed", "1", "--out", ""],
        ],
        ids=["cost", "simulate-out", "simulate-dump", "verify-gate", "figure4"],
    )
    def test_empty_path_is_usage_error(self, capsys, argv):
        # An empty path names no file: it is not taken for stdout, and a
        # dump is not silently left out.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "wfuse: error: cannot write : No such file or directory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["cost", "--strategy", "linear", "--target", "4000"],
            ["cost", "--strategy", "linear-recycled", "--target", "4000"],
            ["cost", "--strategy", "optimal", "--target", "4000"],
            ["cost", "--strategy", "exponential", "--target", "4098"],
            ["figure4", "--max-k", "6", "--runs", "300", "--seed", "1"],
            ["verify-gate", "--n", "12", "--m", "12"],
            ["simulate", "--k", "6", "--runs", "300", "--seed", "1"],
        ],
        ids=[
            "linear", "linear-recycled", "optimal", "exponential", "figure4",
            "verify-gate", "simulate",
        ],
    )
    def test_unwritable_out_fails_before_any_work(self, capsys, monkeypatch, tmp_path, argv):
        def forbidden(*args, **kwargs):
            raise AssertionError("a layer was called before --out was opened")

        for name in (
            "optimal_costs", "linear_recycled_costs", "w3_linear_cost",
            "exponential_cost", "simulate_batch", "verify_probabilities",
        ):
            monkeypatch.setattr(wfuse.cli, name, forbidden)
        path = tmp_path / "missing" / "x.csv"
        assert main([*argv, "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"wfuse: error: cannot write {path}: No such file or directory\n"
        )


    # Without --out the summary goes to stdout, which the shell may have
    # pointed at the dump's own file: the summary would overwrite the dump.
    @pytest.mark.parametrize(
        "dump_path",
        [None, pytest.param("/dev/stdout", marks=needs_dev_stdout)],
        ids=["same-path", "dev-stdout"],
    )
    def test_dump_on_stdout_file_is_usage_error(self, tmp_path, dump_path):
        path = tmp_path / "o.csv"
        cmd = [
            sys.executable, "-m", "wfuse", "simulate", "--k", "0", "--runs", "50",
            "--seed", "1", "--dump-runs", dump_path or str(path),
        ]
        with open(path, "wb") as out:
            done = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE, env=module_env())
        assert done.returncode == 2
        assert done.stderr == b"wfuse: error: stdout and --dump-runs must be different files\n"
        assert path.read_bytes() == b""

    @needs_dev_stdout
    def test_dump_on_stdout_pipe(self, tmp_path):
        # A pipe is no file to overwrite: the dump comes first, then the
        # summary row.
        argv = ["simulate", "--k", "0", "--runs", "50", "--seed", "1"]
        dump = tmp_path / "d.csv"
        summary = subprocess.run(
            [sys.executable, "-m", "wfuse", *argv, "--dump-runs", str(dump)],
            capture_output=True, env=module_env(), check=True,
        ).stdout
        done = subprocess.run(
            [sys.executable, "-m", "wfuse", *argv, "--dump-runs", "/dev/stdout"],
            capture_output=True, env=module_env(),
        )
        assert done.returncode == 0
        assert done.stderr == b""
        assert done.stdout == dump.read_bytes() + summary
        assert len(done.stdout.splitlines()) == 53


class TestSubprocessDeterminism:
    def test_module_invocation_reproduces_bytes(self):
        cmd = [
            sys.executable, "-m", "wfuse",
            "simulate", "--k", "2", "--runs", "150", "--seed", "77",
        ]
        env = module_env()
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")


class TestStartup:
    @staticmethod
    def modules_added_by(statement):
        """Modules that ``statement`` imports in a fresh interpreter."""
        program = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", program], capture_output=True, text=True, check=True
        )
        return set(done.stdout.split())

    def test_cli_import_loads_no_dataclasses_inspect_or_json(self):
        added = self.modules_added_by("import wfuse.cli")
        assert "wfuse.gate" in added and "wfuse.simulate" in added
        assert not added & {"dataclasses", "inspect", "json"}

    def test_forked_batch_loads_no_pool_machinery(self):
        # Two CPUs in the mask, so that --workers 2 forks on any host.
        added = self.modules_added_by(
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from wfuse.cli import main\n"
            "main(['simulate', '--k', '1', '--runs', '200', '--seed', '5',"
            " '--workers', '2', '--out', os.devnull])"
        )
        assert "wfuse.simulate" in added
        # signal is loaded: each fork blocks SIGINT until its pid is recorded.
        assert not added & {"concurrent.futures", "multiprocessing", "struct"}

    def test_simulate_import_loads_no_other_layers(self):
        added = self.modules_added_by("from wfuse.simulate import exact_expected_cost")
        assert "wfuse.fusion_model" in added
        assert not added & {"wfuse.gate", "wfuse.optimal", "wfuse.growth_costs"}

    # Rational arithmetic: fractions and the modules it loads.
    RATIONALS = {"fractions", "decimal", "numbers"}

    def test_cli_import_loads_every_layer_but_no_rationals(self):
        added = self.modules_added_by("import wfuse.cli")
        layers = ("fusion_model", "gate", "growth_costs", "optimal", "rng", "simulate")
        assert {f"wfuse.{layer}" for layer in layers} <= added
        assert not added & self.RATIONALS
        # The layer calls the benchmark's tracer times through wfuse.cli.
        for name in (
            "optimal_costs", "linear_recycled_costs", "w3_linear_cost",
            "exponential_cost", "verify_probabilities", "simulate_batch",
        ):
            assert callable(getattr(wfuse.cli, name)), name

    def test_layer_calls_go_through_the_cli_names(self, capsys, monkeypatch):
        # The benchmark's tracer swaps these names of wfuse.cli for timing
        # wrappers, so every command must look them up when it makes a
        # table; a function bound at import would escape the wrapper.
        called = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                called[name] = called.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        growth = {"optimal_costs", "linear_recycled_costs", "w3_linear_cost", "exponential_cost"}
        for name in growth | {"verify_probabilities"}:
            monkeypatch.setattr(wfuse.cli, name, counting(name, getattr(wfuse.cli, name)))
        for strategy in wfuse.cli._STRATEGIES:
            assert main(["cost", "--strategy", strategy, "--target", "10"]) == 0
        assert set(called) == growth
        called.clear()
        assert main(["figure4", "--max-k", "2", "--runs", "5", "--seed", "1"]) == 0
        assert set(called) == growth
        called.clear()
        assert main(["verify-gate", "--n", "3", "--m", "4"]) == 0
        assert set(called) == {"verify_probabilities"}
        capsys.readouterr()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_simulate_loads_no_rationals(self, tmp_path, workers, fmt):
        # Two CPUs in the mask, so that --workers 2 forks on any host.
        dump = tmp_path / "runs.csv"
        added = self.modules_added_by(
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from wfuse.cli import main\n"
            "code = main(['simulate', '--k', '1', '--runs', '200', '--seed', '5',"
            f" '--workers', {workers!r}, '--format', {fmt!r},"
            f" '--dump-runs', {str(dump)!r}, '--out', os.devnull])\n"
            "assert code == 0"
        )
        assert "wfuse.simulate" in added
        assert len(dump.read_text().splitlines()) == 201
        assert not added & self.RATIONALS

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            # Both linear tables reach past the float range.
            "cost --strategy linear --target 700",
            "cost --strategy linear-recycled --target 1100",
            "cost --strategy optimal --target 100",
            "cost --strategy exponential --target 258",
            "figure4 --max-k 2 --runs 20 --seed 5",
            "verify-gate --n 2 --m 2",
            "verify-gate --n 12 --m 12",
        ],
    )
    def test_exact_tables_load_no_rationals(self, argv, fmt):
        added = self.modules_added_by(
            "import os\n"
            "from wfuse.cli import main\n"
            f"code = main({argv.split()!r} + ['--format', {fmt!r}, '--out', os.devnull])\n"
            "assert code == 0"
        )
        assert "wfuse.optimal" in added
        assert not added & self.RATIONALS

    def test_gate_fractions_load_fractions(self):
        # A control of the tests above: the library's Fraction form of the
        # gate check, which verify-gate does not call, loads fractions.
        added = self.modules_added_by(
            "from wfuse.gate import verify_probabilities\n"
            "check = verify_probabilities(3, 3)\n"
            "assert type(check.analytic['success']).__name__ == 'Fraction'\n"
            "assert type(check.fidelities['recycle']).__name__ == 'Fraction'"
        )
        assert "fractions" in added

    def test_exact_oracle_loads_fractions(self):
        # The other control of the tests above: a process that builds a
        # rational loads fractions.
        added = self.modules_added_by(
            "from wfuse.simulate import exact_expected_cost\n"
            "assert exact_expected_cost(2) == 76"
        )
        assert "fractions" in added
