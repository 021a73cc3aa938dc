import math
import os
import random
import statistics
import time
import tracemalloc
import weakref
from array import array
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import islice, product, repeat

import pytest
from hypothesis import example, given, settings, strategies as st

import wfuse.simulate
from wfuse.fusion_model import (
    BRANCHES,
    FAILURE,
    RECYCLE,
    SUCCESS,
    classify_uniform,
    threshold53,
)
from wfuse.growth_costs import linear_recycled_costs, w3_linear_cost
from wfuse.optimal import optimal_costs
from wfuse.rng import (
    _GOLDEN,
    _LANE_STEP,
    _RANGE_CHUNK,
    _mixed_counters,
    MASK64,
    SplitMix64,
    block53,
    draws_for_range,
    mix64,
    stream_for_run,
)
from wfuse.simulate import (
    DEFAULT_STEP_BUDGET,
    _S0_RECYCLE,
    _S0_SUCCESS,
    _S1_RECYCLE,
    _S1_SUCCESS,
    _RANGE_CAP,
    FusionStep,
    _expected_draws,
    _fusion_chain,
    RunResult,
    _sample_std,
    bucket_index,
    exact_expected_cost,
    run_similar_sizes,
    simulate_batch,
    trace_similar_sizes,
)


class TestRngContract:
    def test_mix64_frozen_values(self):
        # pinned: these constants are part of the replay contract
        assert mix64(0) == 0
        assert mix64(1) == 6238072747940578789
        assert mix64(42) == 12058926934050108962
        assert mix64(2**64 - 1) == 13029008266876403067

    def test_splitmix_reference_vector(self):
        # first outputs of the splitmix64 sequence seeded with 0
        stream = SplitMix64(0)
        assert [stream.next64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_per_run_derivation(self):
        assert stream_for_run(42, 0).next64() == SplitMix64(mix64(42)).next64()
        assert stream_for_run(40, 2).next64() == SplitMix64(mix64(42)).next64()


def scalar_draws(seed, count):
    stream = SplitMix64(seed)
    return [stream.next64() >> 11 for _ in range(count)]


# The last seed puts the 2**64 counter wrap three words into the stream.
BLOCK_SEEDS = [0, 1, 2**63, 2**64 - 1, (-3 * _GOLDEN) & MASK64]


class TestBlockDraws:
    @pytest.mark.parametrize("seed", BLOCK_SEEDS)
    @pytest.mark.parametrize("count", [1, 2, 16, 1000])
    def test_block_matches_scalar_draws(self, seed, count):
        assert list(block53(seed, count)) == scalar_draws(seed, count)

    @pytest.mark.parametrize("seed", BLOCK_SEEDS)
    def test_iterator_crosses_block_boundaries(self, seed):
        # 1200 draws span the growing blocks up to and past the size cap.
        draws = iter(SplitMix64(seed))
        assert [next(draws) for _ in range(1200)] == scalar_draws(seed, 1200)

    def test_iterator_leaves_stream(self):
        stream = SplitMix64(77)
        draws = iter(stream)
        taken = [next(draws) for _ in range(5)]
        assert stream._state == 77
        assert taken == scalar_draws(77, 5)
        assert stream.next64() >> 11 == taken[0]

    @pytest.mark.parametrize("byteorder", ["little", "big"])
    def test_lane_unpacking_on_either_byte_order(self, byteorder):
        # Read the lane bytes as 64-bit words the way a native cast does on
        # a host of the given byte order, then take the lanes' low words.
        count = 37
        raw = (_mixed_counters(2**64 - 1, 1, count, _GOLDEN) >> 11).to_bytes(
            16 * count, byteorder
        )
        words = [int.from_bytes(raw[i : i + 8], byteorder) for i in range(0, len(raw), 8)]
        assert words[:: _LANE_STEP[byteorder]] == scalar_draws(2**64 - 1, count)

    def test_s0_thresholds_are_the_exact_ones(self):
        assert (_S0_SUCCESS, _S0_RECYCLE) == threshold53(1, 1)
        assert_edges_classify(1, 1, _S0_SUCCESS, _S0_RECYCLE)

    def test_s1_thresholds_are_the_exact_ones(self):
        assert (_S1_SUCCESS, _S1_RECYCLE) == (3377699720527872, 8444249301319680)
        assert (_S1_SUCCESS, _S1_RECYCLE) == threshold53(2, 2)
        assert_edges_classify(2, 2, _S1_SUCCESS, _S1_RECYCLE)

    def test_thresholds_are_the_exact_ones(self):
        # Every n, m <= 12, the pairs of the threshold-draw test included.
        for n, m in product(range(13), repeat=2):
            assert_edges_classify(n, m, *threshold53(n, m))


def assert_edges_classify(n, m, success, recycle):
    """The draws just below and at each 53-bit edge take the exact branches."""
    for draw, branch in (
        (success - 1, SUCCESS),
        (success, RECYCLE),
        (recycle - 1, RECYCLE),
        (recycle, FAILURE),
    ):
        assert classify_uniform(n, m, draw * 2.0**-53) == branch, (n, m, draw)


def run_reference(k, draws, *, max_steps=DEFAULT_STEP_BUDGET):
    """The :class:`RunResult` of :func:`trace_similar_sizes`, folded."""
    counts = dict.fromkeys(BRANCHES, 0)
    for step in trace_similar_sizes(k, draws, max_steps=max_steps):
        counts[step.branch] += 1
    return RunResult(step.cost, step.final, sum(counts.values()), *counts.values())


# Master seeds for the range streams: negatives and values of 2**64 or more
# must match stream_for_run's masking.
RANGE_MASTERS = st.one_of(
    st.sampled_from([0, -1, -7, 2**63, 2**64 - 1, 2**64, 2**64 + 5, -(2**64) - 3]),
    st.integers(-(2**70), 2**70),
)
# Range starts, some close enough to 2**64 that master + start wraps inside
# the range; lengths around the 256-run seeding chunk of draws_for_range.
RANGE_STARTS = st.one_of(st.integers(0, 2**20), st.integers(2**64 - 300, 2**64 + 300))
RANGE_LENGTHS = st.sampled_from([1, 2, 255, 256, 257])


class TestRangeStreams:
    @settings(max_examples=25, deadline=None)
    @given(RANGE_MASTERS, RANGE_STARTS, RANGE_LENGTHS)
    # master + start = 0 (mod 2**64): the seed counters start at 2**64 - 1
    # and wrap at the range's first run.
    @example(0, 0, 1)
    @example(2**64, 0, 256)
    @example(-5, 5, 2)
    # One call seeded in three chunks, the last of one run, with the
    # counter wrap in the second.
    @example(2**64 - 300, 7, 2 * _RANGE_CHUNK + 1)
    def test_draws_match_stream_for_run(self, master, start, runs):
        # 130 draws cross the boundaries after the head (16) and the 16-,
        # 32- and 64-draw blocks: draws 16, 32, 64 and 128.
        ranges = list(draws_for_range(master, start, start + runs))
        assert len(ranges) == runs
        for i, draws in enumerate(ranges):
            reference = stream_for_run(master, start + i)
            expected = [reference.next64() >> 11 for _ in range(130)]
            assert list(islice(draws, 130)) == expected

    @settings(max_examples=20, deadline=None)
    @given(
        RANGE_MASTERS,
        RANGE_STARTS,
        RANGE_LENGTHS,
        st.integers(0, 3),
        st.integers(1, 80),
    )
    def test_runs_match_the_reference(self, master, start, runs, k, max_steps):
        # A complete run at the tightest budget it fits, then a run at a
        # small budget on the range built again, since a run uses its
        # range iterator up.
        complete = draws_for_range(master, start, start + runs)
        small = draws_for_range(master, start, start + runs)
        for i, (draws, again) in enumerate(zip(complete, small)):
            stream = stream_for_run(master, start + i)
            reference = run_reference(k, stream)
            tight = reference.cost + reference.fusion_attempts - 1
            assert run_similar_sizes(k, draws, max_steps=tight) == reference
            assert run_or_error(run_similar_sizes, k, again, max_steps) == run_or_error(
                run_reference, k, stream, max_steps
            )


class TestBuckets:
    def test_membership_rule(self):
        assert bucket_index(1) == 0
        assert bucket_index(2) == 1
        assert bucket_index(3) == 2
        assert bucket_index(4) == 2
        assert bucket_index(5) == 3
        assert bucket_index(8) == 3
        assert bucket_index(9) == 4

    def test_bounds(self):
        for size in range(1, 2000):
            level = bucket_index(size)
            assert 2 ** (level - 1) < size <= 2**level

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bucket_index(0)


def threshold_words(n, m):
    """The 53-bit draws one below and at each branch threshold of ``(w_n, w_m)``."""
    return [word for edge in threshold53(n, m) for word in (edge - 1, edge)]


def run_or_error(run, k, draws, max_steps):
    """The result of one run, or the message of its ``RuntimeError``."""
    try:
        return run(k, draws, max_steps=max_steps)
    except RuntimeError as exc:
        return str(exc)


def budget_message(k, max_steps):
    return f"step budget {max_steps} exceeded at k={k}"


class TestSimilarSizesRuns:
    def test_fast_loop_matches_reference(self):
        # k = 1 runs only in S_0 and S_1, the two buckets kept as counts.
        # The kernel runs at the tightest budget the reference run fits, so
        # a kernel that stops making progress fails here instead of hanging.
        for k in range(0, 7):
            for i in range({1: 300, 5: 3, 6: 2}.get(k, 25)):
                stream = stream_for_run(905, i + 100 * k)
                reference = run_reference(k, stream)
                tight = reference.cost + reference.fusion_attempts - 1
                assert run_similar_sizes(k, stream, max_steps=tight) == reference
                assert run_or_error(run_similar_sizes, k, stream, tight - 1) == (
                    budget_message(k, tight - 1)
                )

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_step_budget_matches_reference(self, k):
        for max_steps in range(301):
            outcomes = [
                run_or_error(run, k, stream_for_run(6007, k), max_steps)
                for run in (run_similar_sizes, run_reference)
            ]
            assert outcomes[0] == outcomes[1], max_steps

    def test_threshold_draws_match_reference(self):
        # Every draw sits at a branch threshold of a fusion in S_0 to S_3,
        # where the kernel's threshold53 edges and classify_uniform must
        # agree exactly; (2, 2) and (6, 6) have thresholds that are exact
        # multiples of their denominator.
        pairs = ((1, 1), (2, 2), (3, 3), (3, 4), (4, 4), (6, 6))
        words = [w for n, m in pairs for w in threshold_words(n, m)]
        rng = random.Random(5)
        for k in (0, 1, 2, 3):
            for _ in range(150):
                script = rng.choices(words, k=301)
                outcomes = [
                    run_or_error(run, k, script, 300)
                    for run in (run_similar_sizes, run_reference)
                ]
                assert outcomes[0] == outcomes[1], script

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("max_steps", [0, 5, 1000])
    def test_endless_failures_exceed_the_budget(self, k, max_steps):
        # Every fusion in S_0 fails, so the run never ends; the kernel must
        # stop at the budget rather than loop.
        draws = repeat(_S0_RECYCLE)
        assert run_or_error(run_similar_sizes, k, draws, max_steps) == (
            budget_message(k, max_steps)
        )

    def test_k0_costs_are_two_per_attempt(self):
        for i in range(50):
            result = run_similar_sizes(0, stream_for_run(3, i), max_steps=10**6)
            assert result.cost == 2 * result.fusion_attempts
            assert result.successes == 1
            assert result.final_size == 2

    def test_final_size_exceeds_target_threshold(self):
        for k in range(0, 5):
            for i in range(10):
                result = run_similar_sizes(k, stream_for_run(81, i), max_steps=10**6)
                assert result.final_size > 2**k
                assert result.cost >= result.final_size
                assert result.successes >= 1

    def test_step_budget_guard(self):
        with pytest.raises(RuntimeError):
            run_similar_sizes(0, stream_for_run(1, 1), max_steps=1)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            run_similar_sizes(-1, SplitMix64(0))

    def test_first_trace_steps(self):
        empty = ((), (), (), ())
        steps = trace_similar_sizes(2, stream_for_run(2718, 0))
        assert [next(steps) for _ in range(4)] == [
            FusionStep(0, 1, 1, SUCCESS, 2, ((), (2,), (), ()), None),
            FusionStep(0, 1, 1, SUCCESS, 4, ((), (2, 2), (), ()), None),
            FusionStep(1, 2, 2, FAILURE, 4, empty, None),
            FusionStep(0, 1, 1, RECYCLE, 6, empty, None),
        ]
        *_, last = steps
        assert last == FusionStep(2, 4, 4, SUCCESS, 64, empty, 8)

    def test_trace_rejects_negative_k(self):
        with pytest.raises(ValueError):
            next(trace_similar_sizes(-1, SplitMix64(0)))

    def test_trace_raises_the_budget_error_when_the_draws_run_out(self):
        # Five draws of 1/2 end no run at k = 2.
        draws = [2**52] * 5
        message = budget_message(2, DEFAULT_STEP_BUDGET)
        assert run_or_error(run_similar_sizes, 2, draws, DEFAULT_STEP_BUDGET) == message
        assert run_or_error(run_reference, 2, draws, DEFAULT_STEP_BUDGET) == message


def assert_invariants_and_kernel(k, stream):
    """Check one run's trace step by step, then the kernel against it.

    Along the trace on the draws of ``stream``, every bucket holds at most
    two states, all of its own sizes, and the size-index ledger balances:
    draws add 1 each, success conserves, recycle loses 2 (Bell-pair
    discards included) and failure loses ``n + m``.  The kernel on the same
    draws must then return the folded trace at the tightest budget the run
    fits, and raise the budget error at one less.
    """
    counts = dict.fromkeys(BRANCHES, 0)
    failure_loss = 0
    for step in trace_similar_sizes(k, stream):
        counts[step.branch] += 1
        if step.branch == FAILURE:
            failure_loss += step.n + step.m
        for level, bucket in enumerate(step.buckets):
            assert len(bucket) <= 2
            assert all(bucket_index(size) == level for size in bucket)
        remaining = sum(map(sum, step.buckets))
        assert step.cost == (
            remaining + (step.final or 0) + 2 * counts[RECYCLE] + failure_loss
        )
    fold = RunResult(step.cost, step.final, sum(counts.values()), *counts.values())
    tight = fold.cost + fold.fusion_attempts - 1
    assert run_similar_sizes(k, stream, max_steps=tight) == fold
    assert run_or_error(run_similar_sizes, k, stream, tight - 1) == (
        budget_message(k, tight - 1)
    )


class TestTraceProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 2**64 - 1))
    def test_invariants_along_the_trace(self, k, seed):
        assert_invariants_and_kernel(k, SplitMix64(seed))

    def test_invariants_on_larger_runs(self):
        for i in range(5):
            assert_invariants_and_kernel(5, stream_for_run(512, i))
        assert_invariants_and_kernel(6, stream_for_run(512, 5))
        # The largest k the CLI takes: 15,349 and 44,969 attempts, the
        # first kernel checks with operands above 64.
        for k in (7, 8):
            assert_invariants_and_kernel(k, stream_for_run(512, 0))


def run_batch(k, runs, master_seed, **kwargs):
    """``simulate_batch`` with its parts collected: (stats, costs, final
    sizes, part lengths), the per-run values as lists indexed by run."""
    costs, sizes, lengths = [], [], []

    def collect(part_costs, part_sizes):
        assert len(part_costs) == len(part_sizes)
        costs.extend(part_costs)
        sizes.extend(part_sizes)
        lengths.append(len(part_costs))

    stats = simulate_batch(k, runs, master_seed, on_part=collect, **kwargs)
    return stats, costs, sizes, lengths


def discard(costs, final_sizes):
    pass


def assert_no_child_process():
    """No child of this process is left, running or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def traced_peak(fn, *args, **kwargs):
    """Peak bytes of Python allocations traced while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBatches:
    def test_mean_near_nine_halves_at_k0(self):
        stats = simulate_batch(0, 1000, 42)
        # Var = 4(1-p)/p^2 = 11.25 for p = 4/9, so 3 SE is about 0.32
        assert 4.18 <= stats.mean <= 4.82

    def test_batch_is_deterministic(self):
        # Statistics, every run's cost and final size, and the parts.
        assert run_batch(2, 60, 123) == run_batch(2, 60, 123)

    def test_workers_do_not_change_results(self):
        # 97 runs split into ranges of 7 (2 workers) and 5 (3 workers).
        stats, costs, sizes, lengths = run_batch(2, 97, 55, workers=1)
        assert len(costs) == len(sizes) == 97
        assert lengths == [97]
        for workers, step in ((2, 7), (3, 5)):
            forked = run_batch(2, 97, 55, workers=workers)
            assert forked[:3] == (stats, costs, sizes)
            assert forked[3] == [step] * (97 // step) + [97 % step]
        assert simulate_batch(2, 97, 55) == stats

    def test_worker_parts_are_freed_before_the_next(self, monkeypatch):
        # The workers are real; the parent reads each part from a pipe, and
        # by the time it reads the next one every earlier part must be
        # freed: the batch folds a part and drops it.
        read_part = wfuse.simulate._read_part
        parts = []

        def checked_read(pipe):
            alive = [i for i, refs in enumerate(parts) if any(r() for r in refs)]
            assert alive == [], alive
            part = read_part(pipe)
            parts.append(tuple(map(weakref.ref, part)))
            return part

        monkeypatch.setattr(wfuse.simulate, "_read_part", checked_read)
        for on_part in (None, discard):
            parts.clear()
            stats = simulate_batch(2, 97, 55, workers=2, on_part=on_part)
            assert len(parts) == 14  # ranges of at most 7 runs
            assert stats == simulate_batch(2, 97, 55, workers=1)

    def test_runs_are_indexed_by_derived_stream(self):
        # A replay through stream_for_run; at 1 worker, one range of 257 or
        # 513 runs crosses the 256-run chunks of the range streams.
        for runs in (6, _RANGE_CHUNK + 1, 2 * _RANGE_CHUNK + 1):
            for k in range(4):
                replay = [
                    run_similar_sizes(k, stream_for_run(-11, i), max_steps=10**6)
                    for i in range(runs)
                ]
                costs = [result.cost for result in replay]
                sizes = [result.final_size for result in replay]
                for workers in (1, 2, 3):
                    _, batch_costs, batch_sizes, _ = run_batch(k, runs, -11, workers=workers)
                    assert batch_costs == costs, (runs, k, workers)
                    assert batch_sizes == sizes, (runs, k, workers)

    def test_ranges_are_capped(self, monkeypatch):
        # Runs past the cap, at the real cap and at a cap of 5, whose worker
        # ranges (ceil(23 / 16) = 2 runs at 2 workers) stay below it.
        replay = [run_similar_sizes(0, stream_for_run(19, i)) for i in range(_RANGE_CAP + 3)]
        stats, costs, sizes, lengths = run_batch(0, _RANGE_CAP + 3, 19)
        assert lengths == [_RANGE_CAP, 3]
        assert costs == [result.cost for result in replay]
        assert sizes == [result.final_size for result in replay]
        assert (stats.min, stats.max) == (min(costs), max(costs))
        monkeypatch.setattr(wfuse.simulate, "_RANGE_CAP", 5)
        for runs, workers, expected in (
            (23, 1, [5, 5, 5, 5, 3]),
            (23, 2, [2] * 11 + [1]),
            (200, 2, [5] * 40),
        ):
            batch = run_batch(0, runs, 19, workers=workers)
            assert batch[3] == expected, (runs, workers)
            assert batch[1] == costs[:runs] and batch[2] == sizes[:runs]
            assert batch[0] == simulate_batch(0, runs, 19, workers=3)
        # Worker w makes ranges w, w + 2, ...: each part's final sizes are
        # replaced by the pid of the process that made it.
        run_range, fork = wfuse.simulate._run_range, os.fork
        forked = []

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        def tagged(args):
            part_costs, _ = run_range(args)
            return part_costs, array("q", [os.getpid()]) * len(part_costs)

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(wfuse.simulate, "_run_range", tagged)
        batch = run_batch(0, 200, 19, workers=2)
        assert len(forked) == 2 and os.getpid() not in forked
        assert batch[2] == [forked[i % 2] for i in range(40) for _ in range(5)]
        assert batch[1] == costs[:200] and batch[3] == [5] * 40

    def test_worker_parts_reach_the_cap_and_no_further(self):
        # 16 * _RANGE_CAP runs at 2 workers are eight ranges of the cap per
        # worker; 5 runs more, nine ranges of 1,821 runs per worker (the
        # last 1,816), not 16 of the cap and one of 5.
        for runs, expected in (
            (16 * _RANGE_CAP, [_RANGE_CAP] * 16),
            (16 * _RANGE_CAP + 5, [1821] * 17 + [1816]),
        ):
            stats, costs, sizes, lengths = run_batch(0, runs, 23, workers=2)
            assert lengths == expected
            assert (stats, costs, sizes) == run_batch(0, runs, 23, workers=1)[:3]

    def test_workers_make_equal_shares(self, monkeypatch):
        # Each part's final sizes are replaced by the pid of the worker that
        # made it.  100,000 runs at 2 workers are 50 ranges of 2,000 runs;
        # 33 * _RANGE_CAP runs, which ranges of the cap would share out 17
        # to 16, are 34 ranges.  Either way the workers' run totals differ
        # by less than one range.
        run_range = wfuse.simulate._run_range

        def tagged(args):
            part_costs, _ = run_range(args)
            return part_costs, array("q", [os.getpid()]) * len(part_costs)

        monkeypatch.setattr(wfuse.simulate, "_run_range", tagged)
        for runs, ranges in ((100_000, 50), (33 * _RANGE_CAP, 34)):
            _, _, pids, lengths = run_batch(0, runs, 3, workers=2)
            assert len(lengths) == ranges and len(set(lengths[:-1])) == 1
            totals = Counter(pids).values()
            assert len(totals) == 2 and max(totals) - min(totals) < lengths[0], totals

    def test_an_error_kills_the_workers_before_their_other_ranges(self, monkeypatch, tmp_path):
        # Range 0 fails at once.  Worker 1's ranges append a byte per run to
        # a file, at 2 ms a run: left to finish, it would write 800.
        log = tmp_path / "runs"

        def fail_or_log(args):
            _, _, start, stop = args
            if start == 0:
                raise RuntimeError("range 0 failed")
            with log.open("ab") as out:
                for _ in range(start, stop):
                    out.write(b".")
                    out.flush()
                    time.sleep(0.002)
            return array("q", [4]) * (stop - start), array("q", [2]) * (stop - start)

        monkeypatch.setattr(wfuse.simulate, "_run_range", fail_or_log)
        with pytest.raises(RuntimeError, match="^range 0 failed$"):
            simulate_batch(0, 1600, 3, workers=2)
        assert_no_child_process()
        written = log.stat().st_size if log.exists() else 0
        assert written < 400, written

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_part_callback_error_ends_the_workers(self, error):
        seen = []

        def fail_on_third_part(costs, final_sizes):
            seen.append(len(costs))
            if len(seen) == 3:
                raise error("callback failed")

        # excinfo holds the error's traceback, and so the batch's frames and
        # its parts generator: the workers must be gone all the same.
        with pytest.raises(error, match="callback failed") as excinfo:
            simulate_batch(0, 1600, 3, workers=2, on_part=fail_on_third_part)
        assert_no_child_process()
        assert seen == [100, 100, 100]

    def test_without_fork_the_batch_runs_in_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert run_batch(2, 97, 55, workers=2) == run_batch(2, 97, 55, workers=1)

    def test_memory_does_not_grow_with_runs(self, constant_runs):
        # At the parent of the fold, which joined every part, this read
        # 1.07 MB at 2**16 runs and 2.21 MB at 2**17, then 4 and 8 times a
        # cap of 2**14 (1.01 MiB at 2**15 runs and 2.44 MiB at 2**17 with
        # real runs).  With the fold it reads 265 kB at both sizes at that
        # cap, and 35 kB at a cap of 2**11.
        simulate_batch(0, 2, 5, on_part=discard)  # lazy set-up outside the trace
        peaks = [
            traced_peak(simulate_batch, 0, scale * _RANGE_CAP, 5, on_part=discard)
            for scale in (4, 8)
        ]
        assert peaks[1] < peaks[0] + 2**14, peaks

    def test_stats_fields(self):
        stats, costs, sizes, _ = run_batch(0, 500, 8)
        assert stats.min <= stats.mean <= stats.max
        assert (stats.min, stats.max) == (min(costs), max(costs))
        assert stats.mean == statistics.fmean(costs)
        assert stats.std == statistics.stdev(costs)
        assert stats.stderr == pytest.approx(stats.std / math.sqrt(500))
        assert len(costs) == 500
        assert len(sizes) == 500
        assert all(size > 1 for size in sizes)

    def test_rejects_no_runs(self):
        with pytest.raises(ValueError):
            simulate_batch(0, 0, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejects_negative_k_before_any_worker_starts(self, workers):
        with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
            simulate_batch(-1, 100, 0, workers=workers)

    def test_moments_from_integer_sums_match_statistics(self):
        rng = random.Random(3)
        for _ in range(1200):
            n = rng.randint(2, 300)
            high = rng.choice([1, 9, 10**3, 10**6, 10**9, 2**53 - 1])
            costs = [rng.randint(0, high) for _ in range(n)]
            std = _sample_std(n, sum(costs), sum(c * c for c in costs))
            assert std == statistics.stdev(costs), costs
            assert float(sum(costs)) / n == statistics.fmean(costs)
        assert _sample_std(1, 7, 49) == 0.0
        single, costs, _, _ = run_batch(3, 1, 10)
        assert (single.std, single.stderr) == (0.0, 0.0)
        assert single.mean == single.min == single.max == costs[0]


# The exact cost of the similar-sizes strategy at k = 5.
K5_COST = Fraction(
    38575897482162255236181558120136631576427493548116514564301787679363153447872754499131709693861569737283790424784,
    12285300782348574747463305296169504152973672418518763536400898613717892459410038761980258441438132617188094311,
)
# Runs of each MC calibration batch (seed 2024), fixed before any was run:
# about 2 s in all.
CALIBRATION_RUNS = {0: 10**4, 1: 10**4, 2: 10**4, 3: 10**4, 4: 4000}
oracle = cache(exact_expected_cost)


class TestExactChainOracle:
    def test_k0_is_nine_halves(self):
        assert exact_expected_cost(0) == Fraction(9, 2)

    def test_k1_value(self):
        value = exact_expected_cost(1)
        assert Fraction(9, 2) < value < 24  # between the k=0 cost and R[w_4]_opt
        assert value == 21  # regression pin of the solved chain

    def test_k2_value(self):
        value = exact_expected_cost(2)
        assert value == 76  # regression pin
        assert value > exact_expected_cost(1)

    def test_k3_to_k5_values(self):
        assert oracle(3) == Fraction(26316, 101)
        assert oracle(4) == Fraction(69921554976498, 78742925225)
        assert oracle(5) == K5_COST
        assert len(str(K5_COST.denominator)) == 110
        assert float(K5_COST) == pytest.approx(3140.0043161815, abs=1e-9)

    def test_large_k_rejected(self):
        with pytest.raises(ValueError):
            exact_expected_cost(6)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            exact_expected_cost(-1)

    def test_at_most_two_states_per_bucket_through_k6(self):
        # The bound the module docstring states, on every reachable
        # fusion-time configuration: no solve, the k = 6 build takes about
        # a second.
        chain_sizes = []
        for k in range(7):
            _, states, transitions = _fusion_chain(k)
            assert len(transitions) == len(states)
            chain_sizes.append(len(states))
            for buckets, xi in states:
                assert len(buckets[xi]) >= 2
                for level, sizes in enumerate(buckets):
                    assert len(sizes) <= 2, (k, buckets)
                    assert all(bucket_index(size) == level for size in sizes)
        assert chain_sizes == [1, 3, 8, 32, 192, 1856, 32064]

    def test_solution_satisfies_every_equation(self):
        _, _, transitions = _fusion_chain(4)
        costs = _expected_draws(transitions)
        for cost, moves in zip(costs, transitions):
            assert cost == sum(
                p * (draws + (0 if j is None else costs[j])) for p, draws, j in moves
            )

    def test_transitions_are_distributions(self):
        _, states, transitions = _fusion_chain(3)
        for moves in transitions:
            assert sum(p for p, _, _ in moves) == 1
            assert all(j is None or 0 <= j < len(states) for _, _, j in moves)
            assert all(draws == 0 for _, draws, j in moves if j is None)

    def test_exact_costs_beat_the_optimal_tree(self):
        # The exact form of acceptance criterion 08's inequality: the
        # similar-sizes strategy costs less than the optimal non-recycling
        # fusion tree for the same target size (ratios 0.915, 0.335, 0.070).
        table = optimal_costs(65)
        for k in range(3, 6):
            assert oracle(k) < table.cost(2**k + 1)

    @pytest.mark.parametrize("k", sorted(CALIBRATION_RUNS))
    def test_monte_carlo_agrees_with_oracle(self, k):
        stats = simulate_batch(k, CALIBRATION_RUNS[k], 2024)
        exact = float(oracle(k))
        assert abs(stats.mean - exact) < 4 * stats.stderr


def branch_draws(n, m):
    """A 53-bit draw for each branch of fusing ``(w_n, w_m)``, in
    ``BRANCHES`` order: 0 succeeds, the success edge is the lowest
    recyclable draw, and the largest draw fails."""
    return (0, threshold53(n, m)[0], 2**53 - 1)


def chain_runs(k):
    """One scripted run per transition of ``_fusion_chain(k)``, with the
    :class:`RunResult` the chain gives it.

    Each run takes a shortest branch prefix to the transition's state,
    found by breadth-first search, then the transition's branch, then
    successes until the run ends.
    """
    initial_draws, states, transitions = _fusion_chain(k)
    words = [branch_draws(*buckets[xi][:2]) for buckets, xi in states]
    # state -> (draws of a shortest prefix, w_1 draws, branch counts)
    prefixes = {0: ((), initial_draws, (0, 0, 0))}
    queue = [0]
    for i in queue:  # also visits the states appended below, in BFS order
        script, cost, counts = prefixes[i]
        for branch, (_, draws, j) in enumerate(transitions[i]):
            if j is not None and j not in prefixes:
                tally = list(counts)
                tally[branch] += 1
                prefixes[j] = (script + (words[i][branch],), cost + draws, tuple(tally))
                queue.append(j)
    assert len(prefixes) == len(states)

    @cache
    def complete(i):
        """(w_1 draws, attempts, final size) of successes from state ``i``."""
        _, draws, j = transitions[i][0]
        if j is None:
            buckets, xi = states[i]
            return 0, 1, sum(buckets[xi][:2])
        cost, attempts, final = complete(j)
        return draws + cost, attempts + 1, final

    for i, moves in enumerate(transitions):
        script, cost, counts = prefixes[i]
        buckets, xi = states[i]
        for branch, (_, draws, j) in enumerate(moves):
            if j is None:
                more_cost, more, final = 0, 0, sum(buckets[xi][:2])
            else:
                more_cost, more, final = complete(j)
            tally = list(counts)
            tally[branch] += 1
            tally[0] += more
            run = script + (words[i][branch],) + (0,) * more
            yield run, RunResult(cost + draws + more_cost, final, len(run), *tally)


class TestChainTransitions:
    @pytest.mark.parametrize("k", range(6))
    def test_kernel_takes_every_transition(self, k):
        # Every transition of the chain, 5,568 at k = 5, through the kernel
        # at the tightest budget; sampled runs reach rare ones only by
        # chance.  About 0.2 s in all.
        for run, expected in chain_runs(k):
            tight = expected.cost + expected.fusion_attempts - 1
            assert run_similar_sizes(k, run, max_steps=tight) == expected, run


def run_linear_strategy(
    target: int,
    recycle: bool,
    draws,
    *,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> RunResult:
    """Grow ``w_target`` one index at a time by fusing fresh ``w_1`` states.

    Without recycling any non-success discards everything and the chain
    restarts from a fresh seed, so the expected cost is the
    :func:`wfuse.growth_costs.w3_linear_cost` value.  With recycling a
    recyclable outcome keeps the shortened working state (the shortened
    companion is a Bell pair, discarded) and only complete failure
    restarts; the expected cost matches
    :func:`wfuse.growth_costs.linear_recycled_costs`.

    Like :func:`run_similar_sizes`, each attempt takes the next 53-bit
    draw of ``draws``.
    """
    if target < 1:
        raise ValueError(f"target index must be >= 1, got {target}")
    cost = 1  # the seed w_1
    size = 1
    attempts = successes = recycles = failures = 0
    draws = iter(draws)
    while size < target:
        if cost + attempts > max_steps:
            raise RuntimeError(f"step budget {max_steps} exceeded")
        cost += 1  # fresh w_1 to fuse on
        attempts += 1
        lhs = next(draws) * ((size + 2) * 3)
        success_num = (size + 3) << 53
        if lhs < success_num:
            successes += 1
            size += 1
        elif lhs < success_num + ((2 * (size + 1)) << 53):
            recycles += 1
            if recycle:
                size -= 1
                if size == 0:  # shrank to a Bell pair: worthless, start over
                    cost += 1
                    size = 1
            else:
                cost += 1
                size = 1
        else:
            failures += 1
            cost += 1
            size = 1
    return RunResult(cost, size, attempts, successes, recycles, failures)


class TestLinearStrategyRuns:
    def test_no_recycle_mean_matches_closed_form_small(self):
        runs = 10**5
        total = 0
        sq = 0
        for i in range(runs):
            cost = run_linear_strategy(2, False, stream_for_run(17, i)).cost
            total += cost
            sq += cost * cost
        mean = total / runs
        std = math.sqrt((sq - runs * mean * mean) / (runs - 1))
        expected = float(w3_linear_cost(2))
        assert abs(mean - expected) < 3 * std / math.sqrt(runs)

    def test_recycled_mean_matches_recursion(self):
        runs = 10**5
        costs = [run_linear_strategy(3, True, stream_for_run(29, i)).cost for i in range(runs)]
        mean = sum(costs) / runs
        var = sum((c - mean) ** 2 for c in costs) / (runs - 1)
        expected = float(linear_recycled_costs(3)[3])
        assert abs(mean - expected) < 3 * math.sqrt(var / runs)

    def test_no_recycle_mean_matches_closed_form_w4(self):
        runs = 10**5
        costs = [run_linear_strategy(4, False, stream_for_run(31, i)).cost for i in range(runs)]
        mean = sum(costs) / runs
        var = sum((c - mean) ** 2 for c in costs) / (runs - 1)
        expected = float(w3_linear_cost(4))
        assert abs(mean - expected) < 3 * math.sqrt(var / runs)

    def test_run_structure(self):
        result = run_linear_strategy(5, True, stream_for_run(4, 0))
        assert result.final_size == 5
        assert result.cost >= 5
        assert result.fusion_attempts == (
            result.successes + result.recycles + result.failures
        )

    def test_matches_scalar_classification(self):
        # Mirror of the linear strategy on next64() and classify_uniform.
        for recycle in (False, True):
            for i in range(200):
                stream = stream_for_run(12, i)
                cost, size, attempts = 1, 1, 0
                while size < 6:
                    cost += 1
                    attempts += 1
                    u = (stream.next64() >> 11) * 2.0**-53
                    branch = classify_uniform(size, 1, u)
                    if branch == SUCCESS:
                        size += 1
                    elif branch == RECYCLE and recycle:
                        size -= 1
                        if size == 0:
                            cost, size = cost + 1, 1
                    else:
                        cost, size = cost + 1, 1
                result = run_linear_strategy(6, recycle, stream_for_run(12, i))
                assert (result.cost, result.fusion_attempts) == (cost, attempts)

    def test_trivial_target(self):
        result = run_linear_strategy(1, False, SplitMix64(0))
        assert result.cost == 1 and result.fusion_attempts == 0

    def test_rejects_zero_target(self):
        with pytest.raises(ValueError):
            run_linear_strategy(0, False, SplitMix64(0))
