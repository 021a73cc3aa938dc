import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wfuse.fusion_model import BRANCHES, FAILURE, RECYCLE, SUCCESS, classify_uniform
from wfuse.growth_costs import linear_recycled_costs, w3_linear_cost
from wfuse.rng import (
    _GOLDEN,
    _LANE_STEP,
    _lanes53,
    MASK64,
    SplitMix64,
    block53,
    mix64,
    stream_for_run,
)
from wfuse.simulate import (
    _S0_RECYCLE,
    _S0_SUCCESS,
    FusionStep,
    RunResult,
    _run_reference,
    bucket_index,
    exact_expected_cost,
    run_linear_strategy,
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

    def test_uniform_is_53_bit_dyadic(self):
        stream = SplitMix64(9)
        for _ in range(100):
            u = stream.random()
            num, den = u.as_integer_ratio()
            assert 0 <= u < 1
            assert den <= 2**53 and 2**53 % den == 0

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
        draws = SplitMix64(seed).draws53()
        assert [next(draws) for _ in range(1200)] == scalar_draws(seed, 1200)

    def test_iterator_leaves_stream_until_skip(self):
        stream = SplitMix64(77)
        draws = stream.draws53()
        taken = [next(draws) for _ in range(5)]
        assert stream._state == 77
        stream.skip(5)
        assert stream._state == (77 + 5 * _GOLDEN) & MASK64
        assert stream.next64() >> 11 == scalar_draws(77, 6)[5]
        assert taken == scalar_draws(77, 5)

    @pytest.mark.parametrize("byteorder", ["little", "big"])
    def test_lane_unpacking_on_either_byte_order(self, byteorder):
        # Read the lane bytes as 64-bit words the way a native cast does on
        # a host of the given byte order, then take the lanes' low words.
        count = 37
        raw = _lanes53(2**64 - 1, count).to_bytes(16 * count, byteorder)
        words = [int.from_bytes(raw[i : i + 8], byteorder) for i in range(0, len(raw), 8)]
        assert words[:: _LANE_STEP[byteorder]] == scalar_draws(2**64 - 1, count)

    def test_s0_thresholds_are_the_exact_ones(self):
        for draw, branch in (
            (_S0_SUCCESS - 1, SUCCESS),
            (_S0_SUCCESS, RECYCLE),
            (_S0_RECYCLE - 1, RECYCLE),
            (_S0_RECYCLE, FAILURE),
        ):
            assert classify_uniform(1, 1, draw * 2.0**-53) == branch


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


class TestSimilarSizesRuns:
    def test_fast_loop_matches_reference(self):
        for k in range(0, 7):
            for i in range({5: 3, 6: 2}.get(k, 25)):
                seed_stream = stream_for_run(905, i + 100 * k)
                ref_stream = stream_for_run(905, i + 100 * k)
                start = seed_stream._state
                result = run_similar_sizes(k, seed_stream)
                assert result == _run_reference(k, ref_stream)
                assert seed_stream._state == ref_stream._state
                assert seed_stream._state == (start + result.fusion_attempts * _GOLDEN) & MASK64

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_step_budget_matches_reference(self, k):
        for max_steps in range(301):
            outcomes = []
            for run in (run_similar_sizes, _run_reference):
                stream = stream_for_run(6007, k)
                try:
                    outcome = run(k, stream, max_steps=max_steps)
                except RuntimeError as exc:
                    outcome = str(exc)
                outcomes.append((outcome, stream._state))
            assert outcomes[0] == outcomes[1], max_steps

    def test_k0_costs_are_two_per_attempt(self):
        for i in range(50):
            result = run_similar_sizes(0, stream_for_run(3, i))
            assert result.cost == 2 * result.fusion_attempts
            assert result.successes == 1
            assert result.final_size == 2

    def test_final_size_exceeds_target_threshold(self):
        for k in range(0, 5):
            for i in range(10):
                result = run_similar_sizes(k, stream_for_run(81, i), audit=True)
                assert result.final_size > 2**k
                assert result.cost >= result.final_size
                assert result.successes >= 1

    def test_audit_ledger_on_larger_runs(self):
        for i in range(5):
            run_similar_sizes(5, stream_for_run(512, i), audit=True)
        run_similar_sizes(6, stream_for_run(512, 5), audit=True)

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


class TestTraceProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 2**64 - 1))
    def test_invariants_along_the_trace(self, k, seed):
        stream = SplitMix64(seed)
        counts = dict.fromkeys(BRANCHES, 0)
        failure_loss = 0
        for step in trace_similar_sizes(k, stream):
            counts[step.branch] += 1
            if step.branch == FAILURE:
                failure_loss += step.n + step.m
            for level, bucket in enumerate(step.buckets):
                assert all(bucket_index(size) == level for size in bucket)
            # Draws add 1 each, success conserves, recycle loses 2, failure n+m.
            remaining = sum(map(sum, step.buckets))
            assert step.cost == (
                remaining + (step.final or 0) + 2 * counts[RECYCLE] + failure_loss
            )
        fold = RunResult(step.cost, step.final, sum(counts.values()), *counts.values())
        fast_stream = SplitMix64(seed)
        assert run_similar_sizes(k, fast_stream, audit=True) == fold
        assert fast_stream._state == stream._state


class TestBatches:
    def test_mean_near_nine_halves_at_k0(self):
        stats = simulate_batch(0, 1000, 42)
        # Var = 4(1-p)/p^2 = 11.25 for p = 4/9, so 3 SE is about 0.32
        assert 4.18 <= stats.mean <= 4.82

    def test_batch_is_deterministic(self):
        a = simulate_batch(2, 60, 123)
        b = simulate_batch(2, 60, 123)
        assert a.costs == b.costs
        assert (a.mean, a.std, a.stderr, a.min, a.max) == (
            b.mean,
            b.std,
            b.stderr,
            b.min,
            b.max,
        )

    def test_workers_do_not_change_results(self):
        sequential = simulate_batch(2, 80, 55, workers=1)
        parallel = simulate_batch(2, 80, 55, workers=3)
        assert sequential.costs == parallel.costs

    def test_runs_are_indexed_by_derived_stream(self):
        stats = simulate_batch(1, 6, 991)
        for i in range(6):
            assert stats.costs[i] == run_similar_sizes(1, stream_for_run(991, i)).cost

    def test_stats_fields(self):
        stats = simulate_batch(0, 500, 8)
        assert stats.min <= stats.mean <= stats.max
        assert stats.stderr == pytest.approx(stats.std / math.sqrt(500))
        assert len(stats.costs) == 500
        assert len(stats.final_sizes) == 500
        assert all(size > 1 for size in stats.final_sizes)

    def test_rejects_no_runs(self):
        with pytest.raises(ValueError):
            simulate_batch(0, 0, 1)


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

    def test_large_k_rejected(self):
        with pytest.raises(ValueError):
            exact_expected_cost(3)

    @pytest.mark.parametrize("k", [0, 1])
    def test_monte_carlo_agrees_with_oracle(self, k):
        stats = simulate_batch(k, 10**4, 2024)
        exact = float(exact_expected_cost(k))
        assert abs(stats.mean - exact) < 4 * stats.stderr


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
        stream = stream_for_run(4, 0)
        start = stream._state
        result = run_linear_strategy(5, True, stream)
        assert result.final_size == 5
        assert result.cost >= 5
        assert result.fusion_attempts == sum(result.outcome_counts)
        assert stream._state == (start + result.fusion_attempts * _GOLDEN) & MASK64

    def test_matches_scalar_classification(self):
        # Mirror of the linear strategy on next64() and classify_uniform.
        for recycle in (False, True):
            for i in range(200):
                stream = stream_for_run(12, i)
                cost, size, attempts = 1, 1, 0
                while size < 6:
                    cost += 1
                    attempts += 1
                    branch = classify_uniform(size, 1, stream.random())
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
