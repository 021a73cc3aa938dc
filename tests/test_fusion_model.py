from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wfuse.fusion_model import (
    actual_size,
    classify_uniform,
    index_from_actual,
    outcome_distribution,
)
from wfuse.rng import SplitMix64


class TestSizeConventions:
    def test_actual_size(self):
        assert actual_size(0) == 2  # Bell pair
        assert actual_size(1) == 3  # basic resource
        assert actual_size(10) == 12

    def test_round_trip(self):
        for n in range(0, 50):
            assert index_from_actual(actual_size(n)) == n

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            actual_size(-1)
        with pytest.raises(ValueError):
            index_from_actual(1)
        with pytest.raises(TypeError):
            actual_size(1.5)


class TestOutcomeDistribution:
    def test_golden_success_probabilities(self):
        assert outcome_distribution(1, 3).p_success == Fraction(2, 5)
        assert outcome_distribution(2, 2).p_success == Fraction(3, 8)

    def test_basic_resource_pair(self):
        dist = outcome_distribution(1, 1)
        assert (dist.p_success, dist.p_recycle, dist.p_failure) == (
            Fraction(4, 9),
            Fraction(4, 9),
            Fraction(1, 9),
        )

    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_bell_pair_success_is_half(self, n):
        # fusing a Bell pair never expands the partner state, and succeeds
        # at exactly 1/2 regardless of the partner's size
        assert outcome_distribution(0, n).p_success == Fraction(1, 2)

    def test_sum_to_one_on_grid(self):
        for n in range(0, 201):
            for m in range(0, 201):
                dist = outcome_distribution(n, m)
                assert dist.p_success + dist.p_recycle + dist.p_failure == 1
                assert 0 <= dist.p_failure <= dist.p_success <= 1

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_symmetry(self, n, m):
        assert outcome_distribution(n, m) == outcome_distribution(m, n)

    def test_monotonicity_in_n(self):
        for m in range(0, 30):
            for n in range(0, 40):
                here = outcome_distribution(n, m)
                next_ = outcome_distribution(n + 1, m)
                assert next_.p_failure < here.p_failure
                assert next_.p_recycle > here.p_recycle


class TestSampling:
    def test_threshold_order_at_basic_pair(self):
        # cumulative thresholds for (1, 1) are 4/9 then 8/9
        assert classify_uniform(1, 1, 0.10) == "success"
        assert classify_uniform(1, 1, 0.50) == "recycle"
        assert classify_uniform(1, 1, 0.95) == "failure"

    def test_exact_boundaries(self):
        # u equal to a threshold falls in the next branch (u < P_s is strict)
        assert classify_uniform(0, 2, Fraction(1, 2)) == "recycle"
        assert classify_uniform(0, 2, Fraction(1, 2) - Fraction(1, 10**30)) == "success"
        assert classify_uniform(1, 1, Fraction(8, 9)) == "failure"

    def test_rejects_out_of_range_variate(self):
        with pytest.raises(ValueError):
            classify_uniform(1, 1, 1.0)
        with pytest.raises(ValueError):
            classify_uniform(1, 1, -0.25)

    @given(st.integers(0, 60), st.integers(0, 60), st.fractions(0, 1))
    def test_classification_matches_cumulative_thresholds(self, n, m, u):
        if u >= 1:
            return
        dist = outcome_distribution(n, m)
        low, high = dist.cumulative()
        expected = "success" if u < low else ("recycle" if u < high else "failure")
        assert classify_uniform(n, m, u) == expected

    def test_empirical_frequencies_within_four_sigma(self):
        n, m, draws = 2, 3, 10**6
        rng = SplitMix64(2024)
        counts = {"success": 0, "recycle": 0, "failure": 0}
        for _ in range(draws):
            counts[classify_uniform(n, m, rng.random())] += 1
        dist = outcome_distribution(n, m)
        for branch, p in (
            ("success", dist.p_success),
            ("recycle", dist.p_recycle),
            ("failure", dist.p_failure),
        ):
            expected = float(p) * draws
            sigma = (float(p) * (1 - float(p)) * draws) ** 0.5
            assert abs(counts[branch] - expected) < 4 * sigma, (branch, counts)
