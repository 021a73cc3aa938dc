from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wfuse.fusion_model import outcome_distribution
from wfuse.growth_costs import (
    LinearGrowthParams,
    compose_cost,
    exponential_cost,
    exponential_normalized_cost,
    gamma,
    linear_growth_cost,
    linear_recycled_costs,
    linear_recycled_normalized_cost,
    w3_linear_cost,
    w3_linear_normalized_cost,
)


def iterate_linear_recurrence(m, n, k, seed_cost, increment_cost):
    """Independent oracle: iterate r_{j+1} = (n+2) r_j + xi (m+jn+2)."""
    xi = (n + 2) * Fraction(increment_cost)
    r = (m + 2) * Fraction(seed_cost)
    for j in range(k):
        r = (n + 2) * r + xi * (m + j * n + 2)
    return r / (m + k * n + 2)


def recycled_costs_by_fractions(max_m):
    """The recycled-linear recursion as stated, in Fraction arithmetic."""
    costs = [Fraction(0), Fraction(1), Fraction(9, 2)]
    for m in range(2, max_m):
        dist = outcome_distribution(m, 1)
        costs.append((costs[m] + 1 - dist.p_recycle * costs[m - 1]) / dist.p_success)
    return costs


class TestComposeCost:
    def test_two_basic_states(self):
        assert compose_cost(1, 1, 1, 1) == Fraction(9, 2)

    def test_one_plus_three(self):
        assert compose_cost(1, Fraction(66, 5), 1, 3) == Fraction(71, 2)

    def test_two_plus_two(self):
        assert compose_cost(Fraction(9, 2), Fraction(9, 2), 2, 2) == 24

    def test_symmetric_in_operands(self):
        a, b = Fraction(7, 3), Fraction(11, 2)
        assert compose_cost(a, b, 2, 5) == compose_cost(b, a, 5, 2)

    def test_rejects_nonpositive_costs(self):
        with pytest.raises(ValueError):
            compose_cost(0, 1, 1, 1)


class TestLinearGrowth:
    def test_zero_levels_returns_seed(self):
        params = LinearGrowthParams(m=3, n=2, k=0)
        assert linear_growth_cost(params, Fraction(5, 4), 1) == Fraction(5, 4)

    def test_single_level_is_one_composition(self):
        assert linear_growth_cost(LinearGrowthParams(1, 1, 1), 1, 1) == Fraction(9, 2)

    def test_three_levels(self):
        assert linear_growth_cost(LinearGrowthParams(1, 1, 3), 1, 1) == Fraction(71, 2)

    def test_closed_form_matches_recurrence_on_grid(self):
        for m in range(1, 7):
            for n in range(1, 7):
                for k in range(0, 11):
                    closed = linear_growth_cost(LinearGrowthParams(m, n, k), 1, 1)
                    assert closed == iterate_linear_recurrence(m, n, k, 1, 1)

    @settings(max_examples=50)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 8),
        st.fractions(Fraction(1, 3), 4),
        st.fractions(Fraction(1, 3), 4),
    )
    def test_closed_form_matches_recurrence_random_costs(self, m, n, k, seed, inc):
        params = LinearGrowthParams(m, n, k)
        assert linear_growth_cost(params, seed, inc) == iterate_linear_recurrence(
            m, n, k, seed, inc
        )

    def test_rejects_bad_params(self):
        for m, n, k, message in [
            (0, 1, 1, "seed and increment indices must be >= 1"),
            (1, 0, 1, "seed and increment indices must be >= 1"),
            (1, 1, -1, "number of fusion levels must be >= 0"),
        ]:
            with pytest.raises(ValueError, match=message):
                LinearGrowthParams(m, n, k)
            with pytest.raises(ValueError, match=message):
                LinearGrowthParams(m=m, n=n, k=k)


class TestW3LinearCost:
    def test_first_values(self):
        assert [w3_linear_cost(n) for n in range(1, 5)] == [
            Fraction(1),
            Fraction(9, 2),
            Fraction(66, 5),
            Fraction(71, 2),
        ]

    def test_equals_general_linear_growth(self):
        for target in range(1, 26):
            params = LinearGrowthParams(m=1, n=1, k=target - 1)
            assert w3_linear_cost(target) == linear_growth_cost(params, 1, 1)

    def test_growth_ratio_approaches_three(self):
        # consecutive-cost ratio follows 3(N+2)/(N+3) almost exactly (the
        # non-dominant terms decay like N/3^N), so the approach to 3 is
        # O(1/N): 3.0% off at N = 30, first within 1% at N = 97
        envelope = Fraction(3 * 32, 33)
        ratio_30 = w3_linear_cost(31) / w3_linear_cost(30)
        assert abs(ratio_30 - envelope) < Fraction(1, 10**9)
        ratio_100 = w3_linear_cost(101) / w3_linear_cost(100)
        assert abs(ratio_100 - 3) < Fraction(3, 100)
        assert abs(ratio_100 - 3) < abs(ratio_30 - 3)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            w3_linear_cost(0)


class TestLinearRecycledCosts:
    def test_seeds_and_first_derived_values(self):
        costs = linear_recycled_costs(4)
        assert costs[1] == 1
        assert costs[2] == Fraction(9, 2)
        assert costs[3] == 12
        assert costs[4] == Fraction(53, 2)

    def test_matches_direct_substitution(self):
        # independent re-derivation of the recursion step for m = 2, 3
        p2, q2 = Fraction(5, 12), Fraction(1, 2)
        assert linear_recycled_costs(3)[3] == (Fraction(9, 2) + 1 - q2 * 1) / p2
        p3, q3 = Fraction(2, 5), Fraction(8, 15)
        assert (
            linear_recycled_costs(4)[4]
            == (12 + 1 - q3 * Fraction(9, 2)) / p3
        )

    def test_integer_recurrence_equals_fraction_recursion(self):
        reference = recycled_costs_by_fractions(400)
        assert linear_recycled_costs(400) == reference
        for max_m in (2, 3, 17):
            assert linear_recycled_costs(max_m) == reference[: max_m + 1]

    def test_difference_ratio_approaches_two(self):
        # The ratio approaches 2 from below by 2(m-1)/(m(m+3)), up to a
        # term that decays like m^3 / 2^m: 1.56% of the limit at m = 60,
        # first within 1% at m = 96
        costs = linear_recycled_costs(201)

        def ratio_at(m):
            return (costs[m + 1] - costs[m]) / (costs[m] - costs[m - 1])

        deviation_60 = abs(ratio_at(60) - 2)
        assert deviation_60 < Fraction(2, 62)  # tight truthful envelope
        assert abs(ratio_at(96) - 2) <= Fraction(2, 100)
        assert abs(ratio_at(100) - 2) < Fraction(2, 100)
        assert abs(ratio_at(100) - 2) < deviation_60
        for m in range(60, 201):
            ratio = ratio_at(m)
            assert ratio < 2, m
            law = 2 - Fraction(2 * (m - 1), m * (m + 3))
            assert abs(ratio - law) < Fraction(1, 10**16), m

    def test_recycling_never_hurts(self):
        costs = linear_recycled_costs(40)
        for m in range(2, 41):
            assert costs[m] <= w3_linear_cost(m)
            if m >= 3:
                assert costs[m] < w3_linear_cost(m)

    def test_rejects_short_range(self):
        with pytest.raises(ValueError):
            linear_recycled_costs(1)
        with pytest.raises(ValueError):
            linear_recycled_normalized_cost(0)
        with pytest.raises(ValueError):
            linear_recycled_normalized_cost(-1)


class TestExponentialGrowth:
    def test_doubling_chain_values(self):
        assert exponential_cost(0) == 1
        assert exponential_cost(1) == Fraction(9, 2)
        assert exponential_cost(2) == 24
        assert exponential_cost(3) == Fraction(864, 5)

    def test_gamma_small_values(self):
        assert gamma(0) == Fraction(3, 2)
        assert gamma(2) == 9

    def test_gamma_closed_form_matches_recurrence(self):
        for k in range(0, 21):
            prefactor = gamma(k) * Fraction(2) ** (k * (k + 1) // 2)
            assert exponential_cost(k) * (1 + Fraction(2) ** (k - 1)) == prefactor

    def test_gamma_converges_to_limit(self):
        value = float(gamma(30))
        assert 21.457 < value < 21.459
        previous = gamma(0)
        for k in range(1, 32):
            current = gamma(k)
            assert current >= previous
            previous = current

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            exponential_cost(-1)
        with pytest.raises(ValueError):
            gamma(-2)


class TestNormalizedCosts:
    """Each integer form equals ``(n + 2) * cost(n)`` of its ``Fraction``
    function and of an independent statement of the same cost."""

    def test_linear_up_to_3000(self):
        # linear_growth_cost's recurrence with seed and increment w_1,
        # a(N+1) = 3 a(N) + 3 (N + 2), run in ints
        a = 3
        for n in range(1, 3001):
            assert w3_linear_normalized_cost(n) == a == (n + 2) * w3_linear_cost(n), n
            a = 3 * a + 3 * (n + 2)
        for n in (1, 2, 25, 300):
            params = LinearGrowthParams(m=1, n=1, k=n - 1)
            assert w3_linear_normalized_cost(n) == (n + 2) * linear_growth_cost(params)

    def test_linear_recycled_up_to_3000(self):
        # The closed form against the Fraction recursion as stated and
        # against its integer form, r(m+1) = 3 r(m) - 2 r(m-1) + 3 (m+2)
        # from r(0) = 0, r(1) = 3, run in ints
        reference = recycled_costs_by_fractions(3000)
        prev, r = 0, 3
        for m in range(1, 3001):
            closed = linear_recycled_normalized_cost(m)
            assert closed == r == (m + 2) * reference[m], m
            prev, r = r, 3 * r - 2 * prev + 3 * (m + 2)

    def test_doubling_up_to_k_11(self):
        cost = Fraction(1)  # the doubling relation, in Fractions
        for k in range(12):
            size = 2**k
            assert exponential_normalized_cost(k) == (size + 2) * cost
            assert exponential_normalized_cost(k) == (size + 2) * exponential_cost(k)
            cost *= Fraction((size + 2) ** 2, size + 1)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            w3_linear_normalized_cost(0)
        with pytest.raises(ValueError):
            linear_recycled_normalized_cost(0)
        with pytest.raises(ValueError):
            linear_recycled_normalized_cost(-1)
        with pytest.raises(ValueError):
            exponential_normalized_cost(-1)
