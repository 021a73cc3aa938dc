from fractions import Fraction

import pytest

from wfuse.growth_costs import compose_cost, exponential_cost, gamma
from wfuse.optimal import (
    CostEntry,
    FusionTree,
    optimal_costs,
    optimal_normalized_costs,
    optimal_plan,
)


@pytest.fixture(scope="module")
def table_2048():
    """One table shared by the tests that read large indices."""
    return optimal_costs(2048)


def reference_entries(max_n):
    """The full exact DP: every split costed with Fraction arithmetic."""
    entries = {1: CostEntry(Fraction(1), None)}
    for n in range(2, max_n + 1):
        best_cost = None
        best_k = None
        for k in range(1, n // 2 + 1):
            cost = compose_cost(entries[k].cost, entries[n - k].cost, k, n - k)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_k = k
        entries[n] = CostEntry(best_cost, best_k)
    return entries


def brute_force_tree_costs(leaves, cache=None):
    """All costs achievable by any full binary fusion tree over w_1 leaves.

    Independent of the DP path: enumerates subtree combinations and applies
    the success-probability formula directly.
    """
    if cache is None:
        cache = {}
    if leaves == 1:
        return {Fraction(1)}
    if leaves in cache:
        return cache[leaves]
    costs = set()
    for k in range(1, leaves // 2 + 1):
        p_success = Fraction(leaves + 2, (k + 2) * (leaves - k + 2))
        for left in brute_force_tree_costs(k, cache):
            for right in brute_force_tree_costs(leaves - k, cache):
                costs.add((left + right) / p_success)
    cache[leaves] = costs
    return costs


class TestOptimalCosts:
    def test_golden_values_and_splits(self):
        table = optimal_costs(5)
        assert table.cost(1) == 1 and table[1].best_split is None
        assert table.cost(2) == Fraction(9, 2) and table[2].best_split == 1
        assert table.cost(3) == Fraction(66, 5) and table[3].best_split == 1
        assert table.cost(4) == 24 and table[4].best_split == 2
        assert table.cost(5) == Fraction(354, 7) and table[5].best_split == 2

    def test_w5_split_enumeration(self):
        # the two candidate splits of w_5, computed directly
        from_w1_w4 = Fraction(18, 7) * (1 + 24)
        from_w2_w3 = Fraction(20, 7) * (Fraction(9, 2) + Fraction(66, 5))
        assert from_w1_w4 == Fraction(450, 7)
        assert from_w2_w3 == Fraction(354, 7)
        assert optimal_costs(5).cost(5) == min(from_w1_w4, from_w2_w3)

    def test_costs_are_monotone(self):
        table = optimal_costs(64)
        for n in range(2, 65):
            assert table.cost(n) >= table.cost(n - 1)

    def test_power_of_two_coincides_with_doubling(self, table_2048):
        for k in range(0, 12):
            assert table_2048.cost(2**k) == exponential_cost(k)

    def test_normalized_costs_are_integers(self, table_2048):
        # (n + 2) * R_opt(n) is the integer a(n) of the module's recurrence
        for n in range(1, 2049):
            assert ((n + 2) * table_2048.cost(n)).denominator == 1

    def test_subexponential_bound(self):
        table = optimal_costs(64)
        limit = Fraction("21.459")
        for k in range(0, 7):
            bound = limit * Fraction(2) ** (k * (k + 1) // 2) / (1 + Fraction(2) ** (k - 1))
            assert table.cost(2**k) <= bound

    def test_gamma_prefactor_stays_below_limit(self):
        for k in range(0, 7):
            assert gamma(k) < Fraction("21.459")

    def test_brute_force_never_beats_dp(self):
        table = optimal_costs(12)
        cache = {}
        for n in range(2, 13):
            achievable = brute_force_tree_costs(n, cache)
            assert min(achievable) == table.cost(n)

    def test_normalized_dp_matches_the_table(self, table_2048):
        a, splits = optimal_normalized_costs(2048)
        assert a[0] == 0 and splits[:2] == [None, None]
        assert a[1:] == [(n + 2) * table_2048.cost(n) for n in range(1, 2049)]
        assert splits[1:] == [table_2048[n].best_split for n in range(1, 2049)]

    def test_integer_dp_equals_fraction_dp(self):
        assert optimal_costs(300).entries == reference_entries(300)

    def test_balanced_split_observed_up_to_2048(self, table_2048):
        # Observed, not proven: the DP's minimizing split is n // 2 for
        # every n up to 2048.
        assert [table_2048[n].best_split for n in range(2, 2049)] == [
            n // 2 for n in range(2, 2049)
        ]

    def test_range_checks(self):
        with pytest.raises(ValueError):
            optimal_costs(0)
        with pytest.raises(ValueError):
            optimal_normalized_costs(0)
        table = optimal_costs(4)
        with pytest.raises(KeyError):
            table[5]
        with pytest.raises(KeyError):
            table[0]


class TestOptimalPlan:
    def test_base_state_is_a_leaf(self):
        table = optimal_costs(3)
        tree = optimal_plan(table, 1)
        assert tree.is_leaf and tree.size == 1 and tree.cost() == 1

    def test_w4_is_balanced(self):
        tree = optimal_plan(optimal_costs(4), 4)
        assert tree.shape() == ((1, 1), (1, 1))

    def test_w5_shape(self):
        tree = optimal_plan(optimal_costs(5), 5)
        assert tree.shape() == ((1, 1), (1, (1, 1)))

    def test_plan_cost_matches_table(self):
        table = optimal_costs(20)
        for n in range(1, 21):
            tree = optimal_plan(table, n)
            assert tree.size == n
            assert tree.cost() == table.cost(n)

    def test_leaf_count_matches_size(self):
        def leaves(tree: FusionTree) -> int:
            if tree.is_leaf:
                return 1
            return leaves(tree.left) + leaves(tree.right)

        table = optimal_costs(16)
        for n in (1, 2, 7, 16):
            assert leaves(optimal_plan(table, n)) == n

    def test_out_of_range(self):
        table = optimal_costs(4)
        with pytest.raises(KeyError):
            optimal_plan(table, 9)
