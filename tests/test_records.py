from array import array
from fractions import Fraction

import pytest

from wfuse.fusion_model import OutcomeDistribution, outcome_distribution
from wfuse.gate import fuse, make_w_state, verify_probabilities
from wfuse.growth_costs import LinearGrowthParams
from wfuse.optimal import CostEntry, FusionTree, optimal_costs, optimal_plan
from wfuse.simulate import BatchStats, FusionStep, RunResult

RECORDS = {
    "RunResult": lambda: RunResult(1, 2, 3, 1, 1, 1),
    "FusionStep": lambda: FusionStep(0, 1, 1, "success", 2, ((), ()), 2),
    "BatchStats": lambda: BatchStats(
        0, 1, 5, 2.0, 0.0, 0.0, 2, 2, array("q", [2]), array("q", [2])
    ),
    "OutcomeDistribution": lambda: outcome_distribution(1, 1),
    "LinearGrowthParams": lambda: LinearGrowthParams(1, 1, 0),
    "CostEntry": lambda: CostEntry(Fraction(1), None),
    "CostTable": lambda: optimal_costs(3),
    "FusionTree": lambda: optimal_plan(optimal_costs(3), 3),
    "GateReport": lambda: fuse(make_w_state(3), make_w_state(3)),
    "GateCheck": lambda: verify_probabilities(3, 3),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_reprs_name_every_field():
    assert repr(RunResult(1, 2, 3, 1, 1, 1)) == (
        "RunResult(cost=1, final_size=2, fusion_attempts=3, successes=1,"
        " recycles=1, failures=1)"
    )
    assert repr(FusionTree(1)) == "FusionTree(size=1, left=None, right=None)"
    assert repr(CostEntry(Fraction(1), None)) == (
        "CostEntry(cost=Fraction(1, 1), best_split=None)"
    )


def test_fusion_tree_defaults_and_hash():
    assert FusionTree(1) == FusionTree(size=1, left=None, right=None)
    assert hash(optimal_plan(optimal_costs(5), 5)) == hash(
        optimal_plan(optimal_costs(6), 5)
    )


def test_cost_table_indexes_by_target():
    table = optimal_costs(4)
    assert table[1] == CostEntry(Fraction(1), None)  # not the tuple's first item
    assert table[4] == CostEntry(Fraction(24), 2) == table.entries[4]


@pytest.mark.parametrize(
    "probabilities, message",
    [
        ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), "sum to 3/2, not 1"),
        ((Fraction(3, 2), Fraction(-1, 2), Fraction(0)), "3/2 outside \\[0, 1\\]"),
    ],
)
def test_outcome_distribution_rejects_bad_probabilities(probabilities, message):
    with pytest.raises(ValueError, match=message):
        OutcomeDistribution(*probabilities)


def test_outcome_distribution_by_keyword():
    dist = OutcomeDistribution(
        p_success=Fraction(1, 2), p_recycle=Fraction(1, 4), p_failure=Fraction(1, 4)
    )
    assert dist.p_recycle == Fraction(1, 4)


def test_gate_records_compare_by_value():
    assert fuse(make_w_state(3), make_w_state(3)) == fuse(make_w_state(3), make_w_state(3))
    assert verify_probabilities(3, 3) == verify_probabilities(3, 3)
