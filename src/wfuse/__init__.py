"""Resource costs and simulation of a polarization fusion gate for W states.

The library models a probabilistic gate that merges two W states into a
larger one, and answers "how many basic three-photon resource states does a
target size cost?" for every growth strategy: exact closed forms, optimal
dynamic programming, and seeded Monte Carlo of the recycling strategy,
plus an amplitude-level verifier of the gate itself.
"""

from .fusion_model import (
    OutcomeDistribution,
    classify_uniform,
    outcome_distribution,
)
from .growth_costs import (
    LinearGrowthParams,
    compose_cost,
    exponential_cost,
    gamma,
    linear_growth_cost,
    linear_recycled_costs,
    w3_linear_cost,
)
from .optimal import CostEntry, CostTable, FusionTree, optimal_costs, optimal_plan
from .rng import SplitMix64, mix64, stream_for_run
from .simulate import (
    BatchStats,
    FusionStep,
    RunResult,
    bucket_index,
    exact_expected_cost,
    run_linear_strategy,
    run_similar_sizes,
    simulate_batch,
    trace_similar_sizes,
)
from .gate import (
    GateCheck,
    GateReport,
    SparseState,
    check_decomposition,
    fidelity,
    fuse,
    make_w_state,
    verify_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "OutcomeDistribution",
    "classify_uniform",
    "outcome_distribution",
    "LinearGrowthParams",
    "compose_cost",
    "exponential_cost",
    "gamma",
    "linear_growth_cost",
    "linear_recycled_costs",
    "w3_linear_cost",
    "CostEntry",
    "CostTable",
    "FusionTree",
    "optimal_costs",
    "optimal_plan",
    "SplitMix64",
    "mix64",
    "stream_for_run",
    "BatchStats",
    "FusionStep",
    "RunResult",
    "bucket_index",
    "exact_expected_cost",
    "run_linear_strategy",
    "run_similar_sizes",
    "simulate_batch",
    "trace_similar_sizes",
    "GateCheck",
    "GateReport",
    "SparseState",
    "check_decomposition",
    "fidelity",
    "fuse",
    "make_w_state",
    "verify_probabilities",
]
