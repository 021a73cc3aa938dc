"""Acceptance checks, one per release criterion.

Each test prints one ``[ACCEPTANCE nn] PASS/FAIL`` line (visible with
``pytest -s`` or in captured output).  Tolerances are pinned here, not
configurable.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from wfuse.gate import TOLERANCE, fidelity, fuse, make_w_state
from wfuse.growth_costs import (
    LinearGrowthParams,
    exponential_cost,
    gamma,
    linear_growth_cost,
    linear_recycled_costs,
    w3_linear_cost,
)
from wfuse.optimal import optimal_costs
from wfuse.simulate import exact_expected_cost, simulate_batch

REPO_ROOT = Path(__file__).resolve().parents[1]

_capture = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    global _capture
    _capture = capsys
    yield
    _capture = None


def _report(line: str) -> None:
    if _capture is None:
        print(line)
        return
    with _capture.disabled():
        print(line)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        _report(f"[ACCEPTANCE {number:02d}] FAIL {description}")
        raise
    elapsed = time.monotonic() - started
    _report(f"[ACCEPTANCE {number:02d}] PASS {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )


def test_criterion_01_golden_optimal_costs():
    with criterion(1, "optimal DP golden values 9/2, 66/5, 24", 1.0):
        table = optimal_costs(4)
        assert table.cost(2) == Fraction(9, 2)
        assert table.cost(3) == Fraction(66, 5)
        assert table.cost(4) == Fraction(24)


def test_criterion_02_linear_closed_form():
    with criterion(2, "linear-growth closed form == iterated recurrence", 1.0):
        for target in range(1, 26):
            # independent recurrence iteration with m = n = 1, unit costs
            r = Fraction(3)
            for level in range(target - 1):
                r = 3 * r + 3 * (level + 3)
            assert w3_linear_cost(target) == r / (target + 2)
            assert w3_linear_cost(target) == linear_growth_cost(
                LinearGrowthParams(1, 1, target - 1), 1, 1
            )
        assert [w3_linear_cost(n) for n in (1, 2, 3, 4)] == [
            1,
            Fraction(9, 2),
            Fraction(66, 5),
            Fraction(71, 2),
        ]


def test_criterion_03_doubling_matches_optimal():
    with criterion(3, "DP cost at 2^k equals doubling recurrence, k <= 6", 1.0):
        table = optimal_costs(64)
        for k in range(0, 7):
            assert table.cost(2**k) == exponential_cost(k)


def test_criterion_04_gamma_convergence_and_erratum_note():
    with criterion(4, "gamma(30) in (21.457, 21.459), product form documented", 1.0):
        assert Fraction("21.457") < gamma(30) < Fraction("21.459")
        # three-way consistency of the convergent product form
        assert exponential_cost(1) == Fraction(9, 2)
        assert exponential_cost(2) == 24
        for k in range(0, 21):
            prefactor = gamma(k) * Fraction(2) ** (k * (k + 1) // 2)
            assert exponential_cost(k) * (1 + Fraction(2) ** (k - 1)) == prefactor
        readme = (REPO_ROOT / "README.md").read_text()
        assert "diverges" in readme  # the mis-transcribed exponent is documented


def test_criterion_05_recycled_recursion():
    with criterion(5, "recycled linear recursion values and ratio -> 2", 1.0):
        costs = linear_recycled_costs(61)
        assert costs[1] == 1 and costs[2] == Fraction(9, 2)
        # brute-force re-derivation by direct substitution
        p2, q2 = Fraction(2 + 3, 3 * (2 + 2)), Fraction(2 * (2 + 1), 3 * (2 + 2))
        p3, q3 = Fraction(3 + 3, 3 * (3 + 2)), Fraction(2 * (3 + 1), 3 * (3 + 2))
        r3 = (costs[2] + 1 - q2 * costs[1]) / p2
        r4 = (r3 + 1 - q3 * costs[2]) / p3
        assert costs[3] == r3 == 12
        assert costs[4] == r4 == Fraction(53, 2)
        # Gate as originally stated: difference ratio within 1% of 2 by
        # m = 60.  Exact arithmetic says otherwise: |ratio - 2| tracks
        # 2/(m+3), which is 0.0312 (1.56% of 2) at m = 60 and first drops
        # to 1% at m = 96, so this check fails.  The convergence law itself
        # is verified in tests/test_growth_costs.py; the assertion here is
        # kept at the stated tolerance rather than loosened to pass.
        ratio = (costs[61] - costs[60]) / (costs[60] - costs[59])
        deviation = abs(ratio - 2)
        assert deviation <= Fraction(2, 100), (
            f"|ratio - 2| = {float(deviation):.6f} at m = 60; "
            "1% of the limit is 0.02 (first attained at m = 96)"
        )


def test_criterion_06_gate_verifier_grid():
    with criterion(6, "gate amplitudes match closed forms for sizes 2..8", 5.0):
        for n in range(2, 9):
            for m in range(2, 9):
                report = fuse(make_w_state(n), make_w_state(m))
                denom = n * m
                assert abs(report.p_success - (n + m - 2) / denom) < TOLERANCE
                assert abs(report.p_recycle - (n - 1) * (m - 1) / denom) < TOLERANCE
                assert abs(report.p_failure - 1 / denom) < TOLERANCE
                target = make_w_state(n + m - 2)
                assert fidelity(report.post_success_state, target) >= 1 - TOLERANCE
        for m in range(2, 9):
            report = fuse(make_w_state(2), make_w_state(m))
            unchanged = make_w_state(m)
            assert fidelity(report.post_success_state, unchanged) >= 1 - TOLERANCE


def test_criterion_07_monte_carlo_calibration():
    with criterion(7, "similar-sizes MC within 4 SE of exact values, k in {0,1}", 10.0):
        stats0 = simulate_batch(0, 10**4, 424242)
        assert abs(stats0.mean - 4.5) < 4 * stats0.stderr
        stats1 = simulate_batch(1, 10**4, 424243)
        exact = float(exact_expected_cost(1))
        assert abs(stats1.mean - exact) < 4 * stats1.stderr


def test_criterion_08_figure4_reproduction():
    with criterion(8, "MC beats optimal DP at k=3..6; analytic ordering, N >= 11", 60.0):
        table = optimal_costs(65)
        # The binding case is k=3: population mean 26316/101 = 260.554
        # (exact absorbing-chain value), SE(1000) = 6.0, against an optimal
        # cost of 284.7, so the stated inequality holds at the population
        # level; a 1000-run sample clears it for ~7 of 8 seeds.  The pinned
        # seed draws a typical k=3 sample (260.5, within about 0.01 sigma of
        # the population mean), not a flattering one.
        for k in range(3, 7):
            stats = simulate_batch(k, 1000, 7919 + k)
            matched = 2**k + 1  # nominal actual size 2^k + 3
            assert stats.mean + 3 * stats.stderr < float(table.cost(matched)), (
                f"k={k}: {stats.mean:.1f} + 3*{stats.stderr:.1f} "
                f"vs {float(table.cost(matched)):.1f}"
            )
        recycled = linear_recycled_costs(65)
        for n in range(9, 66):
            assert w3_linear_cost(n) > recycled[n] > table.cost(n)


def test_criterion_09_brute_force_optimality_audit():
    with criterion(9, "no fusion tree with <= 12 leaves beats the DP", 30.0):
        table = optimal_costs(12)
        achievable = {1: {Fraction(1)}}
        for n in range(2, 13):
            costs = set()
            for k in range(1, n // 2 + 1):
                p_success = Fraction(n + 2, (k + 2) * (n - k + 2))
                for left in achievable[k]:
                    for right in achievable[n - k]:
                        costs.add((left + right) / p_success)
            achievable[n] = costs
            assert min(costs) == table.cost(n)
            assert all(cost >= table.cost(n) for cost in costs)


def test_criterion_10_cli_determinism():
    with criterion(10, "simulate CLI output is byte-identical across runs", 60.0):
        base = [
            sys.executable, "-m", "wfuse",
            "simulate", "--k", "4", "--runs", "1000", "--seed", "99",
        ]
        path = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        env = {**os.environ, "PYTHONPATH": path}
        first = subprocess.run(base, capture_output=True, check=True, env=env)
        second = subprocess.run(base, capture_output=True, check=True, env=env)
        parallel = subprocess.run(
            base + ["--workers", "2"], capture_output=True, check=True, env=env
        )
        assert first.stdout == second.stdout == parallel.stdout
        assert first.stdout
