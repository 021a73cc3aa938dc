from fractions import Fraction

import pytest

from wfuse.fusion_model import outcome_distribution
from wfuse.gate import (
    COINCIDENCE_PATTERNS,
    SparseState,
    check_decomposition,
    fidelity,
    fuse,
    make_w_state,
    verify_probabilities,
    verify_weights,
)


def product_state(label: str) -> SparseState:
    return SparseState({label: 1})


class TestSparseState:
    def test_bell_pair(self):
        state = make_w_state(2)
        assert state.num_photons == 2
        assert state == SparseState({"HV": 1, "VH": 1})
        assert state != SparseState({"HV": 1, "VH": 1, "HH": 1})

    def test_three_photons(self):
        state = make_w_state(3)
        assert state.num_photons == 3
        assert state == SparseState({"VHH": 1, "HVH": 1, "HHV": 1})

    def test_rejects_single_photon_w(self):
        with pytest.raises(ValueError):
            make_w_state(1)

    def test_unnormalized_amplitudes_span_the_same_state(self):
        assert fidelity(SparseState({"HV": 1, "VH": 1}), make_w_state(2)) == 1

    @pytest.mark.parametrize("amp", [1j, 0.5])
    def test_rejects_inexact_amplitudes(self, amp):
        with pytest.raises(TypeError):
            SparseState({"HV": amp, "VH": 1})

    def test_fraction_amplitudes(self):
        state = SparseState({"HV": Fraction(1, 2), "VH": Fraction(-1, 4)})
        assert fidelity(state, product_state("HV")) == Fraction(4, 5)

    def test_rejects_ragged_labels(self):
        with pytest.raises(ValueError):
            SparseState({"HV": 1, "VHH": 1})

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            SparseState({"HX": 1})

    def test_prunes_zero_amplitudes(self):
        assert SparseState({"HV": 1, "VH": 0}) == SparseState({"HV": 1})
        assert SparseState({"HV": 1, "VH": Fraction(0)}) == product_state("HV")

    def test_equality_compares_amplitude_maps(self):
        assert make_w_state(3) == SparseState({"HHV": 1, "HVH": 1, "VHH": 1})
        assert make_w_state(3) != SparseState({"HHV": 2, "HVH": 2, "VHH": 2})
        assert make_w_state(3) != make_w_state(4)


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(make_w_state(3), make_w_state(3)) == 1

    def test_orthogonal_states(self):
        assert fidelity(product_state("HHH"), make_w_state(3)) == 0

    def test_half_overlap(self):
        assert fidelity(make_w_state(2), product_state("HV")) == Fraction(1, 2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(make_w_state(2), make_w_state(3))


class TestFuseOnWStates:
    def test_six_photon_example(self):
        report = fuse(make_w_state(3), make_w_state(3))
        assert report.p_success == Fraction(4, 9)
        assert report.p_failure == Fraction(1, 9)
        assert fidelity(report.post_success_state, make_w_state(4)) == 1
        assert fidelity(report.post_failure_state, product_state("HHHH")) == 1

    def test_bell_pair_fusion_does_not_expand(self):
        for photons in range(2, 8):
            report = fuse(make_w_state(2), make_w_state(photons))
            assert report.p_success == Fraction(1, 2)
            assert report.post_success_state == make_w_state(photons)

    def test_recycle_posts_are_shrunk_w_states(self):
        report = fuse(make_w_state(4), make_w_state(5))
        assert report.p_recycle == Fraction(12, 20)
        assert report.post_recycle_states == (make_w_state(3), make_w_state(4))

    def test_probability_grid_against_closed_forms(self):
        for n in range(2, 9):
            for m in range(2, 9):
                report = fuse(make_w_state(n), make_w_state(m))
                assert report.p_success == Fraction(n + m - 2, n * m)
                assert report.p_recycle == Fraction((n - 1) * (m - 1), n * m)
                assert report.p_failure == Fraction(1, n * m)
                assert sum(report.detector_breakdown.values()) == 1

    def test_coincidence_patterns_are_equiprobable(self):
        for n in range(2, 9):
            for m in range(2, 9):
                report = fuse(make_w_state(n), make_w_state(m))
                expected = Fraction(n + m - 2, 4 * n * m)
                for pattern in COINCIDENCE_PATTERNS:
                    assert report.detector_breakdown[pattern] == expected

    def test_post_success_fidelity_on_grid(self):
        for n in range(2, 9):
            for m in range(2, 9):
                report = fuse(make_w_state(n), make_w_state(m))
                assert report.post_success_state == make_w_state(n + m - 2)

    def test_matches_index_shifted_outcome_model(self):
        for n in range(2, 9):
            for m in range(2, 9):
                dist = outcome_distribution(n - 2, m - 2)
                report = fuse(make_w_state(n), make_w_state(m))
                assert report.p_success == dist.p_success
                assert report.p_recycle == dist.p_recycle
                assert report.p_failure == dist.p_failure

    def test_mixed_patterns_carry_the_sign_flip(self):
        n, m = 3, 5
        report = fuse(make_w_state(n), make_w_state(m))
        merged = n + m - 2
        # antisymmetric survivor combination, built from scratch
        flipped = {}
        for i in range(n - 1):
            flipped["H" * i + "V" + "H" * (merged - 1 - i)] = 1
        for i in range(n - 1, merged):
            flipped["H" * i + "V" + "H" * (merged - 1 - i)] = -1
        raw_mixed = report.pattern_states["d_dbar"]
        assert raw_mixed == SparseState(flipped)
        # before the corrective pi-phase, overlap with the true target is low
        overlap = fidelity(raw_mixed, make_w_state(merged))
        assert overlap == Fraction(n - m, merged) ** 2

    def test_patterns_in_report_order(self):
        order = ["d1_only", "d2_only", *COINCIDENCE_PATTERNS]
        for n, m in ((2, 2), (3, 5), (6, 4)):
            report = fuse(make_w_state(n), make_w_state(m))
            assert list(report.detector_breakdown) == order
            assert list(report.pattern_states) == order

    def test_patterns_with_one_map_share_one_state(self):
        report = fuse(make_w_state(3), make_w_state(5))
        states = report.pattern_states
        assert states["dd"] is states["dbar_dbar"] is report.post_success_state
        assert states["d_dbar"] is states["dbar_d"]
        assert states["d1_only"] is report.post_failure_state

    def test_mixed_pattern_orthogonal_for_equal_sizes(self):
        report = fuse(make_w_state(4), make_w_state(4))
        assert fidelity(report.pattern_states["dbar_d"], make_w_state(6)) == 0

    def test_fuse_rejects_same_object(self):
        state = make_w_state(3)
        with pytest.raises(ValueError):
            fuse(state, state)

    def test_fuse_rejects_photonless_state(self):
        # The gate takes the last photon of each state; here one has none.
        empty = SparseState({"": 1})
        for a, b in ((empty, make_w_state(3)), (make_w_state(3), empty)):
            with pytest.raises(IndexError):
                fuse(a, b)


class TestVerifyProbabilities:
    def test_small_pair(self):
        check = verify_probabilities(2, 2)
        assert check.analytic["success"] == Fraction(1, 2)
        assert check.analytic["recycle"] == Fraction(1, 4)
        assert check.analytic["failure"] == Fraction(1, 4)
        assert check.max_abs_error == 0

    @pytest.mark.parametrize("sizes", [(3, 3), (8, 7), (2, 5)])
    def test_deviations_are_tiny(self, sizes):
        check = verify_probabilities(*sizes)
        assert check.simulated == check.analytic
        assert check.max_abs_error == 0
        assert all(value == 1 for value in check.fidelities.values())

    def test_exact_on_the_whole_cli_range(self):
        for n in range(2, 13):
            for m in range(2, 13):
                check = verify_probabilities(n, m)
                # The law in photon counts, stated apart from fusion_model.
                assert check.analytic == {
                    "success": Fraction(n + m - 2, n * m),
                    "recycle": Fraction((n - 1) * (m - 1), n * m),
                    "failure": Fraction(1, n * m),
                }
                assert check.simulated == check.analytic
                assert all(value == 1 for value in check.fidelities.values())
                report = fuse(make_w_state(n), make_w_state(m))
                _, simulated, _ = verify_weights(n, m)
                assert {
                    "success": report.p_success,
                    "recycle": report.p_recycle,
                    "failure": report.p_failure,
                } == {branch: Fraction(*ratio) for branch, ratio in simulated.items()}

    def test_rejects_tiny_states(self):
        with pytest.raises(ValueError):
            verify_probabilities(1, 4)
        with pytest.raises(ValueError):
            verify_weights(4, 1)


class TestVerifyWeights:
    def test_equals_the_fraction_form(self):
        for n in range(2, 17):
            for m in range(2, 17):
                check = verify_probabilities(n, m)
                parts = verify_weights(n, m)
                for ratios, values in zip(
                    parts, (check.analytic, check.simulated, check.fidelities)
                ):
                    assert list(ratios) == ["success", "recycle", "failure"]
                    assert {b: Fraction(*pair) for b, pair in ratios.items()} == values
                    for num, den in ratios.values():
                        assert type(num) is int and type(den) is int and den > 0

    def test_recycle_fidelity_is_the_lower_part(self, monkeypatch):
        # The recycled parts of W3 and W6 are checked against W2 and W5.
        # Drop one term of either reference in turn, so that its part
        # scores below 1: the recycle entry must be the lower ratio.
        import wfuse.gate as gate

        true_w = gate._w_amplitudes
        for skewed, expected in ((2, Fraction(1, 2)), (5, Fraction(4, 5))):
            def w_amplitudes(photons, skewed=skewed):
                amps = true_w(photons)
                if photons == skewed:
                    del amps["V" + "H" * (photons - 1)]
                return amps

            monkeypatch.setattr(gate, "_w_amplitudes", w_amplitudes)
            _, _, fidelities = verify_weights(3, 6)
            assert Fraction(*fidelities["recycle"]) == expected


class TestDecompositionIdentity:
    @pytest.mark.parametrize("total,split", [(4, 2), (6, 3), (3, 1), (9, 4), (7, 6)])
    def test_identity_holds(self, total, split):
        assert check_decomposition(total, split)

    def test_out_of_range_split(self):
        with pytest.raises(ValueError):
            check_decomposition(4, 0)
        with pytest.raises(ValueError):
            check_decomposition(4, 4)
        with pytest.raises(ValueError):
            check_decomposition(1, 1)
