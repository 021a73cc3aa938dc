"""Amplitude-level verification of the fusion gate.

Builds explicit W-state vectors, applies the gate photon by photon, and
compares every branch probability and post-measurement state with the
closed forms.  Nothing here touches the cost model: this is the
independent check that the outcome model is the right one.
"""

from wfuse.gate import (
    check_decomposition,
    fidelity,
    fuse,
    make_w_state,
    verify_probabilities,
)


def main():
    print("Fusing W3 with W3 (exact probabilities):")
    report = fuse(make_w_state(3), make_w_state(3))
    print(f"  success    {report.p_success}   (closed form 4/9)")
    print(f"  recyclable {report.p_recycle}   (closed form 4/9)")
    print(f"  failure    {report.p_failure}   (closed form 1/9)")
    print(f"  merged state vs W4 fidelity: {fidelity(report.post_success_state, make_w_state(4))}")

    print()
    print("Detector breakdown (coincidences split evenly over D/Dbar):")
    for pattern, prob in report.detector_breakdown.items():
        print(f"  {pattern:10s} {prob}")

    print()
    print("Fusing a Bell pair never grows the partner state:")
    for photons in (3, 5, 7):
        rep = fuse(make_w_state(2), make_w_state(photons))
        fid = fidelity(rep.post_success_state, make_w_state(photons))
        print(f"  W2 x W{photons}: success {rep.p_success}, post state vs W{photons}: {fid}")

    print()
    print("Systematic comparison across sizes 2..8 with the closed forms:")
    checks = [verify_probabilities(n, m) for n in range(2, 9) for m in range(2, 9)]
    worst = max(check.max_abs_error for check in checks)
    lowest = min(min(check.fidelities.values()) for check in checks)
    print(f"  largest deviation {worst}, lowest fidelity {lowest}")

    print()
    print("The W-state splitting identity behind the coincidence branch:")
    for total, split in ((4, 2), (6, 3), (9, 5)):
        print(f"  sqrt({total})|W_{total}> decomposes at {split}: {check_decomposition(total, split)}")


if __name__ == "__main__":
    main()
