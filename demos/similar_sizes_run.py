"""One traced run of the similar-sizes recycling strategy, then calibration.

States live in dyadic buckets (bucket l holds sizes 2^(l-1) < n <= 2^l) and
only same-bucket pairs are fused.  The trace below shows every fusion of a
single seeded run; the second half checks batch means against the exact
absorbing-chain oracle for small targets.
"""

from wfuse.rng import stream_for_run
from wfuse.simulate import (
    exact_expected_cost,
    run_similar_sizes,
    simulate_batch,
    trace_similar_sizes,
)


def traced_run(k, stream):
    for step in trace_similar_sizes(k, stream):
        contents = {l: list(b) for l, b in enumerate(step.buckets) if b}
        print(f"  fuse w_{step.n} + w_{step.m} in S_{step.level}"
              f" -> {step.branch:7s}  cost so far {step.cost:3d}  buckets {contents}")
    return step.cost, step.final


def main():
    k = 2
    print(f"Traced run targeting bucket {k + 1} (final size > {2**k}):")
    cost, final = traced_run(k, stream_for_run(2718, 0))
    print(f"  done: produced w_{final} for {cost} basic states")

    replay = run_similar_sizes(k, stream_for_run(2718, 0))
    print(f"  fast-path replay agrees: cost {replay.cost}, size {replay.final_size}, "
          f"attempts {replay.fusion_attempts}")

    print()
    print("Calibration against the exact absorbing-chain oracle:")
    for kk in (0, 1, 2):
        exact = exact_expected_cost(kk)
        stats = simulate_batch(kk, 20000, 1000 + kk)
        sigma = (stats.mean - float(exact)) / stats.stderr
        print(f"  k={kk}: exact {str(exact):>5s} = {float(exact):g}, "
              f"MC mean {stats.mean:.3f} +- {stats.stderr:.3f}  ({sigma:+.2f} SE)")


if __name__ == "__main__":
    main()
