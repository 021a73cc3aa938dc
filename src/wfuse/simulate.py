"""Monte Carlo execution of growth strategies, plus an exact small-k oracle.

The centerpiece is the similar-sizes strategy with recycling: generated
states are classified into dyadic buckets ``S_l`` (state ``w_m`` belongs to
``S_l`` when ``2^(l-1) < m <= 2^l``; ``S_0`` holds only ``w_1``) and fusion
is only ever attempted between two states of the same bucket.  The machine
is driven by a working-bucket pointer ``xi``:

1. start with all buckets empty, ``xi = 0``, cost ``R = 0``;
2. while the working bucket holds fewer than two states, either draw a
   fresh ``w_1`` into ``S_0`` (``R += 1``) when ``xi = 0``, or decrement
   ``xi``;
3. remove the two oldest states ``w_n, w_m`` from ``S_xi`` and fuse them:
   on failure discard both; on a recyclable outcome reinsert ``w_{n-1}``
   and ``w_{m-1}`` into their buckets (parts of index 0 are Bell pairs and
   are discarded); on success either terminate with cost ``R`` when
   ``xi = k``, or push ``w_{n+m}`` into ``S_{xi+1}`` and increment ``xi``.
   Either way control returns to step 2.

Two conventions the outcome probabilities do not fix are pinned here for
reproducibility: buckets are FIFO queues and a fusion always consumes the
two *earliest-inserted* states (recycled parts re-enter in operand order,
older first), and after a recyclable outcome the pointer stays put, letting
step 2 walk it down as needed.  Buckets may transiently hold more than two
states after reinsertion; step 2 only cares that at least two are present.

Randomness comes from the splitmix64 streams in :mod:`wfuse.rng`; run ``i``
of a batch uses the stream seeded ``mix64(master_seed + i)``, which makes
batch results independent of execution order and parallelism.
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction

from .fusion_model import (
    FAILURE,
    RECYCLE,
    SUCCESS,
    classify_uniform,
    outcome_distribution,
)
from .rng import stream_for_run

__all__ = [
    "RunResult",
    "BatchStats",
    "SimilarSizesState",
    "bucket_index",
    "run_similar_sizes",
    "simulate_batch",
    "worker_pool",
    "run_linear_strategy",
    "exact_expected_cost",
]

DEFAULT_STEP_BUDGET = 10**9


def bucket_index(size: int) -> int:
    """Bucket ``l`` with ``2^(l-1) < size <= 2^l`` (``size = 1`` maps to 0)."""
    if size < 1:
        raise ValueError(f"bucket membership needs size >= 1, got {size}")
    return (size - 1).bit_length()


@dataclass(frozen=True)
class RunResult:
    """Outcome of one strategy run."""

    cost: int
    final_size: int
    fusion_attempts: int
    successes: int
    recycles: int
    failures: int

    @property
    def outcome_counts(self) -> tuple[int, int, int]:
        return (self.successes, self.recycles, self.failures)


@dataclass
class SimilarSizesState:
    """Machine state of the similar-sizes strategy.

    ``sets[l]`` is the FIFO content of bucket ``S_l`` (oldest first), ``xi``
    the working-bucket pointer and ``cost_r`` the number of ``w_1`` states
    drawn so far.  :func:`settle` and :func:`apply_branch` advance it with
    exactly the transition rules the fast path in :func:`run_similar_sizes`
    uses.
    """

    sets: list[list[int]]
    xi: int = 0
    cost_r: int = 0

    @classmethod
    def initial(cls, k: int) -> "SimilarSizesState":
        return cls(sets=[[] for _ in range(k + 2)])

    @property
    def mu(self) -> list[int]:
        return [len(s) for s in self.sets]

    def settle(self) -> None:
        """Run step 2 until the working bucket holds two states."""
        draws, self.xi = _settle(self.sets, self.xi)
        self.cost_r += draws

    def apply_branch(self, n: int, m: int, branch: str, k: int):
        """Apply a fusion branch to already-removed operands ``(n, m)``.

        Returns the final size on terminating success, else ``None``.
        """
        final, self.xi = _apply_branch(self.sets, self.xi, n, m, branch, k)
        return final


def _settle(sets, xi):
    """Step-2 loop; returns (w_1 draws, new xi)."""
    draws = 0
    while len(sets[xi]) < 2:
        if xi:
            xi -= 1
        else:
            sets[0].append(1)
            draws += 1
    return draws, xi


def _apply_branch(sets, xi, n, m, branch, k):
    """Step-3 bookkeeping after ``(n, m)`` were removed from ``sets[xi]``.

    Returns ``(final_size or None, xi)``; ``final_size`` is set exactly when
    a success at ``xi == k`` terminates the run.
    """
    if branch == SUCCESS:
        if xi == k:
            return n + m, xi
        sets[xi + 1].append(n + m)
        return None, xi + 1
    if branch == RECYCLE:
        # Parts shrink by one; an index-0 part is a Bell pair and is dropped.
        if n > 1:
            sets[(n - 2).bit_length()].append(n - 1)
        if m > 1:
            sets[(m - 2).bit_length()].append(m - 1)
    return None, xi


def _check_membership(sets) -> None:
    for l, bucket in enumerate(sets):
        for size in bucket:
            assert bucket_index(size) == l, (
                f"w_{size} stored in S_{l}, belongs in S_{bucket_index(size)}"
            )


def _check_ledger(sets, cost, final, recycles, failure_loss) -> None:
    remaining = sum(sum(s) for s in sets)
    assert cost == remaining + final + 2 * recycles + failure_loss, (
        "size-index ledger out of balance"
    )


# Exact thresholds of classify_uniform(1, 1, u) on the 53-bit draw
# u * 2**53: success below ceil(4 * 2**53 / 9), recyclable below
# ceil(8 * 2**53 / 9), failure from there on.
_S0_SUCCESS = ((4 << 53) + 8) // 9
_S0_RECYCLE = ((8 << 53) + 8) // 9


def run_similar_sizes(
    k: int,
    rng,
    *,
    audit: bool = False,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> RunResult:
    """One seeded run of the similar-sizes strategy targeting bucket k+1.

    Terminates (with probability 1) on the first success of a fusion in
    ``S_k``, producing a state of index ``> 2^k``, i.e. actual photon count
    ``>= 2^k + 3``.  With ``audit=True`` the bucket-membership rule is
    checked after every step and the size-index ledger is verified at
    termination (every draw adds 1, success conserves, recycle loses exactly
    2 with Bell-pair discards included, failure loses both operands).

    ``max_steps`` bounds draws + fusion attempts; exceeding it raises
    ``RuntimeError`` and signals a bug, not an expected outcome.

    Each fusion attempt takes one draw ``next64() >> 11`` from ``rng``, a
    :class:`wfuse.rng.SplitMix64`, in stream order; the draws come from
    :meth:`~wfuse.rng.SplitMix64.draws53`, which computes them in blocks,
    and on return or on ``RuntimeError`` the stream has been advanced by
    exactly the number of attempts made, as if ``next64()`` had been called
    once per attempt.

    The loop below inlines the step helpers and the exact threshold
    classification for speed, and runs the fusions in ``S_0`` in an inner
    loop that keeps only a count of that bucket's ``w_1`` states.
    ``_run_reference`` is the straightforward mirror on the scalar
    ``random()`` path and the test suite holds the two to identical results
    and identical final stream states.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    sets = [[] for _ in range(k + 2)]
    xi = 0
    cost = 0
    attempts = successes = recycles = failures = 0
    failure_loss = 0
    draws = rng.draws53()
    for u in draws:
        while len(sets[xi]) < 2:  # step 2
            if xi:
                xi -= 1
            else:
                sets[0].append(1)
                cost += 1
        if cost + attempts > max_steps:
            rng.skip(attempts)
            raise RuntimeError(f"step budget {max_steps} exceeded at k={k}")
        if not xi:
            # Fusions in S_0 until the first success.  Only w_1 lives in
            # S_0, and both of its non-success branches lose both operands,
            # so the bucket is just a count c of w_1 states.
            s0 = sets[0]
            c = len(s0)
            while u >= _S0_SUCCESS:
                attempts += 1
                if u < _S0_RECYCLE:
                    recycles += 1
                else:
                    failures += 1
                    failure_loss += 2
                c -= 2
                if c < 2:  # step 2 at xi = 0
                    cost += 2 - c
                    c = 2
                if cost + attempts > max_steps:
                    rng.skip(attempts)
                    raise RuntimeError(f"step budget {max_steps} exceeded at k={k}")
                u = next(draws)
            attempts += 1
            successes += 1
            del s0[c - 2:]
            if not k:
                if audit:
                    _check_ledger(sets, cost, 2, recycles, failure_loss)
                rng.skip(attempts)
                return RunResult(cost, 2, attempts, successes, recycles, failures)
            sets[1].append(2)
            xi = 1
            if audit:
                _check_membership(sets)
            continue
        bucket = sets[xi]
        n = bucket.pop(0)
        m = bucket.pop(0)
        attempts += 1
        lhs = u * ((n + 2) * (m + 2))
        success_num = (n + m + 2) << 53
        if lhs < success_num:
            successes += 1
            if xi == k:
                final = n + m
                if audit:
                    _check_ledger(sets, cost, final, recycles, failure_loss)
                rng.skip(attempts)
                return RunResult(
                    cost, final, attempts, successes, recycles, failures
                )
            sets[xi + 1].append(n + m)
            xi += 1
        elif lhs < success_num + (((n + 1) * (m + 1)) << 53):
            recycles += 1
            if n > 1:
                sets[(n - 2).bit_length()].append(n - 1)
            if m > 1:
                sets[(m - 2).bit_length()].append(m - 1)
        else:
            failures += 1
            failure_loss += n + m
        if audit:
            _check_membership(sets)


def _run_reference(k: int, rng, *, max_steps: int = DEFAULT_STEP_BUDGET) -> RunResult:
    """Plain mirror of :func:`run_similar_sizes` on the shared step helpers.

    It draws word by word through the scalar ``rng.random()`` and classifies
    with :func:`wfuse.fusion_model.classify_uniform`, so it shares no code
    with the kernel's block draws or its inlined thresholds.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    sets = [[] for _ in range(k + 2)]
    xi = 0
    cost = 0
    attempts = successes = recycles = failures = 0
    while True:
        draws, xi = _settle(sets, xi)
        cost += draws
        if cost + attempts > max_steps:
            raise RuntimeError(f"step budget {max_steps} exceeded at k={k}")
        bucket = sets[xi]
        n = bucket.pop(0)
        m = bucket.pop(0)
        attempts += 1
        branch = classify_uniform(n, m, rng.random())
        final, xi = _apply_branch(sets, xi, n, m, branch, k)
        if branch == SUCCESS:
            successes += 1
        elif branch == RECYCLE:
            recycles += 1
        else:
            failures += 1
        if final is not None:
            return RunResult(cost, final, attempts, successes, recycles, failures)


def run_linear_strategy(
    target: int,
    recycle: bool,
    rng,
    *,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> RunResult:
    """Grow ``w_target`` one index at a time by fusing fresh ``w_1`` states.

    Without recycling any non-success discards everything and the chain
    restarts from a fresh seed, so the expected cost is the
    :func:`wfuse.growth_costs.w3_linear_cost` value.  With recycling a
    recyclable outcome keeps the shortened working state (the shortened
    companion is a Bell pair, discarded) and only complete failure
    restarts; the expected cost matches
    :func:`wfuse.growth_costs.linear_recycled_costs`.

    Like :func:`run_similar_sizes`, each attempt takes one block draw from
    ``rng`` and the stream ends advanced by the number of attempts.
    """
    if target < 1:
        raise ValueError(f"target index must be >= 1, got {target}")
    cost = 1  # the seed w_1
    size = 1
    attempts = successes = recycles = failures = 0
    draws = rng.draws53()
    while size < target:
        if cost + attempts > max_steps:
            rng.skip(attempts)
            raise RuntimeError(f"step budget {max_steps} exceeded")
        cost += 1  # fresh w_1 to fuse on
        attempts += 1
        lhs = next(draws) * ((size + 2) * 3)
        success_num = (size + 3) << 53
        if lhs < success_num:
            successes += 1
            size += 1
        elif lhs < success_num + ((2 * (size + 1)) << 53):
            recycles += 1
            if recycle:
                size -= 1
                if size == 0:  # shrank to a Bell pair: worthless, start over
                    cost += 1
                    size = 1
            else:
                cost += 1
                size = 1
        else:
            failures += 1
            cost += 1
            size = 1
    rng.skip(attempts)
    return RunResult(cost, size, attempts, successes, recycles, failures)


@dataclass(frozen=True)
class BatchStats:
    """Aggregate statistics of a batch of runs.

    Runs end at variable final sizes (anything above the bucket threshold),
    so the realized sizes are kept alongside the costs.
    """

    k: int
    runs: int
    master_seed: int
    mean: float
    std: float
    stderr: float
    min: int
    max: int
    costs: tuple[int, ...]
    final_sizes: tuple[int, ...]


def _one_run(args) -> tuple[int, int]:
    k, master_seed, index = args
    result = run_similar_sizes(k, stream_for_run(master_seed, index))
    return result.cost, result.final_size


@contextmanager
def worker_pool(workers: int):
    """A process pool of ``workers`` processes, or None when ``workers <= 1``.

    Several :func:`simulate_batch` calls may share one pool.  The pool
    machinery (``concurrent.futures.process`` and ``multiprocessing``) is
    imported only here, so a 1-worker command does not pay for it.
    """
    if workers <= 1:
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool


def simulate_batch(
    k: int,
    runs: int,
    master_seed: int,
    *,
    workers: int = 1,
    pool=None,
) -> BatchStats:
    """Run the similar-sizes strategy ``runs`` times with derived seeds.

    Run ``i`` uses the stream seeded ``mix64(master_seed + i)``, so the
    per-run cost vector is a pure function of ``(k, runs, master_seed)``
    and identical for any ``workers`` setting.  With ``workers > 1`` the
    runs go to ``pool`` (from :func:`worker_pool`) when one is given, and
    to a pool started for this call otherwise.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    args = [(k, master_seed, i) for i in range(runs)]
    if workers <= 1:
        outcomes = [_one_run(a) for a in args]
    else:
        chunk = max(1, runs // (workers * 8))
        with (nullcontext(pool) if pool is not None else worker_pool(workers)) as pool:
            outcomes = list(pool.map(_one_run, args, chunksize=chunk))
    costs = [cost for cost, _ in outcomes]
    mean = statistics.fmean(costs)
    std = statistics.stdev(costs) if runs > 1 else 0.0
    return BatchStats(
        k=k,
        runs=runs,
        master_seed=master_seed,
        mean=mean,
        std=std,
        stderr=std / math.sqrt(runs),
        min=min(costs),
        max=max(costs),
        costs=tuple(costs),
        final_sizes=tuple(size for _, size in outcomes),
    )


def exact_expected_cost(k: int) -> Fraction:
    """Exact expected cost of the similar-sizes strategy, small k only.

    Enumerates every reachable machine configuration at fusion time (the
    deterministic step-2 stretches between fusions are collapsed into the
    transition costs), then solves the resulting absorbing-chain linear
    system exactly over rationals.  The state space grows quickly with k,
    so this brute-force oracle is limited to ``k <= 2`` by design; it
    exists to validate the Monte Carlo path.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > 2:
        raise ValueError("exact chain oracle supports only k <= 2")

    start_sets = [[] for _ in range(k + 2)]
    initial_draws, start_xi = _settle(start_sets, 0)
    start_key = (tuple(map(tuple, start_sets)), start_xi)

    index = {start_key: 0}
    order = [start_key]
    transitions = []
    pos = 0
    while pos < len(order):
        sets_key, xi = order[pos]
        pos += 1
        popped = [list(s) for s in sets_key]
        n = popped[xi][0]
        m = popped[xi][1]
        del popped[xi][:2]
        dist = outcome_distribution(n, m)
        entry = []
        for branch, p in (
            (SUCCESS, dist.p_success),
            (RECYCLE, dist.p_recycle),
            (FAILURE, dist.p_failure),
        ):
            nxt = [list(s) for s in popped]
            final, xi2 = _apply_branch(nxt, xi, n, m, branch, k)
            if final is not None:
                entry.append((p, 0, None))
                continue
            draws, xi3 = _settle(nxt, xi2)
            key = (tuple(map(tuple, nxt)), xi3)
            j = index.get(key)
            if j is None:
                j = len(order)
                index[key] = j
                order.append(key)
            entry.append((p, draws, j))
        transitions.append(entry)
        if len(order) > 100_000:
            raise RuntimeError("similar-sizes chain state space blew up")

    # E_i = sum_branches p * (draws + E_next), absorbing on terminal success.
    size = len(order)
    rows: list[dict[int, Fraction]] = [{} for _ in range(size)]
    rhs = [Fraction(0)] * size
    for i, entry in enumerate(transitions):
        row = rows[i]
        row[i] = Fraction(1)
        for p, draws, j in entry:
            if draws:
                rhs[i] += p * draws
            if j is not None:
                row[j] = row.get(j, Fraction(0)) - p
        if row[i] == 0:
            del row[i]
    expected = _solve_sparse_rational(rows, rhs)
    return initial_draws + expected[0]


def _solve_sparse_rational(
    rows: list[dict[int, Fraction]], rhs: list[Fraction]
) -> list[Fraction]:
    """Gaussian elimination with diagonal pivots on sparse rational rows.

    The system matrix here is I minus a substochastic matrix, so diagonal
    pivots are always nonzero.
    """
    size = len(rhs)
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    for i in range(size):
        pivot = rows[i].get(i)
        if not pivot:
            raise ArithmeticError(f"zero pivot at row {i}")
        if pivot != 1:
            rows[i] = {c: v / pivot for c, v in rows[i].items()}
            rhs[i] /= pivot
        ri = rows[i]
        for j in range(i + 1, size):
            factor = rows[j].get(i)
            if not factor:
                continue
            rj = rows[j]
            for c, v in ri.items():
                if c == i:
                    continue
                updated = rj.get(c, Fraction(0)) - factor * v
                if updated:
                    rj[c] = updated
                else:
                    rj.pop(c, None)
            del rj[i]
            rhs[j] -= factor * rhs[i]
    solution = [Fraction(0)] * size
    for i in range(size - 1, -1, -1):
        acc = rhs[i]
        for c, v in rows[i].items():
            if c > i:
                acc -= v * solution[c]
        solution[i] = acc
    return solution
