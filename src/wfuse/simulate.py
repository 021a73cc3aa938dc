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
step 2 walk it down as needed.  No bucket has been seen to hold more than
two states: the test suite enumerates every reachable fusion-time
configuration through k = 6 (32,064 chain states at k = 6) and finds no
third state, and neither do 913,369 sampled trace steps at k = 7 and 8.
The suite also asserts the bound at every trace step it checks, on runs
at every k up to 8.  The exact oracle, :func:`exact_expected_cost`, solves
that chain of configurations over rationals for k <= 5.  The two
lowest buckets hold a single size each (``S_0`` only ``w_1``, ``S_1`` only
``w_2``), so their order is moot and the fast kernel keeps them as counts.

Randomness comes from the splitmix64 streams in :mod:`wfuse.rng`: a run
reads 53-bit draws, one per fusion attempt, and run ``i`` of a batch reads
the draws of the stream seeded ``mix64(master_seed + i)``, which makes
batch results independent of execution order and parallelism.  A batch
runs in contiguous ranges of at most :data:`_RANGE_CAP` run indices, each
returning its costs and final sizes as integer arrays.  The batch folds
each range into exact integer sums, its minimum and its maximum as the
range arrives, hands it to an optional callback in run order and drops
it, so its memory does not grow with the number of runs.  Its mean and
standard deviation come from the exact sums.  A range's draws come from
:func:`wfuse.rng.draws_for_range`, which seeds the runs and computes their
first blocks together, as many runs at a time as it chooses.  With several
workers the ranges are made by forked child processes, which stream their
parts back over pipes (POSIX only; elsewhere the batch runs in this
process).  The Monte Carlo path builds no rational: only the exact
oracle imports :mod:`fractions`, when it is called, so a process that
only simulates never loads it or :mod:`decimal`.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from collections import namedtuple
from contextlib import closing
from functools import cache
from itertools import islice
from operator import mul

from .fusion_model import (
    BRANCHES,
    RECYCLE,
    SUCCESS,
    classify_uniform,
    outcome_distribution,
    threshold53,
)
from .rng import draws_for_range

# For annotations only.  The constant stands in for typing.TYPE_CHECKING,
# so that `import wfuse.simulate` loads neither fractions nor typing.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "RunResult",
    "BatchStats",
    "FusionStep",
    "bucket_index",
    "run_similar_sizes",
    "trace_similar_sizes",
    "simulate_batch",
    "exact_expected_cost",
]

DEFAULT_STEP_BUDGET = 10**9
# Most runs in one range of a batch.  A range's part is two arrays of 8
# bytes per run, so a batch holds a few of them (16 KiB each) whatever its
# run count, and a forked worker writes a part as an 8-byte count and
# 32 KiB, half a Linux pipe buffer.  With several workers, a batch is cut
# into ranges of equal size, eight or more per worker.
_RANGE_CAP = 2**11


def bucket_index(size: int) -> int:
    """Bucket ``l`` with ``2^(l-1) < size <= 2^l`` (``size = 1`` maps to 0)."""
    if size < 1:
        raise ValueError(f"bucket membership needs size >= 1, got {size}")
    return (size - 1).bit_length()


class RunResult(
    namedtuple(
        "RunResult",
        "cost final_size fusion_attempts successes recycles failures",
    )
):
    """Outcome of one strategy run."""

    __slots__ = ()


# RunResult from one tuple of its six fields, without the Python-level
# __new__ that the named tuple adds.
_tuple_new = tuple.__new__


class FusionStep(namedtuple("FusionStep", "level n m branch cost buckets final")):
    """One fusion attempt of a similar-sizes run.

    ``w_n`` and ``w_m`` were fused in bucket ``S_level`` with outcome
    ``branch``; ``cost`` counts the ``w_1`` states drawn so far.  ``buckets``
    holds every bucket's sizes, oldest first, after step 3 and before step
    2 refills them.  ``final`` is the size produced when this attempt ends
    the run, else None.
    """

    __slots__ = ()


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
            sets[bucket_index(n - 1)].append(n - 1)
        if m > 1:
            sets[bucket_index(m - 1)].append(m - 1)
    return None, xi


def _budget_error(max_steps, k) -> RuntimeError:
    return RuntimeError(f"step budget {max_steps} exceeded at k={k}")


def _finish(k, max_steps, cost, final_size, successes, recycles, failures) -> RunResult:
    """The result of an ended run, or the budget error if the trace's check
    before its last attempt fires: both terms of the check only grow, so
    it fires before some attempt exactly when it fires before the last."""
    attempts = successes + recycles + failures
    if cost + attempts - 1 > max_steps:
        raise _budget_error(max_steps, k)
    return _tuple_new(RunResult, (cost, final_size, attempts, successes, recycles, failures))


# Branch edges of the 53-bit draw for fusions in S_0 (w_1, w_1) and S_1
# (w_2, w_2): success below the first, recyclable below the second.
_S0_SUCCESS, _S0_RECYCLE = threshold53(1, 1)
_S1_SUCCESS, _S1_RECYCLE = threshold53(2, 2)
# The same edges for the fusions in S_2 and up, kept per operand pair: a
# run reaches few pairs, most of them again and again, and k <= 8 reaches
# at most 21,844, the ordered same-bucket pairs of S_2 to S_8.
_edges53 = cache(threshold53)


def run_similar_sizes(
    k: int,
    draws,
    *,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> RunResult:
    """One seeded run of the similar-sizes strategy targeting bucket k+1.

    Terminates (with probability 1) on the first success of a fusion in
    ``S_k``, producing a state of index ``> 2^k``, i.e. actual photon count
    ``>= 2^k + 3``.

    ``max_steps`` bounds draws + fusion attempts; exceeding it raises
    ``RuntimeError`` and signals a bug, not an expected outcome.  The
    budget is checked once, when the run ends, and the draws are cut after
    ``max_steps + 1``, since a run that needs more is over budget anyway;
    so a run that never ends raises too.

    ``draws`` is an iterable of 53-bit draws, such as a
    :class:`wfuse.rng.SplitMix64` (its draws ``next64() >> 11``, which
    leave the stream where it was) or an iterator from
    :func:`wfuse.rng.draws_for_range`.  It must be endless or hold at least
    ``max_steps + 1`` draws; a shorter one that runs out raises the budget
    error.  Each fusion attempt takes the next draw, so ``fusion_attempts``
    of the result is the number of draws the run used.

    The loop below inlines the step helpers for speed and compares each
    draw with the branch edges of :func:`wfuse.fusion_model.threshold53`,
    cached per operand pair.  The two lowest buckets hold a single size
    each, ``S_0`` only ``w_1`` and ``S_1`` only ``w_2``, so the order of
    their states does not matter and they are kept as counts ``c0`` and
    ``c1``; only ``S_2`` and up are FIFO lists.  The fusions in ``S_0`` and
    ``S_1`` run in one loop over the draws, one fusion per draw: in ``S_1``
    when ``c1 >= 2``, else in ``S_0``.  That loop is left only when a
    success in ``S_1`` moves the pointer to ``S_2``; the fusions above
    ``S_1`` take their draws with ``next`` until step 2 walks the pointer
    back below ``S_2``.  :func:`trace_similar_sizes` states the same rules
    plainly, one attempt at a time.  The test suite asserts the
    bucket-membership rule, the bound of two states per bucket and the
    size-index ledger at every step of the trace, and holds this kernel to
    the trace: identical results, and identical errors at every budget.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    # S_2 and up; S_0 and S_1 are the counts c0 and c1, and their lists stay
    # empty.  Runs with k < 2 end in S_0 or S_1.
    sets = [[] for _ in range(k + 2)] if k >= 2 else None
    c0 = c1 = 0
    cost = successes = recycles = failures = 0
    draws = islice(draws, max_steps + 1 if max_steps >= 0 else 0)
    while True:
        # One fusion per draw in S_0 and S_1.  Step 2 leaves the pointer at
        # S_1 exactly when it holds two states, and at S_0 otherwise; both
        # non-success branches in S_0 lose both operands.
        for u in draws:
            if c1 < 2:
                if c0:
                    c0 -= 2
                else:  # step 2 at xi = 0
                    cost += 2
                if u < _S0_SUCCESS:
                    successes += 1
                    if not k:
                        return _finish(k, max_steps, cost, 2, successes, recycles, failures)
                    c1 += 1
                elif u < _S0_RECYCLE:
                    recycles += 1
                else:
                    failures += 1
            else:
                # Fuse (w_2, w_2) in S_1; a recyclable outcome leaves two w_1.
                c1 -= 2
                if u < _S1_SUCCESS:
                    successes += 1
                    if k == 1:
                        return _finish(k, max_steps, cost, 4, successes, recycles, failures)
                    sets[2].append(4)
                    break
                if u < _S1_RECYCLE:
                    recycles += 1
                    c0 += 2
                else:
                    failures += 1
        else:
            break  # the draws ran out
        # S_2 and up, from S_2 until step 2 walks the pointer below it.
        xi = 2
        try:
            while xi > 1:
                bucket = sets[xi]
                if len(bucket) < 2:  # step 2 above S_1
                    xi -= 1
                    continue
                n = bucket.pop(0)
                m = bucket.pop(0)
                success, recycle = _edges53(n, m)
                u = next(draws)
                if u < success:
                    successes += 1
                    if xi == k:
                        return _finish(k, max_steps, cost, n + m, successes, recycles, failures)
                    sets[xi + 1].append(n + m)
                    xi += 1
                elif u < recycle:
                    recycles += 1
                    # n, m >= 3 here, so a part w_{n-1} is w_2, counted in
                    # S_1, or lands in S_2 and up.
                    if n == 3:
                        c1 += 1
                    else:
                        sets[(n - 2).bit_length()].append(n - 1)
                    if m == 3:
                        c1 += 1
                    else:
                        sets[(m - 2).bit_length()].append(m - 1)
                else:
                    failures += 1
        except StopIteration:  # next(draws): the draws ran out
            break
    raise _budget_error(max_steps, k)


def trace_similar_sizes(k: int, draws, *, max_steps: int = DEFAULT_STEP_BUDGET):
    """Yield a :class:`FusionStep` for every fusion attempt of one run.

    This is the attempt-at-a-time mirror of :func:`run_similar_sizes`: it
    drives the step helpers and classifies each draw ``d`` of ``draws`` as
    the uniform ``d * 2**-53`` with
    :func:`wfuse.fusion_model.classify_uniform`, by exact rational
    comparison rather than the kernel's 53-bit edges.  Both rest on the
    one outcome law of :mod:`wfuse.fusion_model`, so holding the kernel to
    this trace checks the edges and the bucket bookkeeping, not the law;
    the law is pinned by literal values in the fusion-model tests and by
    the gate's amplitude simulation.  ``draws`` is as for the kernel:
    endless, or at least ``max_steps + 1`` draws long; a shorter one that
    runs out raises the budget error, as in the kernel.  Given the same
    draws it makes the same attempts and raises the same ``RuntimeError``
    at the same step budget, checked before every attempt.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    draws = iter(draws)
    sets = [[] for _ in range(k + 2)]
    xi = cost = attempts = 0
    while True:
        fresh, xi = _settle(sets, xi)
        cost += fresh
        if cost + attempts > max_steps:
            raise _budget_error(max_steps, k)
        level = xi
        n = sets[xi].pop(0)
        m = sets[xi].pop(0)
        attempts += 1
        draw = next(draws, None)
        if draw is None:
            raise _budget_error(max_steps, k)
        branch = classify_uniform(n, m, draw * 2.0**-53)
        final, xi = _apply_branch(sets, xi, n, m, branch, k)
        yield FusionStep(level, n, m, branch, cost, tuple(map(tuple, sets)), final)
        if final is not None:
            return


class BatchStats(
    namedtuple(
        "BatchStats",
        "k runs master_seed mean std stderr min max",
    )
):
    """Aggregate statistics of the costs of a batch of runs.

    ``mean`` and ``std`` equal ``statistics.fmean`` and
    ``statistics.stdev`` of the costs (``std`` is 0.0 for a single run);
    both are computed from exact integer sums.  The per-run costs and final
    sizes are not kept: :func:`simulate_batch` hands them to its
    ``on_part`` callback.
    """

    __slots__ = ()


def _run_range(args) -> tuple[array, array]:
    """Costs and final sizes of runs ``start`` to ``stop - 1`` of a batch.

    The draws come from :func:`wfuse.rng.draws_for_range`.  Every run
    calls the module-global ``run_similar_sizes``, so a wrapper put there
    sees each run.
    """
    k, master_seed, start, stop = args
    costs = array("q")
    sizes = array("q")
    for draws in draws_for_range(master_seed, start, stop):
        result = run_similar_sizes(k, draws)
        costs.append(result.cost)
        sizes.append(result.final_size)
    return costs, sizes


def _sample_std(n: int, total: int, total_sq: int) -> float:
    """``statistics.stdev`` of ``n`` integers with sum ``total`` and sum of
    squares ``total_sq``, or 0.0 when ``n < 2``.

    The sample variance is exactly ``(n*total_sq - total**2) / (n*(n-1))``.
    Its square root is rounded once: the integer root of the variance scaled
    by ``4**shift`` keeps at least 55 bits, its last bit is set when the
    root is inexact (rounding to odd), and the division by ``2**shift`` is
    a correctly rounded int/int division, so the float is the nearest to
    the exact root.
    """
    if n < 2:
        return 0.0
    num = n * total_sq - total * total
    den = n * (n - 1)
    shift = max(0, (110 - num.bit_length() + den.bit_length()) // 2)
    scaled = num << 2 * shift
    root = math.isqrt(scaled // den)
    if root * root * den != scaled:
        root |= 1
    return root / (1 << shift)


def _ranges(k, master_seed, runs, step, first=0, stride=1):
    """:func:`_run_range` arguments of ranges ``first``, ``first + stride``,
    ... of a batch of ``runs`` runs cut into ranges of ``step`` runs."""
    for start in range(first * step, runs, stride * step):
        yield k, master_seed, start, min(start + step, runs)


def _make_parts(ranges, pipe_fd):
    """Body of a forked worker: write the part of each range in ``ranges``
    to the pipe ``pipe_fd``, then end the process.

    A part is written as its run count and then its costs and final sizes,
    each an ``array('q')`` in machine byte order.  A ``RuntimeError``, such
    as the step-budget error, is written as minus the length of its UTF-8
    message and then the message, and ends the worker.  The worker first
    closes every descriptor it inherited except stderr and its pipe: the
    read ends of earlier workers' pipes, the caller's output files, stdout.
    It ends through ``os._exit``, so it flushes no buffer it inherited and
    runs no ``atexit`` handler.
    """
    status = 1
    try:
        low = 0
        for fd in sorted({2, pipe_fd}):
            os.closerange(low, fd)
            low = fd + 1
        os.closerange(low, os.sysconf("SC_OPEN_MAX"))
        with open(pipe_fd, "wb") as pipe:
            for args in ranges:
                try:
                    costs, sizes = _run_range(args)
                except RuntimeError as exc:
                    message = str(exc).encode()
                    array("q", [-len(message)]).tofile(pipe)
                    pipe.write(message)
                    break
                array("q", [len(costs)]).tofile(pipe)
                costs.tofile(pipe)
                sizes.tofile(pipe)
                pipe.flush()
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(status)


def _read_part(pipe):
    """The next part a worker wrote to ``pipe`` (see :func:`_make_parts`),
    or None when the pipe ends first.  A worker's error is raised as a
    ``RuntimeError`` with its message."""
    count, costs, sizes = array("q"), array("q"), array("q")
    try:
        count.fromfile(pipe, 1)
        if count[0] <= 0:
            raise RuntimeError(pipe.read(-count[0]).decode())
        costs.fromfile(pipe, count[0])
        sizes.fromfile(pipe, count[0])
    except EOFError:
        return None
    return costs, sizes


def _reap(pids, w):
    """Wait for worker ``w``, mark it reaped and return its exit status."""
    status = os.waitstatus_to_exitcode(os.waitpid(pids[w], 0)[1])
    pids[w] = None
    return status


def _forked_parts(k, master_seed, runs, step, workers):
    """The parts of a batch's ranges of ``step`` runs, in run order, made
    by ``workers`` forked worker processes.

    Worker ``w`` makes ranges ``w``, ``w + workers``, ... and writes their
    parts to a pipe of its own (:func:`_make_parts`); part ``i`` is read
    from worker ``i % workers``.  A worker whose pipe is full waits until
    its next part is read, so memory does not grow with ``runs``.  A
    worker's ``RuntimeError`` is raised here with the same message, and a
    pipe that ends before the worker's last part, or a worker that exits
    with a nonzero status, raises a ``RuntimeError`` naming that status.
    A pipe or fork that fails raises a ``RuntimeError`` that says a worker
    could not be started.  Every worker is reaped before the generator
    ends.  When it ends by an error, or is closed before its last part, the
    workers are killed first.
    """
    pipes, pids = [], []
    try:
        for w in range(workers):
            try:
                read_fd, write_fd = os.pipe()
                pipes.append(open(read_fd, "rb"))
                try:
                    pid = os.fork()
                    if not pid:
                        _make_parts(_ranges(k, master_seed, runs, step, w, workers), write_fd)
                finally:
                    os.close(write_fd)  # only the parent gets here
            except OSError as exc:
                raise RuntimeError(f"cannot start a worker process: {exc.strerror}") from exc
            pids.append(pid)
        for i in range(len(range(0, runs, step))):
            part = _read_part(pipes[i % workers])
            if part is None:
                status = _reap(pids, i % workers)
                raise RuntimeError(f"a worker process ended early with exit status {status}")
            yield part
            del part  # free the part before the next one is read
        for w in range(workers):
            if status := _reap(pids, w):
                raise RuntimeError(f"a worker process ended with exit status {status}")
    except BaseException:
        import signal  # only here: a batch that succeeds never loads it

        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for w, pid in enumerate(pids):
            if pid is not None:
                _reap(pids, w)
        for pipe in pipes:
            pipe.close()


def simulate_batch(
    k: int,
    runs: int,
    master_seed: int,
    *,
    workers: int = 1,
    on_part=None,
) -> BatchStats:
    """Run the similar-sizes strategy ``runs`` times with derived seeds.

    Run ``i`` reads the draws of the stream seeded ``mix64(master_seed +
    i)``, so the per-run cost vector is a pure function of ``(k, runs,
    master_seed)`` and identical for any ``workers`` setting.  The draws
    come from :func:`wfuse.rng.draws_for_range`, which seeds the runs and
    computes their first blocks together; every run is bit-identical to
    ``run_similar_sizes(k, stream_for_run(master_seed, i))``.

    The runs are made in ranges of at most :data:`_RANGE_CAP` runs, and
    each range's part is folded into the statistics as it arrives and then
    dropped, so memory does not grow with ``runs``.  With ``workers > 1``
    and ``os.fork`` available, ``workers`` forked processes make eight or
    more ranges each and stream their parts back over pipes; they are all
    reaped before this function returns or raises.  Without ``os.fork``
    the batch runs in this process.  When ``on_part`` is given it is called
    with every part, in run order, as ``on_part(costs, final_sizes)``: two
    ``array('q')`` values of the same length holding the range's costs and
    final sizes, starting at the run after the previous part's last.  The
    per-run values reach the caller only this way.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    # A worker beyond the run count would have no range to make.
    workers = min(workers, runs)
    if workers > 1 and hasattr(os, "fork"):
        # The same number of ranges per worker, at least eight, all of one
        # size but the last, so that the workers finish together.
        ranges = workers * max(8, -(-runs // (workers * _RANGE_CAP)))
        parts = _forked_parts(k, master_seed, runs, -(-runs // ranges), workers)
    else:
        parts = (_run_range(args) for args in _ranges(k, master_seed, runs, _RANGE_CAP))
    total = total_sq = 0
    low, high = math.inf, -math.inf
    # Closing the parts ends the workers when the fold or on_part raises.
    with closing(parts):
        for costs, final_sizes in parts:
            total += sum(costs)
            total_sq += sum(map(mul, costs, costs))
            low = min(low, min(costs))
            high = max(high, max(costs))
            if on_part is not None:
                on_part(costs, final_sizes)
            # Free the part before the next one is made.
            del costs, final_sizes
    # Each cost is an int of at most max_steps < 2**53, so float(total) is
    # what fsum(costs) returns and the mean equals statistics.fmean.
    std = _sample_std(runs, total, total_sq)
    return BatchStats(
        k=k,
        runs=runs,
        master_seed=master_seed,
        mean=float(total) / runs,
        std=std,
        stderr=std / math.sqrt(runs),
        min=low,
        max=high,
    )


def exact_expected_cost(k: int) -> Fraction:
    """Exact expected cost of the similar-sizes strategy, for ``k <= 5``.

    Solves the absorbing chain of :func:`_fusion_chain` over rationals:
    the expected number of ``w_1`` draws from each fusion-time state is the
    sum over its transitions of ``p * (draws + expected cost after them)``.
    It exists to validate the Monte Carlo path.  The chain has 1, 3, 8, 32,
    192 and 1,856 states for k = 0..5, and k = 5 takes about 0.5 s on a
    2-core host.  From k = 6 on it raises ``ValueError``: the k = 6 chain
    has 32,064 states, and solving it this way took 209 s there.
    """
    if not 0 <= k <= 5:
        raise ValueError(f"exact chain oracle supports only 0 <= k <= 5, got {k}")
    initial_draws, _, transitions = _fusion_chain(k)
    return initial_draws + _expected_draws(transitions)[0]


def _fusion_chain(k: int):
    """The similar-sizes machine at fusion time, as a Markov chain.

    Each state is a configuration ``(buckets, xi)`` just before a fusion,
    with the deterministic step-2 stretches collapsed into the transitions.
    Returns ``(initial_draws, states, transitions)``: the ``w_1`` draws
    before the first fusion, the states in discovery order (state 0 is the
    first fusion), and for each state its ``(probability, w_1 draws,
    successor index)`` triples, one per branch, the successor ``None`` when
    the branch ends the run.
    """
    sets = [[] for _ in range(k + 2)]
    initial_draws, xi = _settle(sets, 0)
    index = {(tuple(map(tuple, sets)), xi): 0}
    states = list(index)
    transitions = []
    # The loop also visits the states it appends to ``states``.
    for buckets, xi in states:
        n, m = buckets[xi][:2]
        moves = []
        for branch, p in zip(BRANCHES, outcome_distribution(n, m)):
            sets = list(map(list, buckets))
            del sets[xi][:2]
            final, after = _apply_branch(sets, xi, n, m, branch, k)
            if final is not None:
                moves.append((p, 0, None))
                continue
            draws, after = _settle(sets, after)
            key = (tuple(map(tuple, sets)), after)
            j = index.setdefault(key, len(states))
            if j == len(states):
                states.append(key)
            moves.append((p, draws, j))
        transitions.append(moves)
    return initial_draws, states, transitions


def _expected_draws(transitions) -> list[Fraction]:
    """Each chain state's expected ``w_1`` draws until the run ends: the
    solution of ``E_i = sum over its transitions of p * (draws + E_j)``,
    with ``E_j = 0`` when the branch ends the run."""
    from fractions import Fraction  # only here (module docstring)

    rows = [{i: Fraction(1)} for i in range(len(transitions))]
    for row, moves in zip(rows, transitions):
        for p, _, j in moves:
            if j is not None:
                row[j] = row.get(j, 0) - p
    rhs = [sum(p * draws for p, draws, _ in moves if draws) for moves in transitions]
    return _solve_exact(rows, rhs)


def _solve_exact(rows: list[dict], rhs: list) -> list[Fraction]:
    """Solve the sparse system ``rows . x = rhs`` over rationals.

    ``rows[i]`` maps column to coefficient.  Pivots are diagonal, taken in
    reverse row order: for the fusion chain at k = 5 that leaves 22,722
    nonzeros in the factors, against 48,124 in row order.  The system
    matrix here is I minus a substochastic matrix, so no pivot is zero.
    A column index keeps the rows that still hold each column, so a pivot
    visits only those.  Back-substitution then runs in row order.  The
    elimination overwrites ``rows`` and ``rhs``.
    """
    holders = [set() for _ in rows]
    for i, row in enumerate(rows):
        for c in row:
            holders[c].add(i)
    for i in reversed(range(len(rows))):
        pivot_row = rows[i]
        pivot = pivot_row.pop(i)
        for c in pivot_row:
            pivot_row[c] /= pivot
            holders[c].discard(i)
        rhs[i] /= pivot
        for r in holders[i] - {i}:
            row = rows[r]
            factor = row.pop(i)
            for c, v in pivot_row.items():
                value = row.get(c, 0) - factor * v
                if value:
                    row[c] = value
                    holders[c].add(r)
                else:
                    del row[c]
                    holders[c].discard(r)
            rhs[r] -= factor * rhs[i]
    solution = []
    for row, value in zip(rows, rhs):
        for c, v in row.items():
            value -= v * solution[c]
        solution.append(value)
    return solution
