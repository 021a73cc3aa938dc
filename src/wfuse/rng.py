"""Self-contained splitmix64 stream used by every Monte Carlo run.

The generator identity is part of the reproducibility contract: published
tables can be replayed bit-exactly by any implementation of the same
algorithm, so the constants are spelled out here rather than delegated to a
platform RNG.

* ``mix64`` is the splitmix64 output finalizer (xor-shift-multiply with
  constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
* A :class:`SplitMix64` stream seeded with ``s`` emits
  ``mix64(s + (j+1) * 0x9E3779B97F4A7C15)`` as its j-th 64-bit word.
* ``u = (word >> 11) / 2**53`` is the uniform variate; its 53 bits make the
  exact-threshold comparisons in :mod:`wfuse.fusion_model` unambiguous.
* Run ``i`` of a batch with master seed ``s`` uses an independent stream
  seeded with ``mix64(s + i)``, so batches are order- and
  parallelism-independent.

Counter lanes.  Word j depends only on the counter ``s + (j+1)*gamma``,
so the words can be computed in any grouping.  One routine,
``_mixed_counters``, computes ``mix64`` of many counters at once with
whole-int operations on one Python int that holds them in 128-bit lanes
(lane i at bit ``128*i``).  It takes ``runs`` values, one in the low 64
bits of each lane, and copies that group of lanes by doubling shifts, so
that lane ``j*runs + r`` holds value r for every ``j < count`` (a count
that is not a power of two gets extra copies, which the mask below drops).
It adds ``(j+1) * step`` to lane ``j*runs + r`` and masks every lane to 64
bits, which gives the counters modulo ``2**64``.  No carry reaches the
next lane: a lane's bits 64..96 are zero, and the sum of its value and
its step is below ``(count+1) * 2**64``, far below ``2**97``.  ``mix64``
then runs lane-wise: after every xor-shift and every multiply each lane is
masked back to 64 bits.  A right shift moves at most 31 bits of the next
lane into the upper half of a lane, and a 64x64-bit product fits in 128
bits, so no carry or shifted bit ever reaches a neighbouring lane's low 64
bits.  The last xor-shift is not masked: it leaves bits 64..96 of each
lane zero and bits of the next lane in bits 97..127, so a mixed result can
be the values of another call, and after a right shift by 11 each lane's
low word is its 53-bit draw.  The lanes are unpacked with ``int.to_bytes``
in the host's byte order and a native ``memoryview.cast("Q")``, keeping
the low word of each lane.

Block draws.  :func:`block53` is that routine on one value, the state,
with ``count`` copies and step gamma, shifted right by 11 bits: the
53-bit draws ``word >> 11`` of ``count`` consecutive words, each
bit-identical to ``next64() >> 11``.  Iterating a :class:`SplitMix64`
yields its draws from its current state, computed in blocks, and does not
move the stream.

Range draws.  :func:`draws_for_range` serves a batch's runs ``start`` to
``stop - 1`` with the same routine, 256 runs at a time.  For runs ``lo``
on, the seeds ``mix64(master_seed + lo + r)`` are one call on the one
value ``master_seed + lo - 1`` modulo ``2**64``, with step 1 (where
``master_seed + lo`` is a multiple of ``2**64`` that value is ``2**64 -
1`` and the first counter wraps to 0).  One more call, with the seeds as
its values, 16 copies and step gamma, gives every run's first block of 16
draws ``mix64(seed_r + (j+1)*gamma) >> 11`` in lane ``j*runs + r``.  Each
run's iterator yields that block and then computes blocks of 16, 32, 64,
128 and 256 draws from the next word on, so its draws are those of
``stream_for_run(master_seed, i)``: the range draws change no bit.  The
refill starts at 16 rather than 32 because few runs reach far past the
head: at k = 1 about 32% of runs need a 17th draw but under 9% a 33rd.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain

__all__ = [
    "MASK64",
    "mix64",
    "block53",
    "SplitMix64",
    "stream_for_run",
    "draws_for_range",
]

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Stride through the 64-bit words of the lane bytes that picks each lane's
# low word in lane order: little-endian bytes hold lane 0's low word first,
# big-endian bytes hold it last.
_LANE_STEP = {"little": 2, "big": -2}
_STEP = _LANE_STEP[sys.byteorder]
# Blocks of a stream start small, so short runs compute few unused words,
# and double up to a cap that keeps the packed int a few kilobytes.  At
# k = 1 about two runs in three end within the first block of 16 (about
# 32% need a 17th draw), and a run's range iterator refills with a second
# block of 16 before doubling, since under 9% need a 33rd.
_FIRST_BLOCK = 16
_MAX_BLOCK = 256
# Runs whose seeds and first blocks :func:`draws_for_range` computes at once.
_RANGE_CHUNK = 256


def mix64(x: int) -> int:
    """64-bit xor-shift-multiply finalizer (the splitmix64 mixer)."""
    return _mix_lanes(x & MASK64, MASK64)


def _mix_lanes(x: int, mask64: int) -> int:
    """``mix64`` of every 128-bit lane of ``x``, in each lane's low 64 bits.

    ``x`` holds values below ``2**64`` in its lanes and ``mask64`` is the
    64-bit mask of every lane.  The last xor-shift moves the next lane's
    low 31 bits into bits 97..127 of each lane and leaves bits 64..96
    zero, so callers mask the result or read only the low words.
    """
    x ^= x >> 30
    x &= mask64
    x *= _MIX_A
    x &= mask64
    x ^= x >> 27
    x &= mask64
    x *= _MIX_B
    x &= mask64
    return x ^ (x >> 31)


@lru_cache(maxsize=16)
def _counter_constants(runs: int, count: int, step: int) -> tuple[int, int]:
    """(steps, mask) of :func:`_mixed_counters` over ``runs * count`` lanes.

    Lane ``j * runs + r`` of ``steps`` holds ``(j+1) * step``, and ``mask``
    is the 64-bit mask of every lane.
    """
    steps = b"".join(((j + 1) * step).to_bytes(16, "little") * runs for j in range(count))
    mask64 = (b"\xff" * 8 + bytes(8)) * (runs * count)
    return int.from_bytes(steps, "little"), int.from_bytes(mask64, "little")


def _mixed_counters(lanes: int, runs: int, count: int, step: int) -> int:
    """``mix64(value_r + (j+1) * step)`` in lane ``j * runs + r``, for
    ``r < runs`` and ``j < count``.

    ``lanes`` holds ``runs`` lanes whose bits 64..96 are zero (one value
    below ``2**64``, or a result of this routine), and value r is the low
    64 bits of lane r.  See the module docstring for the lane layout.
    """
    steps, mask64 = _counter_constants(runs, count, step)
    width, end = 128 * runs, 128 * runs * count
    while width < end:
        lanes |= lanes << width
        width *= 2
    return _mix_lanes((lanes + steps) & mask64, mask64)


def _lane_words(lanes: int, count: int) -> memoryview:
    """The low 64-bit words of the first ``count`` lanes of ``lanes``."""
    raw = lanes.to_bytes(16 * count, sys.byteorder)
    return memoryview(raw).cast("Q")[::_STEP]


def block53(state: int, count: int) -> memoryview:
    """Draws ``next64() >> 11`` of the next ``count`` words after ``state``.

    Item j is ``mix64(state + (j+1) * gamma) >> 11``: exactly what a
    :class:`SplitMix64` whose state is ``state`` returns from its first
    ``count`` calls of ``next64() >> 11``.  See the module docstring for
    the lane layout.
    """
    return _lane_words(_mixed_counters(state & MASK64, 1, count, _GOLDEN) >> 11, count)


def _blocks53(state: int, count: int = _FIRST_BLOCK):
    while True:
        yield block53(state, count)
        state = (state + count * _GOLDEN) & MASK64
        count = min(2 * count, _MAX_BLOCK)


class SplitMix64:
    """Minimal splitmix64 stream; iterating it yields its 53-bit draws."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next64(self) -> int:
        """Next raw 64-bit word."""
        self._state = (self._state + _GOLDEN) & MASK64
        return mix64(self._state)

    def __iter__(self):
        """Endless iterator over the draws ``next64() >> 11`` from here on.

        The draws are computed ahead in blocks (:func:`block53`), and taking
        them does not move the stream, so every iterator starts from the
        state the stream has when it is made.
        """
        return chain.from_iterable(_blocks53(self._state))


def stream_for_run(master_seed: int, run_index: int) -> SplitMix64:
    """The per-run stream contract: seed ``mix64(master_seed + run_index)``."""
    return SplitMix64(mix64((master_seed + run_index) & MASK64))


def _head_then_blocks53(head: memoryview, seed: int):
    """``head``, the first block of the stream seeded ``seed``, then blocks
    of 16, 32, 64, ... draws from the word after it."""
    yield head
    yield from _blocks53((seed + _FIRST_BLOCK * _GOLDEN) & MASK64)


def draws_for_range(master_seed: int, start: int, stop: int):
    """The draws of runs ``start`` to ``stop - 1``, as :func:`stream_for_run`.

    Yields one endless draw iterator per run; the ``r``-th holds exactly
    the draws of ``stream_for_run(master_seed, start + r)``, whose seed is
    ``mix64(master_seed + start + r)``.  Each is single-use: a run that
    reads it uses its draws up.  For :data:`_RANGE_CHUNK` runs at a time,
    the seeds are computed in one lane computation and every run's first
    block of draws in one more, so a run that ends within that block pays
    no block setup of its own.  The draw iterators are made as they are
    taken, so only the one in use holds a generator frame.
    """
    for lo in range(start, stop, _RANGE_CHUNK):
        runs = min(_RANGE_CHUNK, stop - lo)
        seeds = _mixed_counters((master_seed + lo - 1) & MASK64, 1, runs, 1)
        heads = _mixed_counters(seeds, runs, _FIRST_BLOCK, _GOLDEN) >> 11
        heads = _lane_words(heads, runs * _FIRST_BLOCK)
        for r, seed in enumerate(_lane_words(seeds, runs)):
            yield chain.from_iterable(_head_then_blocks53(heads[r::runs], seed))
