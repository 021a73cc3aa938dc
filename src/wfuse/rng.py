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

Block draws.  Word j depends only on the counter ``s + (j+1)*gamma``, so
the words can be computed in any grouping.  :func:`block53` computes the
53-bit draws ``word >> 11`` of ``count`` consecutive words at once, with
whole-int operations on one Python int that holds the counters in 128-bit
lanes (lane j at bit ``128*j``).  The lanes are filled by one multiply-add,
``s * sum(2**(128*j)) + sum((j+1)*gamma * 2**(128*j))``; each lane's sum is
below ``(count+1) * 2**64``, so none spills into the next, and masking every
lane to 64 bits gives the counters modulo ``2**64``.  ``mix64`` then runs
lane-wise: after every xor-shift and every multiply each lane is masked
back to 64 bits.  A right shift moves at most 31 bits of the next lane into
the upper half of a lane, and a 64x64-bit product fits in 128 bits, so no
carry or shifted bit ever reaches a neighbouring lane's low 64 bits.  The
lanes are unpacked with ``int.to_bytes`` in the host's byte order and a
native ``memoryview.cast("Q")``, keeping the low word of each lane.  Every
draw is therefore bit-identical to ``next64() >> 11``.  Iterating a
:class:`SplitMix64` yields its draws from its current state, computed in
blocks, and does not move the stream.

Range draws.  :func:`draws_for_range` serves a batch's runs ``start`` to
``stop - 1`` with the same lane arithmetic.  One lane computation gives
every seed ``mix64(master_seed + i)``: lane r holds ``master_seed + start
+ r`` modulo ``2**64``.  The seed lanes are copied with shifts so that
lane ``j * runs + r`` holds seed r, and one more computation gives every
run's first block of 16 draws, ``mix64(seed_r + (j+1)*gamma) >> 11``.
Each run's iterator yields that block and then computes blocks of 16, 32,
64, 128 and 256 draws from the next word on, so its draws are those of
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


def mix64(x: int) -> int:
    """64-bit xor-shift-multiply finalizer (the splitmix64 mixer)."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX_A) & MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & MASK64
    x ^= x >> 31
    return x


@lru_cache(maxsize=32)
def _lane_constants(count: int) -> tuple[int, int, int, int]:
    """(lane repunit, packed (j+1)*gamma steps, 64-bit mask, 53-bit mask)."""
    ones = ((1 << (128 * count)) - 1) // ((1 << 128) - 1)
    steps = int.from_bytes(
        b"".join(((j + 1) * _GOLDEN).to_bytes(16, "little") for j in range(count)),
        "little",
    )
    return ones, steps, ones * MASK64, ones * ((1 << 53) - 1)


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


def _lanes53(state: int, count: int) -> int:
    """The draws of :func:`block53` in the low bits of 128-bit lanes."""
    ones, steps, mask64, mask53 = _lane_constants(count)
    return (_mix_lanes((state * ones + steps) & mask64, mask64) >> 11) & mask53


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
    return _lane_words(_lanes53(state, count), count)


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


@lru_cache(maxsize=8)
def _range_constants(runs: int) -> tuple[int, int, int]:
    """(ramp, steps, mask) for :func:`draws_for_range` over ``runs`` runs.

    Lane r of ``ramp`` holds r.  ``steps`` and ``mask`` span the
    ``runs * _FIRST_BLOCK`` head lanes: lane ``j * runs + r`` of ``steps``
    holds ``(j+1) * gamma``, and ``mask`` is their 64-bit lane mask.
    """
    ramp = b"".join(r.to_bytes(16, "little") for r in range(runs))
    steps = b"".join(
        ((j + 1) * _GOLDEN).to_bytes(16, "little") * runs for j in range(_FIRST_BLOCK)
    )
    mask64 = (b"\xff" * 8 + bytes(8)) * (runs * _FIRST_BLOCK)
    return tuple(int.from_bytes(raw, "little") for raw in (ramp, steps, mask64))


def draws_for_range(master_seed: int, start: int, stop: int):
    """The draws of runs ``start`` to ``stop - 1``, as :func:`stream_for_run`.

    Returns an iterator over one endless draw iterator per run; the
    ``r``-th holds exactly the draws of ``stream_for_run(master_seed,
    start + r)``, whose seed is ``mix64(master_seed + start + r)``.  Each
    is single-use: a run that reads it uses its draws up.  The seeds are
    computed in one lane computation, and every run's first block of draws
    in one more, so a run that ends within that block pays no block setup
    of its own.  The draw iterators are made as they are taken, so only
    the one in use holds a generator frame.
    """
    runs = stop - start
    ramp, head_steps, head_mask = _range_constants(runs)
    ones, _, mask64, _ = _lane_constants(runs)
    base = (master_seed + start) & MASK64
    lanes = _mix_lanes((base * ones + ramp) & mask64, mask64)
    seeds = _lane_words(lanes, runs)
    # Copy the seed lanes _FIRST_BLOCK times (a power of two), so that lane
    # j * runs + r holds seed r; adding head_steps makes it run r's counter j.
    # The sum stays below 2**69 in each lane, so it does not reach the
    # next-lane bits from 97 up, which the mask then clears.
    count = runs * _FIRST_BLOCK
    width = 128 * runs
    while width < 128 * count:
        lanes |= lanes << width
        width *= 2
    lanes = (lanes + head_steps) & head_mask
    # Bits 64..74 of each mixed lane are zero, so after the shift each
    # lane's low word is its 53-bit draw.
    heads = _lane_words(_mix_lanes(lanes, head_mask) >> 11, count)
    return (
        chain.from_iterable(_head_then_blocks53(heads[r::runs], seed))
        for r, seed in enumerate(seeds)
    )
