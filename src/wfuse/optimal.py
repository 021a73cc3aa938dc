"""Optimal non-recycling preparation costs via dynamic programming.

For every target index the cheapest way to build it from two freshly
prepared parts is

    R[w_n]_opt = min_{k=1..n-1} (R[w_k]_opt + R[w_{n-k}]_opt) / P_s(w_k, w_{n-k})

with ``R[w_1] = 1``.  The table records the minimizing split so the full
fusion tree can be reconstructed.  Costs grow super-polynomially (the
entry at index 64 already exceeds 10^6), hence exact big-integer rationals
end to end.

The DP still compares all n/2 splits of every n, O(n^2) in total, but it
ranks them in floating point and costs only the candidates exactly.  Since
``1 / P_s(w_k, w_{n-k}) = (k+2)(n-k+2) / (n+2)`` and ``n+2`` is common to
every split of ``n``, the score ``(R_k + R_{n-k}) (k+2)(n-k+2)`` orders the
splits of ``n`` exactly as their costs do.  Its float value takes three
roundings of relative size at most u = 2^-53: ``float(R_k)`` (a
``Fraction`` converts correctly rounded), the sum of two positive terms,
and the product with the integer ``(k+2)(n-k+2)``, which a float holds
exactly while it is below 2^53.  So every float score is within a relative
(1+u)^3 - 1 < 4u of the exact score, and an exact minimizer's float score
exceeds the smallest float score ``f_min`` by less than a relative
(1+4u)/(1-4u) - 1 < 2^-49.  The screen keeps every split whose score is at
most ``f_min * (1 + 2^-40)`` (a bound that itself rounds to more than
``f_min * (1 + 2^-41)``), so it never drops an exact minimizer.  The kept
splits are costed with :func:`compose_cost` in increasing k under a strict
``<``, exactly as the full DP does, so the table, ``best_split`` included,
is the full DP's.  In practice exactly one split survives per n: for
n <= 512 the best split beats the second best by a relative 8.4e-5 at
least.  Overflow is out of reach: ``log2 R_n`` tracks ``(log2 n)^2 / 2``
and passes the float range only near n = 10^13, which an O(n^2) loop
never gets to.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

from .growth_costs import compose_cost

# The functions that build a rational import Fraction themselves, so that a
# process that builds none, such as `wfuse simulate`, never loads fractions
# and decimal.
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["CostEntry", "CostTable", "FusionTree", "optimal_costs", "optimal_plan"]

# Relative slack of the float screen: far above its rounding error (< 2^-49),
# far below the gaps between split costs (module docstring).
_SCREEN_MARGIN = 1 + 2.0**-40


class CostEntry(namedtuple("CostEntry", "cost best_split")):
    """Optimal cost of one target plus the split that attains it.

    ``best_split`` is the smallest minimizing k, None for the base state.
    """

    __slots__ = ()


class CostTable(namedtuple("CostTable", "entries max_n")):
    """Optimal costs for every index 1..max_n.

    ``entries`` maps each index to its :class:`CostEntry`, and
    ``table[n]`` is the entry of index ``n``, not a tuple item.
    """

    __slots__ = ()

    def __getitem__(self, n: int) -> CostEntry:
        if not 1 <= n <= self.max_n:
            raise KeyError(f"index {n} outside table range 1..{self.max_n}")
        return self.entries[n]

    def cost(self, n: int) -> Fraction:
        return self[n].cost


def optimal_costs(max_n: int) -> CostTable:
    """Fill the optimal-cost table bottom-up for indices 1..max_n.

    Ties between equal-cost splits break toward the smallest k, so the
    table (and everything derived from it) is deterministic.  Splits are
    screened in floating point and confirmed exactly (module docstring);
    the table is the exact minimum all the same.
    """
    from fractions import Fraction

    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    entries = {1: CostEntry(Fraction(1), None)}
    approx = [0.0, 1.0]  # approx[k] == float(entries[k].cost)
    for n in range(2, max_n + 1):
        # split (k, n-k) == (n-k, k); score = cost * (n + 2)
        scores = [
            (approx[k] + approx[n - k]) * ((k + 2) * (n - k + 2))
            for k in range(1, n // 2 + 1)
        ]
        bound = min(scores) * _SCREEN_MARGIN
        best_cost = None
        best_k = None
        for k, score in enumerate(scores, start=1):
            if score > bound:
                continue
            cost = compose_cost(entries[k].cost, entries[n - k].cost, k, n - k)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_k = k
        entries[n] = CostEntry(best_cost, best_k)
        approx.append(float(best_cost))
    return CostTable(entries, max_n)


class FusionTree(
    namedtuple("FusionTree", "size left right", defaults=(None, None))
):
    """Binary fusion plan; leaves are the unit-cost ``w_1`` states.

    ``left`` and ``right`` are the two subtrees, None for a leaf.
    """

    __slots__ = ()

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def cost(self) -> Fraction:
        """Composed bottom-up cost of executing this plan."""
        from fractions import Fraction

        if self.is_leaf:
            return Fraction(1)
        return compose_cost(
            self.left.cost(), self.right.cost(), self.left.size, self.right.size
        )

    def shape(self):
        """Nested-tuple rendering, e.g. ``((1, 1), (1, (1, 1)))``."""
        if self.is_leaf:
            return 1
        return (self.left.shape(), self.right.shape())


def optimal_plan(table: CostTable, n: int) -> FusionTree:
    """Fusion tree realizing ``table[n]``; its cost equals the table entry."""
    entry = table[n]  # raises KeyError when out of range
    if entry.best_split is None:
        return FusionTree(size=n)
    k = entry.best_split
    return FusionTree(
        size=n,
        left=optimal_plan(table, k),
        right=optimal_plan(table, n - k),
    )
