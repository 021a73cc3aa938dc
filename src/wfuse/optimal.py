"""Optimal non-recycling preparation costs via dynamic programming.

For every target index the cheapest way to build it from two freshly
prepared parts is

    R[w_n]_opt = min_{k=1..n-1} (R[w_k]_opt + R[w_{n-k}]_opt) / P_s(w_k, w_{n-k})

with ``R[w_1] = 1``.  The table records the minimizing split so the full
fusion tree can be reconstructed.  Costs grow super-polynomially (the
entry at index 64 already exceeds 10^6), hence exact big-integer arithmetic
end to end.

Since ``1 / P_s(w_k, w_{n-k}) = (k+2)(n-k+2) / (n+2)``, the normalized cost
``a(n) = (n+2) R[w_n]_opt`` is an integer and obeys

    a(1) = 3,   a(n) = min_{k=1..n//2} a(k) (n-k+2) + a(n-k) (k+2)

(split k and split n-k are the same fusion).  The DP runs this recurrence
in ints over all n/2 splits of every n, O(n^2) in total, and turns
``a(n)`` into a ``Fraction`` only to store it.  Ties between equal-cost
splits break toward the smallest k, whose score comes first.
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
    table (and everything derived from it) is deterministic.
    """
    from fractions import Fraction

    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    entries = {1: CostEntry(Fraction(1), None)}
    a = [0, 3]  # a[n] == (n + 2) * entries[n].cost
    for n in range(2, max_n + 1):
        half = n // 2
        # a[k] * (n - k + 2) + a[n - k] * (k + 2) for k = 1..half; zipping
        # the four factors runs about 20% faster than indexing a at
        # n = 3000 (CPython 3.11, 2-core host)
        scores = [
            x * i + y * j
            for x, i, y, j in zip(
                a[1 : half + 1],
                range(n + 1, n - half + 1, -1),
                reversed(a[n - half : n]),
                range(3, half + 3),
            )
        ]
        low = min(scores)
        # index() finds the first minimum, the smallest minimizing k
        entries[n] = CostEntry(Fraction(low, n + 2), scores.index(low) + 1)
        a.append(low)
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
