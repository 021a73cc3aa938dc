"""Closed-form and recursive resource costs of W-state growth strategies.

Costs are measured in consumed basic resource states ``w_1`` (three-photon
W states, unit cost) and are exact.  ``R[w_0] = 0`` by convention: Bell
pairs left over by recycling are discarded with no salvage credit.

Every strategy's cost is stated in one form, the normalized cost
``a(n) = (n+2) R[w_n]``, which is an integer for each strategy here:
``a(n)`` is the numerator of ``R[w_n]`` over ``n + 2``, not necessarily in
lowest terms.  The ``*_normalized_cost(s)`` functions return these ints and
load no rational arithmetic; the ``Fraction`` functions return
``Fraction(a(n), n + 2)``.

Strategies covered here:

* linear growth (fuse a fixed-size ``w_n`` onto the working state), without
  recycling -- :func:`linear_growth_cost`, with the repeated-``w_1`` special
  case in closed form as :func:`w3_linear_normalized_cost`, whose value is
  ``(11 * 3^n - 6n - 15) / 4``, and :func:`w3_linear_cost`;
* linear growth with recycling of the shortened working state -- the
  closed form ``15 * 2^n - 15 - 3n(n+7)/2`` of
  :func:`linear_recycled_normalized_cost`, the solution of the integer
  recurrence ``r_{n+1} = 3 r_n - 2 r_{n-1} + 3(n+2)`` (characteristic
  roots 1 and 2, a quadratic particular solution), so the cost is
  ``Theta(2^n / n)`` with constant 15, and :func:`linear_recycled_costs`;
* doubling growth (fuse two equal sizes), without recycling -- the
  integer recurrence ``a(1) = 3``, ``a(2n) = 2(n+2) a(n)`` of
  :func:`exponential_normalized_cost`, :func:`exponential_cost` and its
  bounded prefactor :func:`gamma`.

The optimal non-recycling strategy lives in :mod:`wfuse.optimal`.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

# Every function that builds a rational imports Fraction itself, so that a
# process that builds none, such as `wfuse simulate` or `wfuse cost`, never
# loads fractions and decimal.
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "LinearGrowthParams",
    "compose_cost",
    "linear_growth_cost",
    "w3_linear_normalized_cost",
    "w3_linear_cost",
    "linear_recycled_normalized_cost",
    "linear_recycled_costs",
    "exponential_normalized_cost",
    "exponential_cost",
    "gamma",
]


def compose_cost(cost_a, cost_b, n: int, m: int) -> Fraction:
    """Cost of building ``w_{n+m}`` from fresh ``w_n`` and ``w_m`` parts.

    Without recycling, every non-success throws both inputs away, so the
    expected cost is ``(cost_a + cost_b) / P_s(w_n, w_m)``, i.e.
    ``(n+2)(m+2)(cost_a + cost_b) / (n+m+2)``.
    """
    from fractions import Fraction

    cost_a = Fraction(cost_a)
    cost_b = Fraction(cost_b)
    if cost_a <= 0 or cost_b <= 0:
        raise ValueError("input costs must be positive")
    return (cost_a + cost_b) * (n + 2) * (m + 2) / (n + m + 2)


class LinearGrowthParams(namedtuple("LinearGrowthParams", "m n k")):
    """Linear growth schedule: seed ``w_m``, fuse ``w_n`` on, ``k`` times."""

    __slots__ = ()

    def __new__(cls, m, n, k):
        if m < 1 or n < 1:
            raise ValueError("seed and increment indices must be >= 1")
        if k < 0:
            raise ValueError("number of fusion levels must be >= 0")
        return super().__new__(cls, m, n, k)


def linear_growth_cost(
    params: LinearGrowthParams,
    seed_cost=1,
    increment_cost=1,
) -> Fraction:
    """Exact cost ``R[w_{m+kn}]`` of k-level linear growth without recycling.

    Writing ``r_k = (m+kn+2) R[w_{m+kn}]`` and ``xi = (n+2) R[w_n]`` turns
    the per-level composition into the first-order recurrence
    ``r_{k+1} = (n+2) r_k + xi (m+kn+2)``, whose solution is

        r_k = (r_0 - beta) (n+2)^k + alpha k + beta

    with ``alpha = -xi n/(n+1)`` and ``beta = (alpha - xi (m+2))/(n+1)``.
    ``seed_cost`` and ``increment_cost`` are the (caller-supplied) costs of
    ``w_m`` and ``w_n``.
    """
    from fractions import Fraction

    m, n, k = params.m, params.n, params.k
    seed_cost = Fraction(seed_cost)
    increment_cost = Fraction(increment_cost)
    xi = (n + 2) * increment_cost
    alpha = Fraction(-xi * n, n + 1)
    beta = (alpha - xi * (m + 2)) / (n + 1)
    r0 = (m + 2) * seed_cost
    rk = (r0 - beta) * (n + 2) ** k + alpha * k + beta
    return rk / (m + k * n + 2)


def w3_linear_normalized_cost(target: int) -> int:
    """Normalized cost ``(N+2) R[w_N]`` of ``w_N``, ``N = target``, grown one
    index at a time from ``w_1`` states: ``(11 * 3^N - 6N - 15) / 4``.

    The division is exact: ``11 * 3^N`` and ``6N + 15`` are both 1 mod 4
    for odd ``N`` and both 3 mod 4 for even ``N``.
    """
    if target < 1:
        raise ValueError(f"target index must be >= 1, got {target}")
    return (11 * 3**target - 6 * target - 15) // 4


def w3_linear_cost(target: int) -> Fraction:
    """Cost of ``w_target`` grown one index at a time from ``w_1`` states.

    Closed form ``((11/4) 3^N - (3/2) N - 15/4) / (N+2)`` for ``N >= 1``,
    i.e. :func:`w3_linear_normalized_cost` over ``N + 2``; the cost grows
    like ``O(3^N)``.
    """
    from fractions import Fraction

    return Fraction(w3_linear_normalized_cost(target), target + 2)


def linear_recycled_normalized_cost(m: int) -> int:
    """Normalized cost ``r_m = (m+2) R[w_m]`` of :func:`linear_recycled_costs`
    in closed form: ``15 * 2^m - 15 - 3m(m+7)/2``.

    ``3m(m+7)`` is even for every ``m``, since ``m`` and ``m + 7`` differ
    by an odd number, so the value is an integer.
    """
    if m < 1:
        raise ValueError(f"index must be >= 1, got {m}")
    return (15 << m) - 15 - 3 * m * (m + 7) // 2


def linear_recycled_costs(max_m: int) -> list[Fraction]:
    """Costs of one-at-a-time growth when the shortened state is recycled.

    Returns a list ``costs`` with ``costs[m] = R[w_m]`` for ``m`` up to
    ``max_m`` (``costs[0] = 0`` is the discarded-Bell-pair convention,
    making the list 1-indexed by state index).  Seeds are ``R[w_1] = 1``
    and ``R[w_2] = 9/2``; from there

        R[w_{m+1}] = (R[w_m] + 1 - q_m R[w_{m-1}]) / p_m

    with ``p_m = P_s(w_m, w_1)`` and ``q_m = P_r(w_m, w_1)``.  A recyclable
    outcome keeps the shortened working state ``w_{m-1}`` (the shortened
    companion is a Bell pair and is discarded); a failure restarts from
    scratch.

    With ``p_m = (m+3) / (3(m+2))`` and ``q_m = 2(m+1) / (3(m+2))``,
    multiplying the recursion by ``3(m+2)`` gives

        (m+3) R[w_{m+1}] = 3 (m+2) R[w_m] + 3 (m+2) - 2 (m+1) R[w_{m-1}],

    so ``r_m = (m+2) R[w_m]`` satisfies

        r_{m+1} = 3 r_m - 2 r_{m-1} + 3 (m+2),   r_0 = 0,  r_1 = 3.

    Its characteristic roots are 1 and 2, and the root 1 lifts the
    particular solution for the linear forcing to a quadratic,
    ``-3m(m+7)/2``; the initial values fix the rest:

        r_m = 15 * 2^m - 15 - 3m(m+7)/2,

    an integer because ``3m(m+7)`` is always even: the value of
    :func:`linear_recycled_normalized_cost`, and
    ``R[w_m] = r_m / (m+2)``.  So ``R[w_m] = Theta(2^m / m)`` with constant
    15, against the ``Theta(3^m / m)`` of linear growth without recycling.
    """
    from fractions import Fraction

    if max_m < 2:
        raise ValueError(f"max_m must be >= 2, got {max_m}")
    costs = (Fraction(linear_recycled_normalized_cost(m), m + 2) for m in range(1, max_m + 1))
    return [Fraction(0), *costs]


def exponential_normalized_cost(k: int) -> int:
    """Normalized cost ``a(2^k) = (2^k + 2) R[w_{2^k}]`` of the doubling
    strategy without recycling.

    Multiplying the doubling relation of :func:`exponential_cost` by
    ``2n + 2`` turns it into ``a(2n) = 2 (n+2) a(n)`` for ``n = 2^l``,
    which starts from ``a(1) = 3`` and stays in integers.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    a = 3
    for l in range(k):
        a *= 2 * (2**l + 2)
    return a


def exponential_cost(k: int) -> Fraction:
    """Cost ``R[w_{2^k}]`` of the doubling strategy without recycling.

    Follows the exact doubling relation

        R[w_{2^{l+1}}] = (2^l + 2)^2 / (2^l + 1) * R[w_{2^l}]

    from ``R[w_1] = 1``, in the integer form of
    :func:`exponential_normalized_cost`.  This recurrence is the source of
    truth; the :func:`gamma` closed form is its cross-check.
    """
    from fractions import Fraction

    return Fraction(exponential_normalized_cost(k), 2**k + 2)


def gamma(k: int) -> Fraction:
    """Bounded prefactor of the doubling-strategy cost.

        gamma_k = (3/2) * prod_{l=0}^{k-1} (1 + 2^(1-l))

    so that ``R[w_{2^k}] = gamma_k * 2^(k(k+1)/2) / (1 + 2^(k-1))``
    exactly.  The product converges, with limit 21.458...; the cost is
    therefore ``O(2^(k(k+1)/2))``, sub-exponential in the state size.

    Mind the exponent: the product term is sometimes quoted with
    ``2^(l-1)`` instead of ``2^(1-l)``.  That variant diverges, so it
    cannot be the bounded constant, and it fails three independent checks
    that the form above passes exactly: ``R[w_2] = 9/2``, ``R[w_4] = 24``,
    and the 21.458... limit.  See README for the derivation.
    """
    from fractions import Fraction

    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    product = Fraction(3, 2)
    for l in range(k):
        product *= 1 + Fraction(2) ** (1 - l)
    return product
