"""Exact outcome model of the W-state fusion gate.

Size convention
---------------
Throughout the library a W state is identified by its lower-case size index
``n >= 0``: the state ``w_n`` is the (n+2)-photon W state ``W_{n+2}``, so
``n = 0`` is a Bell pair and ``n = 1`` is the three-photon basic resource.
The index is additive under successful fusion (``w_n + w_m -> w_{n+m}``),
which is why every cost formula below is written in it.

A single fusion attempt on ``(w_n, w_m)`` has three outcomes:

* success     -- one state ``w_{n+m}``, probability ``(n+m+2)/((n+2)(m+2))``
* recyclable  -- two states ``w_{n-1}, w_{m-1}``, probability
  ``(n+1)(m+1)/((n+2)(m+2))``
* failure     -- both states destroyed, probability ``1/((n+2)(m+2))``

This module is the only place in the library that states this law:
:func:`outcome_weights` gives its integer weights, and the other three
public forms are built on it.  :func:`outcome_distribution` gives the
probabilities as exact :class:`fractions.Fraction` values,
:func:`classify_uniform` maps a uniform variate to a branch by exact
comparison, and :func:`threshold53` gives its branch edges for 53-bit
draws.  The Monte Carlo kernel compares its draws with those edges, and
the gate verifier in :mod:`wfuse.gate` compares the gate's amplitudes with
the weights.  This module says which branch an attempt takes; what the
branch does to the states is applied in :mod:`wfuse.simulate`.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "SUCCESS",
    "RECYCLE",
    "FAILURE",
    "BRANCHES",
    "OutcomeDistribution",
    "outcome_weights",
    "outcome_distribution",
    "classify_uniform",
    "threshold53",
]

SUCCESS = "success"
RECYCLE = "recycle"
FAILURE = "failure"
BRANCHES = (SUCCESS, RECYCLE, FAILURE)


def _check_index(n: int, name: str) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{name} must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")


def outcome_weights(n: int, m: int) -> tuple[int, int, int]:
    """The law itself: integer weights ``(success, recyclable, total)`` for
    fusing ``w_n`` with ``w_m``; failure has weight 1, the rest of the
    total."""
    _check_index(n, "n")
    _check_index(m, "m")
    return n + m + 2, (n + 1) * (m + 1), (n + 2) * (m + 2)


class OutcomeDistribution(
    namedtuple("OutcomeDistribution", "p_success p_recycle p_failure")
):
    """Exact branch probabilities of one fusion attempt."""

    __slots__ = ()

    def __new__(cls, p_success, p_recycle, p_failure):
        total = p_success + p_recycle + p_failure
        if total != 1:
            raise ValueError(f"branch probabilities sum to {total}, not 1")
        for p in (p_success, p_recycle, p_failure):
            if not 0 <= p <= 1:
                raise ValueError(f"branch probability {p} outside [0, 1]")
        return super().__new__(cls, p_success, p_recycle, p_failure)


def outcome_distribution(n: int, m: int) -> OutcomeDistribution:
    """Exact (P_s, P_r, P_f) for fusing ``w_n`` with ``w_m``."""
    from fractions import Fraction  # only here: the Monte Carlo kernel uses integer edges

    s, r, denom = outcome_weights(n, m)
    return OutcomeDistribution(Fraction(s, denom), Fraction(r, denom), Fraction(1, denom))


def classify_uniform(n: int, m: int, u) -> str:
    """Map one uniform variate ``u`` in [0, 1) to a branch tag.

    The comparison order is fixed: ``u < P_s`` is success,
    ``P_s <= u < P_s + P_r`` is recyclable, the rest is failure.  The
    comparison is exact: ``u`` is converted to an integer ratio, so a float
    is classified by its precise dyadic value and never by a rounded
    threshold.  This ordering is part of the reproducibility contract.
    """
    s, r, denom = outcome_weights(n, m)
    num, den = u.as_integer_ratio()
    if num < 0 or num >= den:
        raise ValueError(f"uniform variate {u} outside [0, 1)")
    lhs = num * denom
    if lhs < s * den:
        return SUCCESS
    if lhs < (s + r) * den:
        return RECYCLE
    return FAILURE


def threshold53(n: int, m: int) -> tuple[int, int]:
    """The branch edges of a 53-bit draw ``d`` fusing ``w_n`` with ``w_m``.

    Returns ``(ceil(P_s * 2**53), ceil((P_s + P_r) * 2**53))``: exactly as
    :func:`classify_uniform` classifies ``d * 2**-53``, ``d`` is a success
    below the first edge, recyclable below the second and a failure from
    there on.
    """
    s, r, denom = outcome_weights(n, m)
    return -(-(s << 53) // denom), -(-((s + r) << 53) // denom)
