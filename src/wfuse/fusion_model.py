"""Exact outcome model of the W-state fusion gate.

Size convention
---------------
Throughout the library a W state is identified by its lower-case size index
``n >= 0``: the state ``w_n`` is the (n+2)-photon W state ``W_{n+2}``, so
``n = 0`` is a Bell pair and ``n = 1`` is the three-photon basic resource.
The index is additive under successful fusion (``w_n + w_m -> w_{n+m}``),
which is why every cost formula below is written in it.  Use
:func:`actual_size` / :func:`index_from_actual` to convert at API boundaries
that speak in photon counts.

A single fusion attempt on ``(w_n, w_m)`` has three outcomes:

* success     -- one state ``w_{n+m}``, probability ``(n+m+2)/((n+2)(m+2))``
* recyclable  -- two states ``w_{n-1}, w_{m-1}``, probability
  ``(n+1)(m+1)/((n+2)(m+2))``
* failure     -- both states destroyed, probability ``1/((n+2)(m+2))``

All probabilities are exact :class:`fractions.Fraction` values, and
:func:`classify_uniform` maps a uniform variate to a branch by exact
comparison.  This module says which branch an attempt takes; what the
branch does to the states is applied in :mod:`wfuse.simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "SUCCESS",
    "RECYCLE",
    "FAILURE",
    "BRANCHES",
    "actual_size",
    "index_from_actual",
    "OutcomeDistribution",
    "outcome_distribution",
    "classify_uniform",
]

SUCCESS = "success"
RECYCLE = "recycle"
FAILURE = "failure"
BRANCHES = (SUCCESS, RECYCLE, FAILURE)


def _check_index(n: int, name: str = "n") -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{name} must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    return n


def actual_size(n: int) -> int:
    """Photon count of ``w_n``, i.e. ``n + 2``."""
    return _check_index(n) + 2


def index_from_actual(photons: int) -> int:
    """Inverse of :func:`actual_size`; requires ``photons >= 2``."""
    if photons < 2:
        raise ValueError(f"a W state has at least 2 photons, got {photons}")
    return photons - 2


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact branch probabilities of one fusion attempt."""

    p_success: Fraction
    p_recycle: Fraction
    p_failure: Fraction

    def __post_init__(self) -> None:
        total = self.p_success + self.p_recycle + self.p_failure
        if total != 1:
            raise ValueError(f"branch probabilities sum to {total}, not 1")
        for p in (self.p_success, self.p_recycle, self.p_failure):
            if not 0 <= p <= 1:
                raise ValueError(f"branch probability {p} outside [0, 1]")

    def cumulative(self) -> tuple[Fraction, Fraction]:
        """Thresholds (p_s, p_s + p_r) used by the sampling contract."""
        return self.p_success, self.p_success + self.p_recycle


def outcome_distribution(n: int, m: int) -> OutcomeDistribution:
    """Exact (P_s, P_r, P_f) for fusing ``w_n`` with ``w_m``."""
    _check_index(n, "n")
    _check_index(m, "m")
    denom = (n + 2) * (m + 2)
    return OutcomeDistribution(
        p_success=Fraction(n + m + 2, denom),
        p_recycle=Fraction((n + 1) * (m + 1), denom),
        p_failure=Fraction(1, denom),
    )


def classify_uniform(n: int, m: int, u) -> str:
    """Map one uniform variate ``u`` in [0, 1) to a branch tag.

    The comparison order is fixed: ``u < P_s`` is success,
    ``P_s <= u < P_s + P_r`` is recyclable, the rest is failure.  The
    comparison is exact: ``u`` is converted to an integer ratio, so a float
    is classified by its precise dyadic value and never by a rounded
    threshold.  This ordering is part of the reproducibility contract.
    """
    _check_index(n, "n")
    _check_index(m, "m")
    num, den = u.as_integer_ratio()
    if num < 0 or num >= den:
        raise ValueError(f"uniform variate {u} outside [0, 1)")
    denom = (n + 2) * (m + 2)
    lhs = num * denom
    s = n + m + 2
    if lhs < s * den:
        return SUCCESS
    if lhs < (s + (n + 1) * (m + 1)) * den:
        return RECYCLE
    return FAILURE

