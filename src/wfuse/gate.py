"""Amplitude-level simulation of the polarization fusion gate.

This module checks the gate itself, independently of the cost model.  It
works on explicit sparse state vectors over H/V polarization labels: a
label string holds one character per photon, and a W state of N photons is
the equal-amplitude superposition of the N weight-one labels.

The gate takes one photon from each input state, here always the last: a W
state is symmetric under photon exchange, so the choice cannot matter.  The
photon taken from the second state passes a half-wave plate that swaps H
and V; both photons then meet a polarizing beam splitter (V reflects, H
transmits) and the two output ports are measured in the diagonal basis
``|D>, |Dbar> = (|H> +/- |V>)/sqrt(2)`` by detectors D1 (port 3) and D2
(port 4).  The combined routing, per input branch of the two consumed photons:

* ``H,H`` -> both photons exit in port 4: only D2 fires (recyclable);
* ``V,V`` -> both photons exit in port 3: only D1 fires (failure);
* ``H,V`` -> one H photon in each port (coincidence);
* ``V,H`` -> one V photon in each port (coincidence).

A coincidence projects the survivors onto a merged W state; the mixed
detector patterns ``(D, Dbar)`` and ``(Dbar, D)`` produce it with a
relative minus sign that a pi-phase shift on one side removes.

Everything is exact.  A state holds rational amplitudes up to
normalization (a W state puts amplitude 1 on each weight-one label), and
every map the gate applies has integer coefficients, so each branch keeps
integer amplitudes for W inputs.  Probabilities and fidelities are ratios
of squared norms and squared overlaps, returned as ``Fraction`` values, and
no value is ever normalized by a square root.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .fusion_model import BRANCHES, outcome_distribution

# The functions that need them import Fraction and Rational themselves, so
# that a process that builds no rational, such as `wfuse simulate`, never
# loads fractions, decimal and numbers.
if TYPE_CHECKING:
    from fractions import Fraction
    from numbers import Rational

__all__ = [
    "SparseState",
    "GateReport",
    "GateCheck",
    "make_w_state",
    "fuse",
    "fidelity",
    "verify_probabilities",
    "check_decomposition",
    "COINCIDENCE_PATTERNS",
]

# Detector breakdown keys: which detectors fired, and the D/Dbar results
# for coincidences (D1 result first).
D1_ONLY = "d1_only"
D2_ONLY = "d2_only"
COINCIDENCE_PATTERNS = ("dd", "dbar_dbar", "d_dbar", "dbar_d")

Amplitudes = Dict[str, "Rational"]


class SparseState:
    """Sparse real amplitude map over fixed-length H/V labels.

    The amplitudes are exact (ints or ``Fraction`` values) and need not be
    normalized: the state is the ray they span, and the squared norm is
    cached.  Exact zeros are dropped.
    """

    __slots__ = ("_amps", "_photons", "_norm2")

    def __init__(self, amplitudes: Amplitudes):
        from numbers import Rational

        cleaned = {}
        length = None
        for label, amp in amplitudes.items():
            if length is None:
                length = len(label)
            elif len(label) != length:
                raise ValueError(
                    f"label {label!r} has length {len(label)}, expected {length}"
                )
            if label.strip("HV"):
                raise ValueError(f"label {label!r} contains symbols outside H/V")
            if not isinstance(amp, Rational):
                raise TypeError(
                    f"amplitude of {label!r} is not an int or Fraction: {amp!r}"
                )
            if amp:
                cleaned[label] = amp
        if not cleaned:
            raise ValueError("state has no nonzero amplitudes")
        self._amps = cleaned
        self._photons = length
        self._norm2 = _norm2(cleaned)

    @property
    def num_photons(self) -> int:
        return self._photons

    def __eq__(self, other) -> bool:
        # Equal nonempty maps share their labels, hence their photon count.
        if not isinstance(other, SparseState):
            return NotImplemented
        return self._amps == other._amps

    def __repr__(self) -> str:
        return f"SparseState({self._photons} photons, {len(self._amps)} terms)"


def fidelity(x: SparseState, y: SparseState) -> Fraction:
    """Squared overlap ``<x|y>^2 / (|x|^2 |y|^2)``, exactly, in [0, 1]."""
    from fractions import Fraction

    if x._photons != y._photons:
        raise ValueError(f"photon counts differ: {x._photons} vs {y._photons}")
    overlap = sum(
        amp * y._amps[label] for label, amp in x._amps.items() if label in y._amps
    )
    return Fraction(overlap * overlap, x._norm2 * y._norm2)


def _w_amplitudes(photons: int) -> Amplitudes:
    """``sqrt(photons) |W_photons>``: amplitude 1 on every weight-one label."""
    return {"H" * i + "V" + "H" * (photons - 1 - i): 1 for i in range(photons)}


def make_w_state(photons: int) -> SparseState:
    """The N-photon W state: amplitude 1 on every weight-one label."""
    if photons < 2:
        raise ValueError(f"a W state has at least 2 photons, got {photons}")
    return SparseState(_w_amplitudes(photons))


def _norm2(amps: Amplitudes) -> Rational:
    return sum(amp * amp for amp in amps.values())


def _post_state(amps: Amplitudes) -> Optional[SparseState]:
    """The state ``amps`` spans, or None if every amplitude is zero."""
    return SparseState(amps) if any(amps.values()) else None


def _split_last_photon(state: SparseState) -> Tuple[Amplitudes, Amplitudes]:
    """Components with the last photon H resp. V, that photon removed.

    Labels with the same last photon differ in the rest, so no two terms
    of a component share a label.
    """
    h_part: Amplitudes = {}
    v_part: Amplitudes = {}
    for label, amp in state._amps.items():
        part = h_part if label[-1] == "H" else v_part
        part[label[:-1]] = amp
    return h_part, v_part


def _tensor(left: Amplitudes, right: Amplitudes) -> Amplitudes:
    return {
        la + lb: aa * ab
        for la, aa in left.items()
        for lb, ab in right.items()
    }


def _combine(x: Amplitudes, y: Amplitudes, sign: int) -> Amplitudes:
    out = dict(x)
    for label, amp in y.items():
        out[label] = out.get(label, 0) + sign * amp
    return {label: amp for label, amp in out.items() if amp}


class GateReport(
    namedtuple(
        "GateReport",
        "p_success p_recycle p_failure post_success_state post_recycle_states"
        " post_failure_state detector_breakdown pattern_states",
    )
):
    """Everything one fusion-gate application reveals.

    The probabilities are ``Fraction`` values.  ``detector_breakdown`` maps
    detector patterns to probabilities and ``pattern_states`` to the
    corresponding raw post-measurement states.  The mixed coincidence
    patterns are stored *before* the corrective pi-phase, so their states
    carry the relative minus sign; ``post_success_state`` is the
    sign-corrected merged state.  Note the physical detectors only reveal
    D/Dbar results, not which input branch caused a coincidence; the
    per-branch states here are simulator introspection.  The ``post_*``
    states are None for a branch of probability zero.
    """

    __slots__ = ()


def fuse(a: SparseState, b: SparseState) -> GateReport:
    """Apply the fusion gate to the last photon of ``a`` and of ``b``.

    Surviving photons keep their order, survivors of ``a`` first, then
    survivors of ``b``.  A W state is symmetric under any exchange of its
    photons, so for W inputs the choice of photon cannot matter; a caller
    with another state can permute its labels first, so that the photon to
    consume comes last.  A state without photons raises ``IndexError``.

    The joint input is decomposed over the four polarization branches of
    the consumed pair.  The V,V branch fires D1 alone (failure: for W
    inputs both V photons are gone, leaving an all-H product state).  The
    H,H branch fires D2 alone (recyclable: each input, conditioned on its
    consumed photon being H, shrinks by one photon; W inputs shrink to
    one-size-smaller W states, returned separately).  The H,V and V,H
    branches land one photon in each port; measuring both ports in the
    D/Dbar basis splits them evenly over the four coincidence patterns,
    with equal patterns carrying the symmetric survivor combination and
    mixed patterns the antisymmetric one.  Each pattern projects with
    amplitude 1/2, hence the factor 4 in their probabilities.
    """
    from fractions import Fraction

    if a is b:
        raise ValueError("cannot fuse a state with itself")
    a_h, a_v = _split_last_photon(a)
    b_h, b_v = _split_last_photon(b)

    hh = _tensor(a_h, b_h)
    vv = _tensor(a_v, b_v)
    hv = _tensor(a_h, b_v)
    vh = _tensor(a_v, b_h)
    # |H>_3|H>_4 spreads evenly over all four D/Dbar patterns;
    # |V>_3|V>_4 does too but with a minus sign on the mixed ones.
    symmetric = _combine(hv, vh, +1)
    antisymmetric = _combine(hv, vh, -1)

    norm2 = a._norm2 * b._norm2
    quarter_sym = Fraction(_norm2(symmetric), 4 * norm2)
    quarter_anti = Fraction(_norm2(antisymmetric), 4 * norm2)
    breakdown = {
        D1_ONLY: Fraction(_norm2(vv), norm2),
        D2_ONLY: Fraction(_norm2(hh), norm2),
        "dd": quarter_sym,
        "dbar_dbar": quarter_sym,
        "d_dbar": quarter_anti,
        "dbar_d": quarter_anti,
    }
    sym_state = _post_state(symmetric)
    anti_state = _post_state(antisymmetric)
    pattern_states = {
        D1_ONLY: _post_state(vv),
        D2_ONLY: _post_state(hh),
        "dd": sym_state,
        "dbar_dbar": sym_state,
        "d_dbar": anti_state,
        "dbar_d": anti_state,
    }

    left = _post_state(a_h)
    right = _post_state(b_h)
    recycle_states = (left, right) if left is not None and right is not None else None

    return GateReport(
        p_success=Fraction(_norm2(hv) + _norm2(vh), norm2),
        p_recycle=breakdown[D2_ONLY],
        p_failure=breakdown[D1_ONLY],
        post_success_state=sym_state,
        post_recycle_states=recycle_states,
        post_failure_state=pattern_states[D1_ONLY],
        detector_breakdown=breakdown,
        pattern_states=pattern_states,
    )


class GateCheck(
    namedtuple(
        "GateCheck",
        "n_photons m_photons analytic simulated fidelities max_abs_error",
    )
):
    """Amplitude-simulated branch probabilities against the closed forms.

    ``analytic``, ``simulated`` and ``fidelities`` map each branch name to
    its exact ``Fraction`` value; ``max_abs_error`` is the largest
    ``|simulated - analytic|``.
    """

    __slots__ = ()


def verify_probabilities(n_photons: int, m_photons: int) -> GateCheck:
    """Fuse fresh W states of the given sizes and compare with closed forms.

    The expected branch probabilities for actual sizes (N, M) are those of
    :func:`wfuse.fusion_model.outcome_distribution` for ``w_{N-2}`` and
    ``w_{M-2}``: the gate's amplitudes, computed here on their own, are
    checked against the very law the Monte Carlo simulator samples.  The
    fidelity entries check the post-measurement states: the merged state
    against ``W_{N+M-2}``, each recycled part against the one-smaller W
    state (a single V photon for a Bell pair), and the failure remainder
    against the all-H product.  A size below 2 raises ``ValueError`` from
    :func:`make_w_state`.
    """
    report = fuse(make_w_state(n_photons), make_w_state(m_photons))
    analytic = dict(zip(BRANCHES, outcome_distribution(n_photons - 2, m_photons - 2)))
    simulated = dict(
        zip(BRANCHES, (report.p_success, report.p_recycle, report.p_failure))
    )
    left, right = report.post_recycle_states
    survivors = "H" * (n_photons + m_photons - 2)
    fidelities = {
        "success": fidelity(
            report.post_success_state, make_w_state(n_photons + m_photons - 2)
        ),
        "recycle": min(
            fidelity(left, SparseState(_w_amplitudes(n_photons - 1))),
            fidelity(right, SparseState(_w_amplitudes(m_photons - 1))),
        ),
        "failure": fidelity(report.post_failure_state, SparseState({survivors: 1})),
    }
    return GateCheck(
        n_photons=n_photons,
        m_photons=m_photons,
        analytic=analytic,
        simulated=simulated,
        fidelities=fidelities,
        max_abs_error=max(abs(simulated[b] - analytic[b]) for b in analytic),
    )


def check_decomposition(total: int, split: int) -> bool:
    """Check the W-state splitting identity used by the coincidence branch.

    Compares the integer amplitude maps of ``sqrt(k) |W_k>`` and
    ``sqrt(i) |W_i>|(k-i)_H> + sqrt(k-i) |i_H>|W_{k-i}>`` for ``k = total``
    and ``i = split``; at the boundaries one factor degenerates to the
    single V photon.  Returns True when the maps are equal.
    """
    if total < 2:
        raise ValueError(f"need a splittable state, got {total} photons")
    if not 1 <= split <= total - 1:
        raise ValueError(f"split {split} out of range 1..{total - 1}")
    rhs = _combine(
        _tensor(_w_amplitudes(split), {"H" * (total - split): 1}),
        _tensor({"H" * split: 1}, _w_amplitudes(total - split)),
        +1,
    )
    return _w_amplitudes(total) == rhs
