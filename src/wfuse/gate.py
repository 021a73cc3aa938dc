"""Amplitude-level simulation of the polarization fusion gate.

This module checks the gate itself, independently of the cost model.  It
works on explicit sparse state vectors over H/V polarization labels: a
label string holds one character per photon, and a W state of N photons is
the equal-amplitude superposition of the N weight-one labels.

The gate takes one photon from each input state.  The photon taken from
the second state passes a half-wave plate that swaps H and V; both photons
then meet a polarizing beam splitter (V reflects, H transmits) and the two
output ports are measured in the diagonal basis ``|D>, |Dbar> =
(|H> +/- |V>)/sqrt(2)`` by detectors D1 (port 3) and D2 (port 4).  The
combined routing, per input branch of the two consumed photons:

* ``H,H`` -> both photons exit in port 4: only D2 fires (recyclable);
* ``V,V`` -> both photons exit in port 3: only D1 fires (failure);
* ``H,V`` -> one H photon in each port (coincidence);
* ``V,H`` -> one V photon in each port (coincidence).

A coincidence projects the survivors onto a merged W state; the mixed
detector patterns ``(D, Dbar)`` and ``(Dbar, D)`` produce it with a
relative minus sign that a pi-phase shift on one side removes.  All
comparisons use double precision with a 1e-12 tolerance, generous because
the amplitude maps here never exceed a few dozen entries.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Dict, Optional, Tuple

__all__ = [
    "TOLERANCE",
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

TOLERANCE = 1e-12
_PRUNE = 1e-15

# Detector breakdown keys: which detectors fired, and the D/Dbar results
# for coincidences (D1 result first).
D1_ONLY = "d1_only"
D2_ONLY = "d2_only"
COINCIDENCE_PATTERNS = ("dd", "dbar_dbar", "d_dbar", "dbar_d")


class SparseState:
    """Normalized sparse amplitude map over fixed-length H/V labels."""

    __slots__ = ("_amps", "_photons")

    def __init__(self, amplitudes: Dict[str, complex]):
        cleaned = {}
        length = None
        for label, amp in amplitudes.items():
            if length is None:
                length = len(label)
            elif len(label) != length:
                raise ValueError(
                    f"label {label!r} has length {len(label)}, expected {length}"
                )
            if any(ch not in "HV" for ch in label):
                raise ValueError(f"label {label!r} contains symbols outside H/V")
            amp = complex(amp)
            if abs(amp) > _PRUNE:
                cleaned[label] = amp
        if not cleaned:
            raise ValueError("state has no nonzero amplitudes")
        norm2 = sum(abs(amp) ** 2 for amp in cleaned.values())
        if abs(norm2 - 1.0) > TOLERANCE:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm2}")
        self._amps = cleaned
        self._photons = length

    @property
    def num_photons(self) -> int:
        return self._photons

    @property
    def amplitudes(self) -> Dict[str, complex]:
        return dict(self._amps)

    def amplitude(self, label: str) -> complex:
        return self._amps.get(label, 0j)

    def inner(self, other: "SparseState") -> complex:
        """Overlap <self|other>; requires equal photon counts."""
        if self._photons != other._photons:
            raise ValueError(
                f"photon counts differ: {self._photons} vs {other._photons}"
            )
        return sum(
            (amp.conjugate() * other._amps[label]
             for label, amp in self._amps.items()
             if label in other._amps),
            start=0j,
        )

    def __repr__(self) -> str:
        return f"SparseState({self._photons} photons, {len(self._amps)} terms)"


def fidelity(x: SparseState, y: SparseState) -> float:
    """Squared overlap |<x|y>|^2 in [0, 1]."""
    return abs(x.inner(y)) ** 2


def _w_amplitudes(photons: int) -> Dict[str, complex]:
    amp = 1.0 / math.sqrt(photons)
    return {
        "H" * i + "V" + "H" * (photons - 1 - i): complex(amp)
        for i in range(photons)
    }


def _w_state(photons: int) -> SparseState:
    return SparseState(_w_amplitudes(photons))


def make_w_state(photons: int) -> SparseState:
    """The N-photon W state: 1/sqrt(N) times every weight-one label."""
    if photons < 2:
        raise ValueError(f"a W state has at least 2 photons, got {photons}")
    return _w_state(photons)


def _norm2(amps: Dict[str, complex]) -> float:
    return sum(abs(a) ** 2 for a in amps.values())


def _normalized(amps: Dict[str, complex]) -> Optional[SparseState]:
    norm2 = _norm2(amps)
    if norm2 <= _PRUNE:
        return None
    scale = 1.0 / math.sqrt(norm2)
    return SparseState({label: amp * scale for label, amp in amps.items()})


def _split_on_photon(
    state: SparseState, index: int
) -> Tuple[Dict[str, complex], Dict[str, complex]]:
    """Components with the given photon H resp. V, that photon removed."""
    h_part: Dict[str, complex] = {}
    v_part: Dict[str, complex] = {}
    for label, amp in state.amplitudes.items():
        rest = label[:index] + label[index + 1 :]
        if label[index] == "H":
            h_part[rest] = h_part.get(rest, 0j) + amp
        else:
            v_part[rest] = v_part.get(rest, 0j) + amp
    return h_part, v_part


def _tensor(
    left: Dict[str, complex], right: Dict[str, complex]
) -> Dict[str, complex]:
    return {
        la + lb: aa * ab
        for la, aa in left.items()
        for lb, ab in right.items()
    }


def _combine(
    x: Dict[str, complex], y: Dict[str, complex], sign: float
) -> Dict[str, complex]:
    out = dict(x)
    for label, amp in y.items():
        out[label] = out.get(label, 0j) + sign * amp
    return {label: amp for label, amp in out.items() if abs(amp) > _PRUNE}


class GateReport(
    namedtuple(
        "GateReport",
        "p_success p_recycle p_failure post_success_state post_recycle_states"
        " post_failure_state detector_breakdown pattern_states",
    )
):
    """Everything one fusion-gate application reveals.

    ``detector_breakdown`` maps detector patterns to probabilities and
    ``pattern_states`` to the corresponding raw post-measurement states.
    The mixed coincidence patterns are stored *before* the corrective
    pi-phase, so their states carry the relative minus sign;
    ``post_success_state`` is the sign-corrected merged state.  Note the
    physical detectors only reveal D/Dbar results, not which input branch
    caused a coincidence; the per-branch states here are simulator
    introspection.  The ``post_*`` states are None for a branch of
    probability zero.
    """

    __slots__ = ()


def fuse(
    a: SparseState,
    b: SparseState,
    qubit_a: Optional[int] = None,
    qubit_b: Optional[int] = None,
) -> GateReport:
    """Apply the fusion gate to one photon of ``a`` and one of ``b``.

    ``qubit_a`` / ``qubit_b`` pick the consumed photons (default: the last
    photon of each state).  Surviving photons keep their order, survivors
    of ``a`` first, then survivors of ``b``.

    The joint input is decomposed over the four polarization branches of
    the consumed pair.  The V,V branch fires D1 alone (failure: for W
    inputs both V photons are gone, leaving an all-H product state).  The
    H,H branch fires D2 alone (recyclable: each input, conditioned on its
    consumed photon being H, shrinks by one photon; W inputs shrink to
    one-size-smaller W states, returned separately renormalized).  The H,V
    and V,H branches land one photon in each port; measuring both ports in
    the D/Dbar basis splits them evenly over the four coincidence
    patterns, with equal patterns carrying the symmetric survivor
    combination and mixed patterns the antisymmetric one.
    """
    if a is b:
        raise ValueError("cannot fuse a state with itself")
    qa = a.num_photons - 1 if qubit_a is None else qubit_a
    qb = b.num_photons - 1 if qubit_b is None else qubit_b
    if not 0 <= qa < a.num_photons:
        raise IndexError(f"qubit_a {qa} out of range for {a.num_photons} photons")
    if not 0 <= qb < b.num_photons:
        raise IndexError(f"qubit_b {qb} out of range for {b.num_photons} photons")

    a_h, a_v = _split_on_photon(a, qa)
    b_h, b_v = _split_on_photon(b, qb)

    hh = _tensor(a_h, b_h)
    vv = _tensor(a_v, b_v)
    hv = _tensor(a_h, b_v)
    vh = _tensor(a_v, b_h)

    p_failure = _norm2(vv)
    p_recycle = _norm2(hh)
    p_success = _norm2(hv) + _norm2(vh)

    # |H>_3|H>_4 spreads evenly over all four D/Dbar patterns;
    # |V>_3|V>_4 does too but with a minus sign on the mixed ones.
    symmetric = _combine(hv, vh, +1.0)
    antisymmetric = _combine(hv, vh, -1.0)
    quarter_sym = _norm2(symmetric) / 4.0
    quarter_anti = _norm2(antisymmetric) / 4.0

    breakdown = {
        D1_ONLY: p_failure,
        D2_ONLY: p_recycle,
        "dd": quarter_sym,
        "dbar_dbar": quarter_sym,
        "d_dbar": quarter_anti,
        "dbar_d": quarter_anti,
    }
    sym_state = _normalized(symmetric)
    anti_state = _normalized(antisymmetric)
    pattern_states = {
        D1_ONLY: _normalized(vv),
        D2_ONLY: _normalized(hh),
        "dd": sym_state,
        "dbar_dbar": sym_state,
        "d_dbar": anti_state,
        "dbar_d": anti_state,
    }

    left = _normalized(a_h)
    right = _normalized(b_h)
    recycle_states = (left, right) if left is not None and right is not None else None

    return GateReport(
        p_success=p_success,
        p_recycle=p_recycle,
        p_failure=p_failure,
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

    ``analytic`` (exact), ``simulated`` and ``fidelities`` map each branch
    name to its value.
    """

    __slots__ = ()


def verify_probabilities(n_photons: int, m_photons: int) -> GateCheck:
    """Fuse fresh W states of the given sizes and compare with closed forms.

    Expected branch probabilities for actual sizes (N, M): success
    ``(N+M-2)/NM``, recyclable ``(N-1)(M-1)/NM``, failure ``1/NM``.  The
    fidelity entries check the post-measurement states: the merged state
    against ``W_{N+M-2}``, each recycled part against the one-smaller W
    state, and the failure remainder against the all-H product.
    """
    if n_photons < 2 or m_photons < 2:
        raise ValueError("W states need at least 2 photons")
    report = fuse(make_w_state(n_photons), make_w_state(m_photons))
    denom = n_photons * m_photons
    analytic = {
        "success": Fraction(n_photons + m_photons - 2, denom),
        "recycle": Fraction((n_photons - 1) * (m_photons - 1), denom),
        "failure": Fraction(1, denom),
    }
    simulated = {
        "success": report.p_success,
        "recycle": report.p_recycle,
        "failure": report.p_failure,
    }
    merged = _w_state(n_photons + m_photons - 2)
    left, right = report.post_recycle_states
    survivors = "H" * (n_photons + m_photons - 2)
    fidelities = {
        "success": fidelity(report.post_success_state, merged),
        "recycle": min(
            fidelity(left, _w_state(n_photons - 1)),
            fidelity(right, _w_state(m_photons - 1)),
        ),
        "failure": fidelity(report.post_failure_state, SparseState({survivors: 1.0})),
    }
    max_abs_error = max(
        abs(float(analytic[branch]) - simulated[branch]) for branch in analytic
    )
    return GateCheck(
        n_photons=n_photons,
        m_photons=m_photons,
        analytic=analytic,
        simulated=simulated,
        fidelities=fidelities,
        max_abs_error=max_abs_error,
    )


def check_decomposition(total: int, split: int) -> bool:
    """Check the W-state splitting identity used by the coincidence branch.

    Compares amplitudes of ``sqrt(k) |W_k>`` against
    ``sqrt(i) |W_i>|(k-i)_H> + sqrt(k-i) |i_H>|W_{k-i}>`` for ``k = total``
    and ``i = split``; at the boundaries one factor degenerates to the
    single V photon.  Returns True when every amplitude matches within
    1e-12.
    """
    if total < 2:
        raise ValueError(f"need a splittable state, got {total} photons")
    if not 1 <= split <= total - 1:
        raise ValueError(f"split {split} out of range 1..{total - 1}")
    lhs = {
        label: amp * math.sqrt(total)
        for label, amp in _w_amplitudes(total).items()
    }
    left = {
        label: amp * math.sqrt(split)
        for label, amp in _w_amplitudes(split).items()
    }
    right = {
        label: amp * math.sqrt(total - split)
        for label, amp in _w_amplitudes(total - split).items()
    }
    rhs = _combine(
        _tensor(left, {"H" * (total - split): 1.0 + 0j}),
        _tensor({"H" * split: 1.0 + 0j}, right),
        +1.0,
    )
    labels = set(lhs) | set(rhs)
    return all(
        abs(lhs.get(label, 0j) - rhs.get(label, 0j)) <= TOLERANCE
        for label in labels
    )
