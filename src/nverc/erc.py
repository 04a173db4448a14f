"""Closed-form solution of the resonant effective-Raman drive and the
two-pulse rotation gates built from it.

Characteristic quantities (muB and omega taken as the effective values for
dressed systems):

    obar    = sqrt(muB^2 + omega^2/4)       generalized Rabi frequency
    T_total = 2 pi / obar                   full Rabi period (identity gate)
    T_prime = arccos(-4 muB^2/omega^2)/obar ground-state depletion time
    T_second= T_total - T_prime
    phi     = arccos(2 muB / omega)

The evolution operator for one constant segment is

    U(t, a) = cos(obar t)(P_B + P_+) - i sin(obar t)(|B_a><+| + |+><B_a|) + P_D

and at the two characteristic times it reduces to pure basis exchanges.
Writing |lam> for the half-angle equatorial family ``phi_state(lam)``:

    U(T', a)  = e^{ia} |2phi><0| + e^{-ia} |0><-2phi| - |pi+2phi><pi-2phi|
    U(T'', a) = e^{ia} |-2phi><0| + e^{-ia} |0><2phi| - |pi-2phi><pi+2phi|

Note the doubled labels: the state reached from |0> carries full-angle
exponents e^{+-i phi}, i.e. it is ``phi_state(2 phi)``.  Chaining the two
pulses with a phase step theta gives rotations about two fixed equatorial
axes whose Bloch-vector separation is 4 phi:

    R(-phi, theta) = U(T'', a+theta) U(T', a)
                   = e^{-i theta}|0><0| + e^{i theta}|-2phi><-2phi|
                     + |pi-2phi><pi-2phi|

and R(+phi, theta) is the reversed-order analogue.  Both are exactly
independent of the base phase ``a``.

U(t, a) is evaluated over whole arrays of durations at once.  This module
holds the closed forms only; pulse programs run in ``nverc.prop``, whose
analytic method evaluates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ham import bright_dark_vectors, dressing_matrix, require_resonant
from .pulses import DQRotation, PulseSegment, PulseSequence, RotationAxis
from .spin import KET_0, KET_PLUS, StateVector3, SystemParams, Unitary3, _phi_amps

__all__ = [
    "ErcQuantities",
    "characteristic_quantities",
    "bright_dark",
    "erc_unitary",
    "closed_form_unitary",
    "dq_rotation",
    "not_gate_sequence",
]


@dataclass(frozen=True)
class ErcQuantities:
    """Derived pulse-timing quantities of one resonant drive setting."""

    omega_bar: float
    T_total: float
    T_prime: float
    T_second: float
    phi: float


def characteristic_quantities(p: SystemParams) -> ErcQuantities:
    """Compute (obar, T_total, T_prime, T_second, phi) for a resonant system.

    Raises :class:`ResonanceError` for an uncompensated transverse field and
    :class:`RegimeError` below the omega_eff >= 2 muB_eff threshold.
    """
    if p.omega_eff() == 0.0:
        raise ValueError("drive amplitude must be nonzero")
    # resonance first: the closed forms need the reduced Raman form
    require_resonant(p)
    p.require_regime()
    mu = p.muB_eff()
    om = p.omega_eff()
    obar = math.sqrt(mu * mu + om * om / 4.0)
    t_total = 2.0 * math.pi / obar
    # regime check guarantees the argument lies in [-1, 0]
    t_prime = math.acos(max(-1.0, -4.0 * mu * mu / (om * om))) / obar
    return ErcQuantities(
        omega_bar=obar,
        T_total=t_total,
        T_prime=t_prime,
        T_second=t_total - t_prime,
        phi=math.acos(min(1.0, 2.0 * mu / om)),
    )


def bright_dark(p: SystemParams, alpha: float) -> tuple[StateVector3, StateVector3]:
    """Bright/dark pair of the (effective) Raman problem at drive phase alpha.

    For a plain system the dark state is annihilated by the rotating-wave
    Hamiltonian; dressed systems get the corresponding dressed pair.
    """
    require_resonant(p)
    p.require_regime()
    b, d = bright_dark_vectors(p.muB_eff(), p.omega_eff(), alpha)
    if not p.is_plain():
        g = dressing_matrix(p)
        b, d = g @ b, g @ d
    return StateVector3(b), StateVector3(d)


def _erc_matrix(p: SystemParams, t, alpha: float) -> np.ndarray:
    """U(t, alpha) of one constant segment for a scalar or array of
    durations t >= 0, shape ``t.shape + (3, 3)``; checks and dressing run
    once per call, not once per duration."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("segment duration must be non-negative")
    require_resonant(p)
    p.require_regime()
    mu, om = p.muB_eff(), p.omega_eff()
    obar = math.sqrt(mu * mu + om * om / 4.0)
    b, d = bright_dark_vectors(mu, om, alpha)
    pbp = np.outer(b, b.conj()) + np.outer(KET_PLUS, KET_PLUS.conj())
    x = np.outer(b, KET_PLUS.conj()) + np.outer(KET_PLUS, b.conj())
    c = np.cos(obar * t)[..., None, None]
    s = np.sin(obar * t)[..., None, None]
    return _dressed(p, c * pbp - 1j * s * x + np.outer(d, d.conj()))


def _dressed(p: SystemParams, u: np.ndarray) -> np.ndarray:
    """``u`` for a plain system, G u G^dagger with the dressing matrix G
    otherwise."""
    if p.is_plain():
        return u
    g = dressing_matrix(p)
    return g @ u @ g.conj().T


def erc_unitary(p: SystemParams, t: float, alpha: float) -> Unitary3:
    """Evolution operator of one constant drive segment, any duration t >= 0.

    Exact solution of the rotating-wave Hamiltonian in the interaction
    frame ``p.interaction_frame``; dressed systems are handled by
    conjugating the plain solution.
    """
    return Unitary3(_erc_matrix(p, t, alpha), p.interaction_frame)


def closed_form_unitary(p: SystemParams, which: str, alpha: float) -> Unitary3:
    """Basis-exchange form of the depletion-time pulses.

    ``which`` is ``"Tprime"`` or ``"Tsecond"``; the result equals
    :func:`erc_unitary` evaluated at the corresponding characteristic time.
    """
    signs = {"Tprime": 1.0, "Tsecond": -1.0}  # T'' is T' with lam -> -lam
    if which not in signs:
        raise ValueError(f"which must be 'Tprime' or 'Tsecond', got {which!r}")
    lam = signs[which] * 2.0 * characteristic_quantities(p).phi
    ea = np.exp(1j * alpha)
    u = (
        ea * np.outer(_phi_amps(lam), KET_0.conj())
        + ea.conjugate() * np.outer(KET_0, _phi_amps(-lam).conj())
        - np.outer(_phi_amps(math.pi + lam), _phi_amps(math.pi - lam).conj())
    )
    return Unitary3(_dressed(p, u), p.interaction_frame)


def _dq_rotations(p: SystemParams, axes, thetas, alpha: float = 0.0):
    """The rotations R(axes[k], thetas[k]) as one stack (L, 3, 3),
    u_k = e^{-i theta_k} P_0 + e^{i theta_k} P_a + P_o (P_o: the axis
    state's orthogonal partner), dressed once, and their 2L segments at
    base phases alpha and alpha + theta_k; checks and projectors run once."""
    q = characteristic_quantities(p)
    lam = 2.0 * q.phi
    parts = {}  # per axis: P_a, P_o and the two pulse durations
    for axis, sign, durations in ((RotationAxis.MINUS_PHI, -1.0, (q.T_prime, q.T_second)),
                                  (RotationAxis.PLUS_PHI, 1.0, (q.T_second, q.T_prime))):
        a, o = _phi_amps(sign * lam), _phi_amps(math.pi + sign * lam)
        parts[axis] = np.outer(a, a.conj()), np.outer(o, o.conj()), durations
    pa, po = (np.array([parts[ax][i] for ax in axes]).reshape(-1, 3, 3) for i in (0, 1))
    th = np.asarray(thetas, dtype=float).reshape(-1, 1, 1)
    u = np.exp(-1j * th) * np.outer(KET_0, KET_0.conj()) + np.exp(1j * th) * pa + po
    segments = [PulseSegment(t, phase, p.omega_x, p.omega_y)
                for ax, theta in zip(axes, th.ravel().tolist())
                for t, phase in zip(parts[ax][2], (alpha, alpha + theta))]
    return _dressed(p, u), segments


def dq_rotation(
    p: SystemParams, r: DQRotation, alpha: float = 0.0
) -> tuple[Unitary3, PulseSequence]:
    """Two-pulse rotation gate on the DQ Bloch sphere.

    Returns the exact unitary (spectral form) and the two-segment pulse
    program realizing it; the total program duration is exactly T_total.
    The unitary does not depend on the base phase ``alpha``, only the
    sequence does.
    """
    u, segments = _dq_rotations(p, [r.axis], [r.theta], alpha)
    return Unitary3(u[0], p.interaction_frame), PulseSequence(segments)


def not_gate_sequence(p: SystemParams, alpha: float = 0.0) -> PulseSequence:
    """The theta = pi two-pulse program swapping the |+1> and |-1> populations."""
    return PulseSequence(_dq_rotations(p, [RotationAxis.MINUS_PHI], [math.pi], alpha)[1])
