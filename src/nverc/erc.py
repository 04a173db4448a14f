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
            = e^{-i obar t} P_v+ + e^{i obar t} P_v- + P_D,   v+- = (|+> +- |B_a>)/sqrt 2

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

U(t, a) is evaluated in its spectral form, G applied to every eigenvector
(``_spectrum``), over whole arrays of durations at once.  This module holds
the closed forms only; pulse programs run in ``nverc.prop``, whose analytic
method takes their spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ham import dressing_matrix, require_resonant
from .pulses import DQRotation, PulseSegment, PulseSequence, RotationAxis
from .spin import KET_0, KET_MINUS, KET_PLUS, StateVector3, SystemParams, Unitary3, _phi_amps

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
    """Bright/dark pair G|B_a> = (v_+ - v_-)/sqrt 2, G|D_a> of the (effective)
    Raman problem at drive phase alpha, from ``_spectrum``'s columns; for a
    plain system (G = 1) the dark state is annihilated by H_rwa."""
    v = _spectrum(p, alpha)[1]
    return StateVector3((v[:, 0] - v[:, 2]) * math.sqrt(0.5)), StateVector3(v[:, 1])


def _spectrum(p: SystemParams, alpha):
    """Eigenvalues w = (obar, 0, -obar) of H_rwa(p) and eigenvectors v, shape
    ``alpha.shape + (3, 3)``, at a scalar or array of drive phases a: the
    columns G v_+, G|D_a>, G v_-, v_+- = (|+> +- |B_a>)/sqrt 2, for
    |B_a> = (muB |-> + e^{-i a} (omega/2) |0>) / obar and
    |D_a> = (-muB |0> + e^{i a} (omega/2) |->) / obar (effective muB, omega).
    Checks and dressing run once per call."""
    require_resonant(p)
    p.require_regime()
    mu, om = p.muB_eff(), p.omega_eff()
    obar = math.sqrt(mu * mu + om * om / 4.0)
    if obar == 0.0:
        raise ValueError("bright/dark states undefined for muB = omega = 0")
    e = np.exp(-1j * np.asarray(alpha, dtype=float))[..., None] * (om / 2.0)
    b, d = (mu * KET_MINUS + e * KET_0) / obar, (-mu * KET_0 + e.conj() * KET_MINUS) / obar
    v = np.stack([(KET_PLUS + b) * math.sqrt(0.5), d, (KET_PLUS - b) * math.sqrt(0.5)], axis=-1)
    return np.array([obar, 0.0, -obar]), v if p.is_plain() else dressing_matrix(p) @ v


def _evolved(w, v, t) -> np.ndarray:
    """v e^{-i w t} v^dagger at an array of durations t, shape ``t.shape + (3, 3)``,
    as one (3 t.size, 3) product: as fast as matrix-vector, unlike 3x3 ones."""
    u = (v * np.exp(-1j * w * t[..., None])[..., None, :]).reshape(-1, 3) @ v.conj().T
    return u.reshape(t.shape + (3, 3))


def _erc_matrix(p: SystemParams, t, alpha: float) -> np.ndarray:
    """U(t, alpha) of one constant segment for a scalar or array of
    durations t >= 0, shape ``t.shape + (3, 3)``, from one ``_spectrum``."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("segment duration must be non-negative")
    return _evolved(*_spectrum(p, alpha), t)


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
    frame ``p.interaction_frame``, in spectral form; dressed systems
    through their dressed eigenvectors.
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
