"""Hamiltonian builders for the driven NV ground-state triplet.

Lab frame (basis (|+1>, |0>, |-1>), angular frequencies):

    H(t) = D Sz^2 + muB Sz
           + omega_x cos(w_c t - alpha) Sx - omega_y cos(w_c t - beta) Sy
           + Ez Sz^2 + Ex (Sx^2 - Sy^2) - Ey (Sx Sy + Sy Sx)

with carrier w_c = D + Ez (the spectroscopically calibrated drive
frequency).  The signs of the y-drive and of the transverse-strain
operators are fixed by requiring that the rotating-wave average of H(t)
reproduces the interaction-picture forms below exactly; with right-handed
spin-1 matrices the naive `+omega_y cos * Sy` / `Ex (Sy^2 - Sx^2)` choices
land on the opposite transverse-axis convention (a 90-degree relabeling of
the in-plane field direction with no physical consequence).

Interaction picture with respect to (D + Ez) Sz^2, after the RWA:

    H_rwa = Ex (P+ - P-)
            + [(muB + i Ey) |-><+| + h.c.]
            + [(omega_x/2) e^{i alpha} |+><0|
               + i (omega_y/2) e^{i beta} |-><0| + h.c.]

which specializes to the plain effective-Raman form when Ex = Ey = 0 and
omega_y = 0, where |B_a> = (muB |-> + e^{-i a} (omega/2) |0>) / obar is the
bright state, the dark state |D_a> is annihilated, and the dynamics is a
Rabi oscillation between |+> and |B_a> at frequency obar.
``hamiltonian_rwa_stack`` is the one builder of H_rwa: it builds a stack of
(system, segment) pairs in one pass, one pair as a one-row stack.

This module also owns the Raman resonance condition

    Ex (omega_x^2 - omega_y^2) + 2 Ey omega_x omega_y = 0      (beta = alpha)

its solution for the drive ratio (``compensation_ratio``) and the check
every closed form runs first (``require_resonant``).  On resonance

    H_rwa(p) = G H_rwa(plain muB_eff, omega_eff) G^dag

with a dressing unitary G (``dressing_matrix``; as a ``Unitary3``,
``dressing_unitary``) that acts only inside the {|+>, |->} doublet: it
leaves |0> untouched, so ground-state populations and depletion times are
those of the plain system.  G is a drive-alignment rotation (angle set by
omega_y / omega_x) followed by a phase on |->, the latter a rotation of the
DQ Bloch sphere about its x axis (``effective_params`` gives its angle and
the plain-system equivalents).

Each field component acts differently (Doherty et al., Phys. Rep. 528, 1,
2013).  Ez only shifts the carrier to D + Ez, which spectroscopy picks up;
it never enters the rotating-wave dynamics.  A transverse-y field dresses
the doublet coupling to sqrt(muB^2 + Ey^2) and shortens the Rabi cycle
accordingly.  A transverse-x field detunes the Raman resonance, which an
orthogonal drive tone restores with

    omega_y / omega_x = Ey/Ex - sign(Ey/Ex) sqrt(Ey^2/Ex^2 + 1),

after which the system reduces to the plain form with
muB -> sqrt(muB^2 + Ex^2 + Ey^2) and omega -> sqrt(omega_x^2 + omega_y^2).
sign(0) is taken as +1, so a pure-x field gets ratio -1 (an opposite-phase
tone of equal amplitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResonanceError
from .pulses import PulseSegment
from .spin import (KET_0, KET_M1, KET_MINUS, KET_P1, KET_PLUS, SX, SY, SZ,
                   SZ2, SystemParams, Unitary3)

__all__ = [
    "hamiltonian_lab",
    "hamiltonian_rwa_stack",
    "static_hamiltonian",
    "lab_drive_operators",
    "residual_detuning",
    "compensation_ratio",
    "require_resonant",
    "dressing_matrix",
    "dressing_unitary",
    "EffectiveParams",
    "effective_params",
]

# relative tolerance of the resonance condition, against its scale
# (|Ex| + |Ey|) (omega_x^2 + omega_y^2)
RESONANCE_RTOL = 1e-9

# transverse strain operators; the (0,2)/(2,0) entries couple |+1> and |-1>
_OP_EX = SX @ SX - SY @ SY                 # == |+1><-1| + |-1><+1|
_OP_EY = -(SX @ SY + SY @ SX)              # == i|+1><-1| - i|-1><+1|
_P_PLUS = np.outer(KET_PLUS, KET_PLUS.conj())
_P_MINUS = np.outer(KET_MINUS, KET_MINUS.conj())
# the drive and dq couplings of H_rwa: |+><0|, |-><0| and |+1><-1|
_DRIVE_X = np.outer(KET_PLUS, KET_0.conj())
_DRIVE_Y = np.outer(KET_MINUS, KET_0.conj())
_DQ = np.outer(KET_P1, KET_M1.conj())
for _a in (_OP_EX, _OP_EY, _P_PLUS, _P_MINUS, _DRIVE_X, _DRIVE_Y, _DQ):
    _a.setflags(write=False)


def static_hamiltonian(p: SystemParams) -> np.ndarray:
    """Lab Hamiltonian with the drive off (the spectroscopy target)."""
    return (
        (p.D + p.Ez) * SZ2
        + p.muB * SZ
        + p.Ex * _OP_EX
        + p.Ey * _OP_EY
    )


def lab_drive_operators(seg: PulseSegment) -> tuple[np.ndarray, np.ndarray]:
    """Constant coupling matrices multiplying the two drive quadratures."""
    return seg.omega_x * SX, -seg.omega_y * SY


def hamiltonian_lab(p: SystemParams, seg: PulseSegment, t: float) -> np.ndarray:
    """Full lab-frame Hamiltonian at (global) time ``t`` during ``seg``.

    Counter-rotating terms are retained; this is the reference model the
    rotating-wave results are benchmarked against.
    """
    wc = p.carrier
    ax, ay = lab_drive_operators(seg)
    return (
        static_hamiltonian(p)
        + math.cos(wc * t - seg.alpha) * ax
        + math.cos(wc * t - seg.beta) * ay
    )


def hamiltonian_rwa_stack(systems, segments) -> np.ndarray:
    """Time-independent rotating-wave Hamiltonians, shape (m, 3, 3), one
    per (system, segment) pair, built in one pass over arrays.

    Each row is the plain Raman form, its transverse-strain extension or the
    two-tone form, as (Ex, Ey, omega_y) are zero or not; a row's bits do not
    depend on the other rows.  Ez never appears: it is absorbed into the
    interaction picture (D + Ez) Sz^2 together with the matching carrier.
    One segment of one system is ``hamiltonian_rwa_stack([p], [seg])[0]``.
    """
    mu, ox, oy, alpha, beta, ex, ey = np.array(
        [(p.muB, s.omega_x, s.omega_y, s.alpha, s.beta, p.Ex, p.Ey)
         for p, s in zip(systems, segments)], dtype=float).reshape(-1, 7).T[..., None, None]
    drive = (ox / 2.0) * np.exp(1j * alpha) * _DRIVE_X
    drive = drive + 1j * (oy / 2.0) * np.exp(1j * beta) * _DRIVE_Y
    dq = 1j * ey * _DQ
    # mu SZ == muB (|-><+| + |+><-|) on the DQ doublet
    h = mu * SZ + (drive + drive.conj().swapaxes(-1, -2)) + ex * (_P_PLUS - _P_MINUS)
    return h + (dq + dq.conj().swapaxes(-1, -2))


def residual_detuning(p: SystemParams) -> float:
    """Left-hand side of the resonance condition (zero when reducible)."""
    return p.Ex * (p.omega_x**2 - p.omega_y**2) + 2.0 * p.Ey * p.omega_x * p.omega_y


def compensation_ratio(Ex: float, Ey: float) -> float:
    """Drive-amplitude ratio omega_y/omega_x restoring the Raman resonance."""
    if Ex == 0.0:
        raise DomainError("Ex = 0 needs no compensation; use the single-tone path")
    q = Ey / Ex
    sign = 1.0 if q >= 0.0 else -1.0
    return q - sign * math.sqrt(q * q + 1.0)


def require_resonant(p: SystemParams) -> None:
    """Raise :class:`ResonanceError` unless the drive restores (or never
    broke) the Raman resonance, to ``RESONANCE_RTOL`` of its scale.

    The message gives the residual detuning and, with Ex and omega_x
    nonzero, the omega_y/omega_x that restores the resonance.
    """
    residual = residual_detuning(p)
    scale = (abs(p.Ex) + abs(p.Ey)) * (p.omega_x**2 + p.omega_y**2)
    if abs(residual) <= RESONANCE_RTOL * max(scale, 1e-300):
        return
    msg = f"transverse field not compensated: residual detuning {residual:.3e}"
    if p.Ex != 0.0 and p.omega_x != 0.0:
        msg += f"; required omega_y/omega_x = {compensation_ratio(p.Ex, p.Ey):.12g}"
    raise ResonanceError(msg)


def _dressed_coupling(p: SystemParams) -> tuple[float, float, float]:
    """(c, s, E_tilde): the drive direction c = omega_x/omega_eff,
    s = omega_y/omega_eff, and the imaginary part E_tilde of the dressed
    doublet coupling muB + i E_tilde.  E_tilde reduces to Ey for a pure
    transverse-y field; on resonance its magnitude is sqrt(Ex^2 + Ey^2)."""
    om = p.omega_eff()
    c, s = (1.0, 0.0) if om == 0.0 else (p.omega_x / om, p.omega_y / om)
    return c, s, p.Ey * (c * c - s * s) - p.Ex * (2.0 * c * s)


def dressing_matrix(p: SystemParams) -> np.ndarray:
    """Unitary G with H_rwa(p) = G H_rwa(plain muB_eff, omega_eff) G^dag.

    Only meaningful on resonance (callers run :func:`require_resonant`);
    for a plain system G is the identity.
    """
    c, s, e_tilde = _dressed_coupling(p)
    mu_eff = math.hypot(p.muB, e_tilde)
    u = (p.muB + 1j * e_tilde) / mu_eff if mu_eff > 0.0 else 1.0
    p0 = np.outer(KET_0, KET_0.conj())
    rot = p0 + c * (_P_PLUS + _P_MINUS) + 1j * s * (
        np.outer(KET_MINUS, KET_PLUS.conj()) + np.outer(KET_PLUS, KET_MINUS.conj())
    )
    return rot @ (p0 + _P_PLUS + u * _P_MINUS)


def dressing_unitary(p: SystemParams) -> Unitary3:
    """Unitary G mapping plain effective dynamics to the dressed system:
    H_rwa(p) = G H_rwa(reduced) G^dag.  Identity for a plain system."""
    require_resonant(p)
    return Unitary3(dressing_matrix(p), p.interaction_frame)


@dataclass(frozen=True)
class EffectiveParams:
    """Plain-system equivalents of a dressed (field-compensated) system."""

    muB_eff: float
    omega_eff: float
    dq_frame_rotation: float
    carrier: float


def effective_params(p: SystemParams) -> EffectiveParams:
    """Reduce a (compensated) system to plain effective parameters.

    Raises :class:`ResonanceError` off the resonance condition.  The
    returned ``dq_frame_rotation`` is the signed rotation
    atan2(E_tilde, muB) of the DQ Bloch sphere about its x axis that maps
    dressed to plain states; it reduces to atan(Ey/muB) for a pure-y field.
    """
    require_resonant(p)
    return EffectiveParams(
        muB_eff=p.muB_eff(),
        omega_eff=p.omega_eff(),
        dq_frame_rotation=math.atan2(_dressed_coupling(p)[2], p.muB),
        carrier=p.carrier,
    )
