"""Strain and electric-field handling: frequency shift, modified pulse
timings, angle recovery from measured times, and two-tone compensation.

The longitudinal component Ez only shifts the carrier to D + Ez and is
picked up by spectroscopy; it never enters the rotating-wave dynamics.  A
transverse-y field dresses the doublet coupling to sqrt(muB^2 + Ey^2) and
shortens the Rabi cycle accordingly.  A transverse-x field detunes the
Raman resonance, which is restored by an orthogonal drive tone with

    omega_y / omega_x = Ey/Ex - sign(Ey/Ex) sqrt(Ey^2/Ex^2 + 1),

after which the system reduces to the plain form with
muB -> sqrt(muB^2 + Ex^2 + Ey^2) and omega -> sqrt(omega_x^2 + omega_y^2).
sign(0) is taken as +1, so a pure-x field gets ratio -1 (opposite-phase
tone of equal amplitude).

The resonance condition, this ratio (``compensation_ratio``, re-exported
here) and the dressing unitary belong to ``nverc.ham``; the functions
below run its ``require_resonant`` check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .erc import ErcQuantities, _interaction_frame, characteristic_quantities
from .errors import DomainError
from .ham import _dressed_coupling, compensation_ratio, dressing_matrix, require_resonant
from .spin import SystemParams, Unitary3

__all__ = [
    "EffectiveParams",
    "ey_characteristics",
    "phi_from_times",
    "compensation_ratio",
    "effective_params",
    "dressing_unitary",
]


@dataclass(frozen=True)
class EffectiveParams:
    """Plain-system equivalents of a dressed (field-compensated) system."""

    muB_eff: float
    omega_eff: float
    dq_frame_rotation: float
    carrier: float


def ey_characteristics(p: SystemParams) -> ErcQuantities:
    """Pulse timings with a transverse-y field present.

    T_total(Ey) = 2 pi / sqrt(obar^2 + Ey^2) and
    T_prime(Ey) = arccos(-4 (muB^2+Ey^2)/omega^2) / sqrt(obar^2 + Ey^2);
    identical to :func:`characteristic_quantities` on the dressed field.
    Requires omega >= 2 sqrt(muB^2 + Ey^2) (RegimeError reports the
    minimal drive otherwise).
    """
    if p.Ex != 0.0 or p.omega_y != 0.0:
        raise ValueError("ey_characteristics handles a pure transverse-y field; "
                         "use effective_params for the compensated two-tone case")
    return characteristic_quantities(p)


def phi_from_times(t_prime_meas: float, t_total_meas: float) -> float:
    """Recover the characteristic angle from two measured times:

        phi = arccos( sqrt( -cos(2 pi T'/T) ) )

    Real for T'/T in [1/4, 3/4]; the depletion time itself satisfies
    T'/T in [1/4, 1/2], while feeding the complementary time T'' lands in
    the mirrored upper half.  Outside the band the measurement is
    inconsistent and a DomainError is raised.
    """
    if t_total_meas <= 0.0 or t_prime_meas <= 0.0:
        raise DomainError("measured times must be positive")
    ratio = t_prime_meas / t_total_meas
    if not 0.25 - 1e-12 <= ratio <= 0.75 + 1e-12:
        raise DomainError(
            f"T'/T = {ratio:.6f} outside [1/4, 3/4]; times are inconsistent "
            "with a resonant Raman cycle"
        )
    c = -math.cos(2.0 * math.pi * ratio)
    return math.acos(math.sqrt(min(max(c, 0.0), 1.0)))


def effective_params(p: SystemParams) -> EffectiveParams:
    """Reduce a (compensated) system to plain effective parameters.

    Raises :class:`ResonanceError` off the resonance condition (see
    :func:`nverc.ham.require_resonant`).  The returned ``dq_frame_rotation``
    is the signed rotation atan2(E_tilde, muB) of the DQ Bloch sphere about
    its x axis that maps dressed to plain states; it reduces to
    atan(Ey/muB) for a pure-y field.
    """
    require_resonant(p)
    return EffectiveParams(
        muB_eff=p.muB_eff(),
        omega_eff=p.omega_eff(),
        dq_frame_rotation=math.atan2(_dressed_coupling(p)[2], p.muB),
        carrier=p.carrier,
    )


def dressing_unitary(p: SystemParams) -> Unitary3:
    """Unitary G mapping plain effective dynamics to the dressed system:
    H_rwa(p) = G H_rwa(reduced) G^dag.  Identity for a plain system."""
    require_resonant(p)
    return Unitary3(dressing_matrix(p), _interaction_frame(p))
