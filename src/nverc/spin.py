"""Spin-1 foundations: operators, states, propagators and the equatorial
state family of the double-quantum (DQ) transition.

Conventions used throughout the package:

* Basis ordering is (|+1>, |0>, |-1>) everywhere; every matrix in the
  package is written against this ordering.
* All frequencies are angular (rad per time unit).  The CLI converts
  ordinary frequencies at the boundary; internally a dimensionless mode
  with muB = 1 is the default for reproduction runs.
* State and unitary comparisons use the phase-insensitive fidelities
  |<a|b>| and |tr(U^dag V)| / 3.
* ``phi_state(lam)`` is the equatorial DQ family
  (1/sqrt(2)) (-exp(i lam/2)|+1> + exp(-i lam/2)|-1>), i.e. with
  half-angle exponents.  Members at ``lam`` and ``lam + pi`` are
  orthogonal, and the Bloch azimuth of ``phi_state(lam)`` is ``pi - lam``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RegimeError

__all__ = [
    "FrameTag",
    "SystemParams",
    "StateVector3",
    "Unitary3",
    "phi_state",
    "KET_P1",
    "KET_0",
    "KET_M1",
    "KET_PLUS",
    "KET_MINUS",
]

_SQRT2 = math.sqrt(2.0)

# spin-1 operators, basis (|+1>, |0>, |-1>), [Sx, Sy] = i Sz cyclically
SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQRT2
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
SZ2 = np.diag([1.0, 0.0, 1.0]).astype(complex)

KET_P1 = np.array([1, 0, 0], dtype=complex)
KET_0 = np.array([0, 1, 0], dtype=complex)
KET_M1 = np.array([0, 0, 1], dtype=complex)
KET_PLUS = (KET_P1 + KET_M1) / _SQRT2
KET_MINUS = (KET_P1 - KET_M1) / _SQRT2

for _arr in (SX, SY, SZ, SZ2, KET_P1, KET_0, KET_M1, KET_PLUS, KET_MINUS):
    _arr.setflags(write=False)


class FrameTag(str, enum.Enum):
    """Interaction frame a propagator is expressed in: that of D Sz^2, or
    of (D + Ez) Sz^2 when Ez != 0 (``SystemParams.interaction_frame``)."""

    INTERACTION_D = "interaction-D"
    INTERACTION_D_EZ = "interaction-D-plus-Ez"


@dataclass(frozen=True)
class SystemParams:
    """Static physical parameters, all in angular-frequency units.

    ``D``       zero-field splitting (> 0, also the drive carrier with Ez=0)
    ``muB``     Zeeman splitting of the |+-1> doublet (>= 0)
    ``omega_x`` main drive amplitude
    ``omega_y`` orthogonal drive amplitude (two-tone compensation only)
    ``Ex/Ey/Ez`` transverse / longitudinal strain-electric energies

    Construction validates finiteness, not the Raman regime: call
    :meth:`regime_valid` or :meth:`require_regime` explicitly.  Values are
    never clamped.
    """

    D: float
    muB: float
    omega_x: float
    omega_y: float = 0.0
    Ex: float = 0.0
    Ey: float = 0.0
    Ez: float = 0.0

    def __post_init__(self):
        vals = (self.D, self.muB, self.omega_x, self.omega_y,
                self.Ex, self.Ey, self.Ez)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"SystemParams fields must be finite, got {vals}")
        if self.D <= 0:
            raise ValueError(f"zero-field splitting D must be positive, got {self.D}")
        if self.muB < 0:
            raise ValueError(f"muB must be non-negative, got {self.muB}")

    @property
    def carrier(self) -> float:
        """Drive carrier frequency after spectroscopic calibration: D + Ez."""
        return self.D + self.Ez

    @property
    def interaction_frame(self) -> FrameTag:
        """Frame of the rotating-wave dynamics: the interaction picture of
        (D + Ez) Sz^2, tagged ``INTERACTION_D`` when Ez = 0."""
        return FrameTag.INTERACTION_D_EZ if self.Ez != 0.0 else FrameTag.INTERACTION_D

    def muB_eff(self) -> float:
        """Effective field magnitude sqrt(muB^2 + Ex^2 + Ey^2).

        Meaningful as the Raman coupling strength only when the drive is
        resonance-matched (see :func:`nverc.ham.require_resonant`).
        """
        return math.sqrt(self.muB**2 + self.Ex**2 + self.Ey**2)

    def omega_eff(self) -> float:
        """Total drive amplitude sqrt(omega_x^2 + omega_y^2)."""
        return math.hypot(self.omega_x, self.omega_y)

    def regime_valid(self) -> bool:
        """True when the resonant-Raman closed forms exist: omega_eff >= 2 muB_eff."""
        return self.omega_eff() >= 2.0 * self.muB_eff()

    def require_regime(self):
        if not self.regime_valid():
            raise RegimeError(self.omega_eff(), self.muB_eff())

    def is_plain(self) -> bool:
        """No transverse fields and a single drive tone."""
        return self.Ex == 0.0 and self.Ey == 0.0 and self.omega_y == 0.0

    def replace(self, **kw) -> "SystemParams":
        from dataclasses import replace as _replace
        return _replace(self, **kw)


def _as_state_array(amps) -> np.ndarray:
    a = np.asarray(amps, dtype=complex)
    if a.shape != (3,):
        raise ValueError(f"state needs exactly 3 amplitudes, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError("non-finite state amplitudes: " + ", ".join(
            f"a_{m} = {v}" for m, v, ok in zip(("+1", "0", "-1"), a.tolist(), finite) if not ok))
    return a


@dataclass(frozen=True)
class StateVector3:
    """Normalized pure state (a_{+1}, a_0, a_{-1}) in the Sz eigenbasis.

    The constructor accepts amplitudes normalized to within 1e-8 and stores
    them renormalized to machine precision, so the unit-norm invariant holds
    exactly afterwards.
    """

    amps: np.ndarray = field(repr=False)

    def __init__(self, amps):
        a = _as_state_array(amps)
        n = np.linalg.norm(a)
        if not abs(n - 1.0) <= 1e-8:  # also a nan norm
            raise ValueError(f"state norm {n!r} too far from 1 to renormalize safely")
        a = a / n
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @classmethod
    def from_unnormalized(cls, amps) -> "StateVector3":
        a = _as_state_array(amps)
        n = np.linalg.norm(a)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(a / n)

    def populations(self) -> np.ndarray:
        """(p_{+1}, p_0, p_{-1})."""
        return np.abs(self.amps) ** 2

    def overlap(self, other: "StateVector3") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "StateVector3") -> float:
        """Phase-insensitive |<self|other>|."""
        return abs(self.overlap(other))


@dataclass(frozen=True)
class Unitary3:
    """3x3 unitary evolution operator together with its reference frame.

    Construction verifies ||U^dag U - 1||_op < 1e-10 and rejects anything
    worse; the numerical propagators of ``nverc.prop`` are unitary to
    rounding by construction, so nothing is projected before wrapping.
    """

    m: np.ndarray = field(repr=False)
    frame: FrameTag = FrameTag.INTERACTION_D

    def __init__(self, m, frame: FrameTag = FrameTag.INTERACTION_D):
        mat = np.asarray(m, dtype=complex)
        if mat.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {mat.shape}")
        defect = np.linalg.norm(mat.conj().T @ mat - np.eye(3), 2)
        if defect > 1e-10:
            raise ValueError(f"matrix is not unitary: ||U^dag U - 1|| = {defect:.3e}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "m", mat)
        object.__setattr__(self, "frame", FrameTag(frame))

    def apply(self, s: StateVector3) -> StateVector3:
        return StateVector3(self.m @ s.amps)

    def __matmul__(self, other: "Unitary3") -> "Unitary3":
        if self.frame != other.frame:
            raise ValueError(f"frame mismatch: {self.frame} vs {other.frame}")
        return Unitary3(self.m @ other.m, self.frame)


def phi_state(lam: float) -> StateVector3:
    """Equatorial DQ state (1/sqrt 2)(-e^{i lam/2} |+1> + e^{-i lam/2} |-1>).

    ``phi_state(lam)`` and ``phi_state(lam + pi)`` are orthonormal for every
    ``lam`` and together span the DQ subspace; the Bloch azimuth is
    ``pi - lam``.
    """
    return StateVector3(_phi_amps(lam, unit=False))


def _phi_amps(lam: float, unit: bool = True) -> np.ndarray:
    """``phi_state(lam).amps`` bit for bit, without building the state; or,
    with ``unit=False``, the amplitudes before StateVector3 normalises them."""
    a = np.array([-np.exp(0.5j * lam), 0.0, np.exp(-0.5j * lam)]) / _SQRT2
    return a / np.linalg.norm(a) if unit else a
