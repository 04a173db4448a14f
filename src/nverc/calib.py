"""Simulated two-step experimental calibration.

Step 1 is spectroscopy on the static Hamiltonian: the three level energies
fix the drive carrier (mean of the two upper levels, i.e. D + Ez) and the
doublet splitting.  Step 2 is a Rabi-style scan of the ground-state
population under the resonant drive: the first zero gives the depletion
time T', the second zero the complement T'' (so T = T' + T''), and the
characteristic angle follows from the measured time ratio.  For a
transverse-x field a third scan over the two-tone amplitude ratio finds
the value that best depletes the ground state.

Zero crossings are located on the continuous model (bracketing plus Brent
root refinement on the real ground-state amplitude), not by interpolating
sampled points, so extraction error is set by the root-finder tolerance
rather than the sample count.  Measurements are exact populations; no shot
noise or contrast model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ExtractionError
from .ham import static_hamiltonian
from .prop import IntegratorConfig, _canonical_method, _rwa_evolver, _walk
from .pulses import PulseSegment, PulseSequence
from .spin import SystemParams
from .strain import phi_from_times

__all__ = [
    "OdmrResult",
    "RabiExtraction",
    "RatioScanResult",
    "simulate_odmr",
    "rabi_extract",
    "ratio_scan",
]


@dataclass(frozen=True)
class OdmrResult:
    """Static level energies (ascending) and the suggested drive carrier."""

    levels: tuple[float, float, float]
    carrier: float

    def to_dict(self) -> dict:
        return {"levels": list(self.levels), "carrier": self.carrier}


@dataclass(frozen=True)
class RabiExtraction:
    T_total: float
    T_prime: float
    phi: float
    method: str = "analytic"

    def to_dict(self) -> dict:
        return {"T_total": self.T_total, "T_prime": self.T_prime,
                "phi": self.phi, "method": self.method}


@dataclass(frozen=True)
class RatioScanResult:
    best_ratio: float
    ratios: tuple[float, ...]
    depletion: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"best_ratio": self.best_ratio, "ratios": list(self.ratios),
                "depletion": list(self.depletion)}


# scipy.optimize costs most of a cold import; it is loaded on first use
def brentq(*args, **kwargs):
    from scipy.optimize import brentq as _brentq
    return _brentq(*args, **kwargs)


def minimize_scalar(*args, **kwargs):
    from scipy.optimize import minimize_scalar as _minimize_scalar
    return _minimize_scalar(*args, **kwargs)


def simulate_odmr(p: SystemParams) -> OdmrResult:
    """Spectroscopy step: eigenvalues of the drive-off Hamiltonian.

    The carrier (mean of the two upper levels) equals D + Ez exactly, with
    or without transverse fields; the upper-doublet splitting is
    2 sqrt(muB^2 + Ex^2 + Ey^2).
    """
    levels = np.linalg.eigvalsh(static_hamiltonian(p))
    carrier = float((levels[1] + levels[2]) / 2.0)
    return OdmrResult(levels=tuple(float(x) for x in levels), carrier=carrier)


def _ground_amplitude_fn(p: SystemParams, method: str):
    """Continuous-time real ground-state amplitude Re<0|U(t)|0> for a single
    resonant segment at phase 0, at a scalar or ascending array of times.
    The lab form runs one program over the longest time at 80 steps per
    carrier period; the interaction-frame phase leaves <0|U|0> unchanged."""
    method = _canonical_method(method)
    seg = PulseSegment(duration=0.0, alpha=0.0, omega_x=p.omega_x, omega_y=p.omega_y)
    if method == "analytic":
        mu, om = p.muB_eff(), p.omega_eff()
        obar = math.sqrt(mu * mu + om * om / 4.0)
        w_b = (om * om / 4.0) / (obar * obar)
        w_d = (mu * mu) / (obar * obar)
        return lambda t: np.cos(obar * t) * w_b + w_d
    if method == "rwa_numeric":
        evolve = _rwa_evolver(p, seg)
        return lambda t: evolve(t)[..., 1, 1].real
    cfg = IntegratorConfig(max_step=(2 * math.pi / p.carrier) / 80.0)

    def lab_amp(t):
        t = np.asarray(t, dtype=float)
        seq = PulseSequence([replace(seg, duration=float(np.max(t)))])
        us, _ = _walk(p, seq, t.reshape(-1), "lab", cfg)
        return us[:, 1, 1].real.reshape(t.shape)

    return lab_amp


def rabi_extract(
    p: SystemParams,
    t_max: float,
    n_points: int = 256,
    method: str = "analytic",
) -> RabiExtraction:
    """Extract (T_total, T_prime, phi) from a simulated Rabi scan of |0>.

    The scan grid brackets sign changes of the ground-state amplitude; the
    first zero is T', the second is T'', and T = T' + T''.  Raises
    :class:`ExtractionError` when no zero exists in the window (drive below
    the resonant-regime threshold) and ValueError when the window is
    shorter than 1.2 Rabi periods.
    """
    if n_points < 64:
        raise ValueError(f"n_points must be >= 64, got {n_points}")
    mu, om = p.muB_eff(), p.omega_eff()
    if om == 0.0:
        raise ValueError("drive amplitude must be nonzero")
    t_period = 2.0 * math.pi / math.sqrt(mu * mu + om * om / 4.0)
    if t_max < 1.2 * t_period:
        raise ValueError(
            f"scan window {t_max:.6g} shorter than 1.2 Rabi periods ({1.2 * t_period:.6g})"
        )
    amp = _ground_amplitude_fn(p, method)
    ts = np.linspace(0.0, t_max, n_points)
    vals = amp(ts)
    zeros = []
    for i in range(len(ts) - 1):
        if vals[i] == 0.0:
            zeros.append(ts[i])
        elif vals[i] * vals[i + 1] < 0.0:
            zeros.append(brentq(amp, ts[i], ts[i + 1], xtol=1e-14, rtol=1e-15))
        if len(zeros) == 2:
            break
    if len(zeros) < 2:
        raise ExtractionError(
            "ground-state population never vanishes in the scan window; "
            "the drive is below the resonant-regime threshold or the window "
            "is too short"
        )
    t_prime, t_second = zeros
    t_total = t_prime + t_second
    return RabiExtraction(
        T_total=float(t_total),
        T_prime=float(t_prime),
        phi=float(phi_from_times(t_prime, t_total)),
        method=_canonical_method(method),
    )


def _min_ground_population(p: SystemParams, ratio: float, window: float, n_grid: int = 512):
    """Minimum over time of the |0> population under the two-tone drive."""
    seg = PulseSegment(duration=0.0, alpha=0.0, omega_x=p.omega_x, omega_y=ratio * p.omega_x)
    evolve = _rwa_evolver(p, seg)

    def p0(t):
        return np.abs(evolve(t)[..., 1, 1]) ** 2

    ts = np.linspace(0.0, window, n_grid)
    vals = p0(ts)
    i = int(np.argmin(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, n_grid - 1)]
    res = minimize_scalar(p0, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    return min(float(res.fun), float(vals[i]))


def ratio_scan(p: SystemParams, ratio_grid, n_grid: int = 512) -> RatioScanResult:
    """Scan the two-tone amplitude ratio for ground-state depletion.

    For each ratio the score is the minimum |0> population over a window
    covering at least one full Rabi cycle; the best ratio refines the grid
    argmin by a bounded scalar minimization of the same score between its
    two neighbours (interior argmin only - a boundary argmin is returned as
    the closest grid point).
    """
    if p.Ex == 0.0:
        raise ValueError("ratio_scan expects a transverse-x field to compensate")
    if p.omega_x == 0.0:
        raise ValueError("ratio_scan needs a nonzero main drive")
    ratios = np.asarray(list(ratio_grid), dtype=float)
    if ratios.size < 3:
        raise ValueError("ratio grid needs at least 3 points")
    if not np.all(np.diff(ratios) > 0.0):  # NaN fails too
        raise ValueError("ratio grid must be strictly increasing")
    mu, om = p.muB, p.omega_x
    window = 1.5 * 2.0 * math.pi / math.sqrt(mu * mu + om * om / 4.0)
    depletion = np.array([_min_ground_population(p, r, window, n_grid) for r in ratios])
    i = int(np.argmin(depletion))
    best = float(ratios[i])
    # an essentially exact zero IS the resonance; refining would only add
    # optimizer noise on top of it
    if depletion[i] > 1e-12 and 0 < i < len(ratios) - 1:
        res = minimize_scalar(lambda r: _min_ground_population(p, r, window, n_grid),
                              bounds=(ratios[i - 1], ratios[i + 1]), method="bounded",
                              options={"xatol": 1e-10})
        best = float(res.x)
    return RatioScanResult(
        best_ratio=best,
        ratios=tuple(float(r) for r in ratios),
        depletion=tuple(float(d) for d in depletion),
    )
