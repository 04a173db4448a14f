"""Simulated two-step experimental calibration.

Step 1 is spectroscopy on the static Hamiltonian: the three level energies
fix the drive carrier (mean of the two upper levels, i.e. D + Ez) and the
doublet splitting.  Step 2 is a Rabi-style scan of the ground-state
population under the resonant drive: the first zero gives the depletion
time T', the second zero the complement T'' (so T = T' + T''), and the
characteristic angle follows from the measured time ratio.  For a
transverse-x field a third scan over the two-tone amplitude ratio finds
the value that best depletes the ground state.

Zero crossings are located on the continuous model (bracketing plus
refinement by ``brentq``, Brent's root finder, on the real ground-state
amplitude), not by interpolating sampled points, so extraction error is set
by the root-finder tolerance rather than the sample count; ``brentq`` is a
port of scipy's that returns its bits.  Both scans read the |0> amplitude
from eigenpairs that ``prop`` decomposes, forming no propagator.  The ratio
scan refines each grid row's depletion dip by Newton steps in time, and the
best ratio by damped Gauss-Newton on the complex amplitude over ratio and
time jointly (``prop._ground_jet`` gives its derivatives in closed form).
Measurements are exact populations; no shot noise or contrast model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExtractionError
from .ham import require_resonant, static_hamiltonian
from .prop import _check_method, _drive_weights, _grid_rows, _ground_jet, _LabStack, _lab_local
from .pulses import PulseSegment
from .spin import KET_0, SystemParams

__all__ = [
    "OdmrResult",
    "RabiExtraction",
    "RatioScanResult",
    "simulate_odmr",
    "rabi_extract",
    "ratio_scan",
    "phi_from_times",
]


ROOT_XTOL = 1e-14  # absolute bracket width at which rabi_extract stops a root


@dataclass(frozen=True)
class OdmrResult:
    """Static level energies (ascending) and the suggested drive carrier."""

    levels: tuple[float, float, float]
    carrier: float


@dataclass(frozen=True)
class RabiExtraction:
    T_total: float
    T_prime: float
    phi: float
    method: str = "analytic"


@dataclass(frozen=True)
class RatioScanResult:
    best_ratio: float
    ratios: tuple[float, ...]
    depletion: tuple[float, ...]


# Brent's root finder (Brent, "Algorithms for Minimization Without
# Derivatives", 1973, ch. 4), ported statement for statement from scipy's
# brentq.c (scipy is BSD-3-licensed) so that it takes the same iterates and
# returns the same bits.
def brentq(f, xa, xb, xtol, rtol):
    """Root of ``f`` in [xa, xb], where f(xa) and f(xb) differ in sign.

    Steps by inverse interpolation (two points) or extrapolation (three),
    falling back to bisection when the step would not shrink the bracket
    fast enough; stops once the bracket is below xtol + rtol |x|.  Raises
    ValueError when the end signs match or f returns NaN, and RuntimeError
    after 100 iterations.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; brentq cannot continue")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # a denominator underflowed to 0: C's step is then inf or NaN
                # (fpre, fcur are nonzero), which the test below sends to bisection
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"brentq failed to converge after 100 iterations, value is {xcur}")


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
    resonant segment at phase 0, at a scalar or array of times.  The lab
    form integrates at 80 Magnus steps per carrier period from one prepared
    stack: the segment's period propagator is integrated and decomposed
    once, at the first call that spans it, and every call then integrates
    only its times' remainders; <0|U|0> is the same in every frame.  The
    rwa form is Re sum_j c_j e^(-i w_j t) of ``_drive_weights``."""
    _check_method(method)
    if method == "analytic":
        # the closed form is the reduced Raman system's, so only on resonance
        require_resonant(p)
        mu, om = p.muB_eff(), p.omega_eff()
        obar = math.sqrt(mu * mu + om * om / 4.0)
        w_b = (om * om / 4.0) / (obar * obar)
        w_d = (mu * mu) / (obar * obar)
        return lambda t: np.cos(obar * t) * w_b + w_d
    if method == "rwa":
        (w,), (c,) = _drive_weights([p], KET_0)
        return lambda t: (np.exp(-1j * w * np.asarray(t, dtype=float)[..., None]) @ c).real

    stack = _LabStack(p, [PulseSegment(0.0, 0.0, p.omega_x, p.omega_y)], [0.0], 80)

    def lab_amp(t):
        t = np.asarray(t, dtype=float)
        amp = np.ones(t.shape)                  # the identity at t <= 0
        after = t > 0.0
        amp[after] = _lab_local(stack, np.zeros(np.count_nonzero(after), dtype=int),
                                t[after])[:, 1, 1].real
        return amp

    return lab_amp


def _rabi_period(p: SystemParams) -> float:
    """Full Rabi period 2 pi / obar of the (effective) resonant drive; one
    below the threshold, a zero one included, has its period too."""
    mu, om = p.muB_eff(), p.omega_eff()
    obar = math.sqrt(mu * mu + om * om / 4.0)
    if obar == 0.0:
        raise ValueError("Rabi period undefined for muB = omega = 0")
    return 2.0 * math.pi / obar


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


def rabi_extract(p: SystemParams, t_max: float, n_points: int = 256,
                 method: str = "analytic") -> RabiExtraction:
    """Extract (T_total, T_prime, phi) from a simulated Rabi scan of |0>.

    The scan grid brackets sign changes of the ground-state amplitude; the
    first zero is T', the second is T'', and T = T' + T''.  Raises
    :class:`ExtractionError` when no zero exists in the window (drive below
    the resonant-regime threshold) and ValueError when the window is not
    finite or shorter than 1.2 Rabi periods.
    """
    if n_points < 64:
        raise ValueError(f"n_points must be >= 64, got {n_points}")
    t_period = _rabi_period(p)
    if not math.isfinite(t_max):
        raise ValueError(f"scan window t_max must be finite, got {t_max}")
    if t_max < 1.2 * t_period:
        raise ValueError(
            f"scan window {t_max:.6g} shorter than 1.2 Rabi periods ({1.2 * t_period:.6g})"
        )
    amp = _ground_amplitude_fn(p, method)
    ts = np.linspace(0.0, t_max, n_points)
    vals = amp(ts)
    # a grid point where the amplitude is exactly 0 is itself a zero
    zeros = [ts[i] if vals[i] == 0.0 else brentq(amp, ts[i], ts[i + 1], xtol=ROOT_XTOL, rtol=1e-15)
             for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))[:2]]
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
        method=method,
    )


_DEPLETION_GRID = 512  # time samples per ratio whose argmin brackets the dip
_DIP_STEPS = 6         # Newton steps in t that refine every row's dip at once
_RATIO_STEPS = 50      # Gauss-Newton steps in (r, t), at most


def _depletion_dips(p: SystemParams, ratios, window: float):
    """(t, P0) of the minimum |0> population P0 = |a|^2, a = sum_j c_j
    e^(-i w_j t), for each ratio, from one ``_drive_weights`` of the ratios'
    systems: Newton steps on dP0/dt = 0, all rows at once, refine each row's
    grid argmin inside the bracket of its two neighbours."""
    w, c = _drive_weights([p.replace(omega_y=r * p.omega_x) for r in ratios], KET_0)
    ts = np.linspace(0.0, window, _DEPLETION_GRID)
    vals = _grid_rows(w, c, window, _DEPLETION_GRID)(0, len(w))
    k = np.argmin(vals, axis=1)
    lo, hi = ts[np.maximum(k - 1, 0)], ts[np.minimum(k + 1, _DEPLETION_GRID - 1)]
    t = ts[k]
    for _ in range(_DIP_STEPS):
        e = c * np.exp(-1j * w * t[:, None])
        a, a1, a2 = e.sum(-1), -1j * (w * e).sum(-1), -(w * w * e).sum(-1)
        # P0' = 2 Re(a* a') over P0'' = 2 (|a'|^2 + Re(a* a'')), made positive: downhill
        t = np.clip(t - (a.conj() * a1).real / np.abs(abs(a1) ** 2 + (a.conj() * a2).real),
                    lo, hi)
    a = (c * np.exp(-1j * w * t[:, None])).sum(-1)
    p0 = a.real * a.real + a.imag * a.imag
    sampled = vals[np.arange(len(k)), k]
    return np.where(p0 < sampled, t, ts[k]), np.minimum(p0, sampled)


def _min_ground_populations(p: SystemParams, ratios, window: float):
    """The minimum |0> population over the window for each ratio."""
    return _depletion_dips(p, ratios, window)[1]


def _refine_ratio(p: SystemParams, r: float, t: float, lo: float, hi: float) -> float:
    """The ratio in [lo, hi] of the least |a(r, t)|^2 near (r, t), by damped
    Gauss-Newton on the complex |0> amplitude a over (r, t): each step is
    halved until it lowers |a|.  Stops at the lowest point seen once a step
    would move r by at most 4 ulp, or after ``_RATIO_STEPS`` steps."""
    jet = _ground_jet(p, r, t)
    for _ in range(_RATIO_STEPS):
        a, da_dr, da_dt = jet
        step = np.linalg.lstsq([[da_dr.real, da_dt.real], [da_dr.imag, da_dt.imag]],
                               [-a.real, -a.imag], rcond=None)[0]
        while True:
            r_next = min(max(r + step[0], lo), hi)
            if abs(r_next - r) <= 4.0 * math.ulp(r):
                return float(r)
            jet = _ground_jet(p, r_next, t + step[1])
            if abs(jet[0]) < abs(a):
                break
            step = step / 2.0
        r, t = r_next, t + step[1]
    return float(r)


def ratio_scan(p: SystemParams, ratio_grid) -> RatioScanResult:
    """Scan the two-tone amplitude ratio for ground-state depletion.

    For each ratio the score is the minimum |0> population over a window
    covering at least one full Rabi cycle, from one decomposed stack of the
    grid's H_rwa.  From its row's dip, the grid argmin is refined between
    its two neighbours by ``_refine_ratio`` (interior argmin only - a
    boundary argmin is returned as the closest grid point).  A grid must be
    strictly increasing, and each tone r omega_x finite.
    """
    if p.Ex == 0.0:
        raise ValueError("ratio_scan expects a transverse-x field to compensate")
    if p.omega_x == 0.0:
        raise ValueError("ratio_scan needs a nonzero main drive")
    ratios = np.asarray(list(ratio_grid), dtype=float)
    if ratios.size < 3:
        raise ValueError("ratio grid needs at least 3 points")
    if not np.all(ratios[1:] > ratios[:-1]):  # NaN fails too; no difference can overflow
        raise ValueError("ratio grid must be strictly increasing")
    if not all(math.isfinite(r * p.omega_x) for r in ratios.tolist()):  # floats: no warning
        raise ValueError("ratio_grid holds a ratio r whose tone r * omega_x is not finite")
    mu, om = p.muB, p.omega_x
    window = 1.5 * 2.0 * math.pi / math.sqrt(mu * mu + om * om / 4.0)
    times, depletion = _depletion_dips(p, ratios, window)
    i = int(np.argmin(depletion))
    best = float(ratios[i])
    # an essentially exact zero IS the resonance; refining would only add
    # optimizer noise on top of it
    if depletion[i] > 1e-12 and 0 < i < len(ratios) - 1:
        best = _refine_ratio(p, best, float(times[i]), float(ratios[i - 1]), float(ratios[i + 1]))
    return RatioScanResult(best, tuple(ratios.tolist()), tuple(depletion.tolist()))
