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
by the root-finder tolerance rather than the sample count.  The depletion
minimum and the best ratio are refined by ``fminbound``, Brent's bounded
minimizer.  Both are in-package ports of scipy's implementations and return
the same bits.  The rwa Rabi scan and the ratio scan read the |0> amplitude
from the eigenvalues and weights of ``prop._drive_weights``, which builds
and decomposes their constant drives' H_rwa; neither forms a propagator.
Measurements are exact populations; no shot noise or contrast model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, ExtractionError
from .ham import require_resonant, static_hamiltonian
from .prop import (_check_method, _drive_weights, _grid_rows, _LabStack, _lab_local,
                   _population)
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


# Brent's root finder and bounded minimizer (Brent, "Algorithms for
# Minimization Without Derivatives", 1973, ch. 4-5), ported statement for
# statement from scipy's brentq.c and _minimize_scalar_bounded (scipy is
# BSD-3-licensed) so that they take the same iterates and return the same bits.
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


def _sign(v):
    return (v > 0) - (v < 0)


def fminbound(func, a, b, xatol):
    """(x, func(x)) at a local minimum of ``func`` on [a, b], to within
    ``xatol`` plus sqrt(2.2e-16) |x|: parabolic interpolation steps, with a
    golden-section step whenever the parabola is unacceptable.  After 500
    evaluations the best point so far is returned."""
    a, b = float(a), float(b)
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = float(func(x))
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    si = _sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        si = _sign(rat) + (rat == 0)
        x = xf + si * max(abs(rat), tol1)
        fu = float(func(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


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


# time samples per ratio whose argmin brackets the depletion minimum
_DEPLETION_GRID = 512


def _min_ground_populations(p: SystemParams, ratios, window: float) -> list[float]:
    """Minimum over time of the |0> population under the two-tone drive,
    for each amplitude ratio: |sum_j c_j e^(-i w_j t)|^2 from one
    ``_drive_weights`` of the ratios' systems, on a grid whose argmin
    brackets a bounded minimization of the same sum."""
    w, c = _drive_weights([p.replace(omega_y=r * p.omega_x) for r in ratios], KET_0)
    ts = np.linspace(0.0, window, _DEPLETION_GRID)
    out = []
    for wj, cj, vals in zip(w, c, _grid_rows(w, c, window, _DEPLETION_GRID)(0, len(w))):
        i = int(np.argmin(vals))
        _, fx = fminbound(partial(_population, wj, cj), ts[max(i - 1, 0)],
                          ts[min(i + 1, _DEPLETION_GRID - 1)], xatol=1e-13)
        out.append(min(fx, float(vals[i])))
    return out


def ratio_scan(p: SystemParams, ratio_grid) -> RatioScanResult:
    """Scan the two-tone amplitude ratio for ground-state depletion.

    For each ratio the score is the minimum |0> population over a window
    covering at least one full Rabi cycle, from one decomposed stack of the
    grid's H_rwa; the best ratio refines the grid argmin by a bounded scalar
    minimization of the same score between its two neighbours (interior
    argmin only - a boundary argmin is returned as the closest grid point).
    A grid must be strictly increasing, and each tone r omega_x finite.
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
    depletion = np.array(_min_ground_populations(p, ratios, window))
    i = int(np.argmin(depletion))
    best = float(ratios[i])
    # an essentially exact zero IS the resonance; refining would only add
    # optimizer noise on top of it
    if depletion[i] > 1e-12 and 0 < i < len(ratios) - 1:
        x, _ = fminbound(lambda r: _min_ground_populations(p, [r], window)[0],
                         ratios[i - 1], ratios[i + 1], xatol=1e-10)
        best = float(x)
    return RatioScanResult(
        best_ratio=best,
        ratios=tuple(float(r) for r in ratios),
        depletion=tuple(float(d) for d in depletion),
    )
