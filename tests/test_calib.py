import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

from nverc import calib, prop
from nverc import (ExtractionError, StateVector3, SystemParams,
                   characteristic_quantities, compensation_ratio, evolve,
                   not_gate_sequence,
                   rabi_extract, ratio_scan, simulate_odmr)
from nverc.calib import _ground_amplitude_fn
from nverc.pulses import PulseSegment, PulseSequence
from nverc.spin import KET_P1

P13 = SystemParams(D=500.0, muB=1.0, omega_x=3.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# frozen oracle: eigensplitting of the doublet block with Ex=0.3, muB=1
SPLITTING_EX03 = 2.088061301782110


class TestOdmr:
    def test_bare_spectrum(self):
        res = simulate_odmr(P13)
        assert np.allclose(res.levels, [0.0, 499.0, 501.0], atol=1e-10)
        assert res.carrier == pytest.approx(500.0)

    def test_ez_shifts_carrier(self):
        res = simulate_odmr(P13.replace(Ez=0.2))
        assert res.carrier == pytest.approx(500.2)

    def test_transverse_x_splitting(self):
        res = simulate_odmr(P13.replace(Ex=0.3))
        split = res.levels[2] - res.levels[1]
        assert split == pytest.approx(2.0 * math.hypot(1.0, 0.3), abs=1e-12)
        assert split == pytest.approx(SPLITTING_EX03, abs=1e-12)
        assert res.carrier == pytest.approx(500.0)  # mean is field-independent


class TestRabiExtract:
    def test_analytic_matches_closed_forms(self):
        q = characteristic_quantities(P13)
        ex = rabi_extract(P13, t_max=1.5 * q.T_total)
        assert abs(ex.T_prime - q.T_prime) < 1e-10
        assert abs(ex.T_total - q.T_total) < 1e-10
        assert abs(ex.phi - q.phi) < 1e-10

    def test_below_regime_raises_extraction_error(self):
        p = P13.replace(omega_x=1.5)
        with pytest.raises(ExtractionError):
            rabi_extract(p, t_max=3.0 * 2 * math.pi / math.sqrt(1 + 1.5**2 / 4))

    def test_transverse_y_numeric_matches_closed_forms(self):
        p = P13.replace(Ey=0.5)
        q = characteristic_quantities(p)
        ex = rabi_extract(p, t_max=1.5 * q.T_total, method="rwa")
        assert abs(ex.T_prime - q.T_prime) < 1e-6
        assert abs(ex.T_total - q.T_total) < 1e-6
        assert abs(ex.phi - q.phi) < 1e-6

    def test_lab_matches_analytic_within_rotating_wave_bound(self):
        q = characteristic_quantities(P13)
        bound = P13.omega_x / P13.carrier
        ana = rabi_extract(P13, t_max=1.5 * q.T_total, n_points=64)
        lab = rabi_extract(P13, t_max=1.5 * q.T_total, n_points=64, method="lab")
        assert lab.method == "lab"
        assert abs(lab.T_prime - ana.T_prime) < bound * ana.T_prime
        assert abs(lab.T_total - ana.T_total) < bound * ana.T_total

    def test_lab_amplitude_over_array_equals_per_time_calls(self):
        amp = _ground_amplitude_fn(P13, "lab")
        ts = np.linspace(0.0, 4.0, 9)
        vals = amp(ts)
        assert vals.shape == ts.shape
        assert np.array_equal(vals, [amp(t) for t in ts])
        assert amp(0.0) == 1.0

    def test_lab_period_is_decomposed_once(self, monkeypatch):
        # the lab closure keeps its segment's period propagator: one
        # decomposition per extraction, and at every point the root finder
        # brackets the amplitude is evolve's bit for bit
        powers, points = [], []
        real_power, real_fn = prop._floquet_power, calib._ground_amplitude_fn
        monkeypatch.setattr(prop, "_floquet_power",
                            lambda u: (powers.append(len(u)), real_power(u))[1])

        def recorded(p, method):
            amp = real_fn(p, method)
            return lambda t: (points.append(np.array(t, dtype=float)), amp(t))[1]

        monkeypatch.setattr(calib, "_ground_amplitude_fn", recorded)
        q = characteristic_quantities(P13)
        rabi_extract(P13, t_max=1.5 * q.T_total, n_points=64, method="lab")
        assert powers == [1]
        brackets = [float(t) for t in points if t.ndim == 0]
        assert len(brackets) > 10
        amp = real_fn(P13, "lab")
        for t in brackets:
            seq = PulseSequence([PulseSegment(t, 0.0, P13.omega_x)])
            assert amp(t) == evolve(P13, seq, [t], "lab", steps_per_period=80)[0, 1, 1].real

    def test_rwa_scan_is_decomposed_once(self, monkeypatch):
        # the rwa amplitude reads eigenvalues and weights of one eigh: the
        # scan grid and every root finder step form no propagator
        shapes = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: (shapes.append(h.shape), real_eigh(h))[1])
        p = SystemParams(D=500.0, muB=1.0, omega_x=4.5, Ex=0.7, Ey=-0.7,
                         omega_y=4.5 * compensation_ratio(0.7, -0.7))
        q = characteristic_quantities(p)
        ex = rabi_extract(p, 1.5 * q.T_total, 256, "rwa")
        assert shapes == [(1, 3, 3)]
        assert abs(ex.T_total - q.T_total) < 1e-6

    def test_window_and_sampling_validation(self):
        with pytest.raises(ValueError):
            rabi_extract(P13, t_max=1.0)
        with pytest.raises(ValueError, match="finite"):
            rabi_extract(P13, t_max=math.inf)
        with pytest.raises(ValueError):
            rabi_extract(P13, t_max=6.0, n_points=32)

    def test_extraction_error_is_root_finder_limited(self):
        q = characteristic_quantities(P13)
        ex = rabi_extract(P13, t_max=1.3 * q.T_total, n_points=97)
        # estimator error decoupled from the sample count
        assert abs(ex.T_prime - q.T_prime) < 1e-10

    def test_round_trip_gate_fidelity(self):
        # a population-swap program built from extracted times matches the
        # one built from true parameters
        q = characteristic_quantities(P13)
        ex = rabi_extract(P13, t_max=1.5 * q.T_total)
        seq_est = PulseSequence([
            PulseSegment(ex.T_prime, 0.0, P13.omega_x),
            PulseSegment(ex.T_total - ex.T_prime, math.pi, P13.omega_x),
        ])
        s0 = StateVector3(KET_P1)
        a = evolve(P13, not_gate_sequence(P13))[-1] @ s0.amps
        b = evolve(P13, seq_est)[-1] @ s0.amps
        assert abs(np.vdot(a, b)) >= 1 - 1e-6


def min_ground_populations_by_propagators(p, ratios, window):
    """The depletion scores read off full 3x3 rwa propagators (``evolve``) at
    every grid time, refined by scipy's bounded minimizer: the form that the
    eigen-phase scan and its Newton steps replaced."""
    n = calib._DEPLETION_GRID
    ts = np.linspace(0.0, window, n)
    out = []
    for r in ratios:
        seq = PulseSequence([PulseSegment(window, 0.0, p.omega_x, r * p.omega_x)])

        def p0(t, seq=seq):
            u00 = evolve(p, seq, np.ravel(t), "rwa")[:, 1, 1]
            return np.abs(u00.reshape(np.shape(t))) ** 2

        vals = p0(ts)
        i = int(np.argmin(vals))
        # in the offset u from the grid argmin: the minimizer's tolerance,
        # xatol / 3 + 1.5e-8 |u|, then holds the score to about 1e-18
        res = minimize_scalar(lambda u, t=ts[i], p0=p0: p0(t + u),
                              bounds=(ts[max(i - 1, 0)] - ts[i], ts[min(i + 1, n - 1)] - ts[i]),
                              method="bounded", options={"xatol": 1e-13})
        out.append(min(float(res.fun), float(vals[i])))
    return out


class TestRatioScan:
    @settings(max_examples=60)
    @given(st.floats(0.2, 2.0), st.floats(2.1, 6.0), st.floats(0.05, 1.0), st.floats(-1.0, 1.0),
           st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12))
    def test_scores_equal_the_full_propagator_scores(self, mu, drive, ex, ey, ratios):
        p = SystemParams(D=500.0, muB=mu, omega_x=drive * mu, Ex=ex, Ey=ey)
        window = 1.5 * 2.0 * math.pi / math.sqrt(mu * mu + p.omega_x ** 2 / 4.0)
        got = calib._min_ground_populations(p, ratios, window)
        want = min_ground_populations_by_propagators(p, ratios, window)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-15

    def test_compensation_config_best_ratio_pinned(self):
        # configs/calibrate_ex_compensation.json's system and grid: the
        # refined ratio, bit for bit, and within a few ulp of the exact one
        cfg = json.loads((CONFIGS / "calibrate_ex_compensation.json").read_text())
        res = ratio_scan(SystemParams(**cfg["system"]), cfg["ratio_grid"])
        assert res.best_ratio == 0.41421356237309576
        assert abs(res.best_ratio - compensation_ratio(0.7, -0.7)) <= 1e-14

    def test_lands_on_the_compensating_ratio_of_random_systems(self):
        # seeded dressed systems and grids around r*: wherever the ground
        # state empties at r* and r* lies in the grid argmin's bracket, the
        # refinement lands on r*.  The first case is one that refining
        # only the ratio's sampled score missed by 3.7e-3.
        rng = np.random.default_rng(34)
        cases = [((0.8440313540763265, 3.728736494506787, 0.5929533391932729,
                   -0.3562612178481157), np.linspace(0.329939, 0.83118, 15))]
        for _ in range(200):
            mu, ex, ey = rng.uniform(0.2, 2.0), rng.uniform(0.05, 1.0), rng.uniform(-1.0, 1.0)
            r_star, span = compensation_ratio(ex, ey), rng.uniform(0.05, 1.0)
            lo = r_star - span * rng.uniform(0.05, 0.95)
            cases.append(((mu, rng.uniform(2.1, 6.0) * mu, ex, ey),
                          np.linspace(lo, lo + span, int(rng.integers(3, 40)))))
        kept = []
        for (mu, om, ex, ey), grid in cases:
            p = SystemParams(D=500.0, muB=mu, omega_x=om, Ex=ex, Ey=ey)
            r_star = compensation_ratio(ex, ey)
            window = 1.5 * 2.0 * math.pi / math.sqrt(mu * mu + om * om / 4.0)
            res = ratio_scan(p, grid)
            i = int(np.argmin(res.depletion))
            if (calib._min_ground_populations(p, [r_star], window)[0] < 1e-14
                    and 0 < i < len(grid) - 1 and grid[i - 1] <= r_star <= grid[i + 1]):
                kept.append(abs(res.best_ratio - r_star))
        assert len(kept) > 150 and max(kept) <= 1e-12

    def test_recovers_compensation_ratio(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=4.5, Ex=0.7, Ey=-0.7)
        r_star = compensation_ratio(0.7, -0.7)
        res = ratio_scan(p, np.linspace(0.0, 2 * r_star, 33))
        assert abs(res.best_ratio - r_star) < 1e-3
        assert min(res.depletion) < 1e-6

    def test_refinement_exact_on_coarse_grid(self):
        # the 17-point 0.05 grid of configs/calibrate_ex_compensation.json:
        # its neighbours lie outside the quadratic region of the depletion,
        # which a three-point parabola would miss by ~1e-3
        p = SystemParams(D=500.0, muB=1.0, omega_x=4.5, Ex=0.7, Ey=-0.7)
        res = ratio_scan(p, np.round(np.arange(17) * 0.05, 2))
        assert abs(res.best_ratio - compensation_ratio(0.7, -0.7)) < 1e-8

    def test_pure_x_field_best_ratio_minus_one(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0, Ex=0.5)
        res = ratio_scan(p, np.linspace(-1.4, -0.6, 33))
        assert abs(res.best_ratio - (-1.0)) < 1e-3

    def test_grid_excluding_true_ratio(self):
        # a grid shifted just past the resonance: the argmin sits on the
        # boundary point closest to the true ratio (no vertex extrapolation
        # outside the grid) and the depletion floor stays nonzero
        p = SystemParams(D=500.0, muB=1.0, omega_x=4.5, Ex=0.7, Ey=-0.7)
        grid = np.linspace(0.5, 0.58, 5)  # true ratio 0.414 lies below
        res = ratio_scan(p, grid)
        assert res.best_ratio == pytest.approx(0.5)  # closest grid point
        assert min(res.depletion) > 1e-5

    def test_grid_is_decomposed_once(self, monkeypatch):
        # one stack of the grid's H_rwa and one batched eigh; the refinement
        # then decomposes one row per score it evaluates
        shapes = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: (shapes.append(h.shape), real_eigh(h))[1])
        p = SystemParams(D=500.0, muB=1.0, omega_x=4.5, Ex=0.7, Ey=-0.7)
        ratio_scan(p, np.round(np.arange(17) * 0.05, 2))
        assert shapes[0] == (17, 3, 3)
        assert len(shapes) > 1 and set(shapes[1:]) == {(1, 3, 3)}

    def test_unsorted_grid_rejected(self):
        # refining between list neighbours of an unsorted grid brackets the
        # wrong interval: this one silently returned 0.45, not sqrt(2) - 1
        p = SystemParams(D=500.0, muB=1.0, omega_x=4.5, Ex=0.7, Ey=-0.7)
        with pytest.raises(ValueError, match="strictly increasing"):
            ratio_scan(p, [0.3, 0.45, 0.4, 0.5, 0.35])

    def test_requires_x_field_and_grid(self):
        with pytest.raises(ValueError):
            ratio_scan(P13, [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            ratio_scan(P13.replace(Ex=0.5), [0.1, 0.2])


# c + sum of three a cos(w x / scale) + b sin(w x / scale) terms, evaluated
# with math so both sides of a comparison see the same bits
COEF = st.floats(-2.0, 2.0)
COS_SUM = st.tuples(st.floats(-1.0, 1.0),
                    st.lists(st.tuples(COEF, COEF, st.floats(0.1, 10.0)),
                             min_size=3, max_size=3))
BRACKET = st.tuples(st.floats(-5.0, 5.0), st.floats(0.01, 10.0))
# features down to 1e-8 wide, so that a bracket can shrink to a few xtol
# while interpolation is still poor: only there does brentq's
# 3 |sbis| - delta bound decide between a step and a bisection
SCALE = st.integers(-8, 0).map(lambda k: 10.0 ** k)
RESONANT = st.tuples(st.floats(0.05, 2.0), st.floats(2.1, 8.0))


def cos_sum(c, terms, scale=1.0):
    return lambda x: c + sum(a * math.cos(w * x / scale) + b * math.sin(w * x / scale)
                             for a, b, w in terms)


def first_sign_change(f, lo, hi, n=64):
    """[lo, hi] if f changes sign over it, else the first such cell of an
    n-point grid, else None."""
    if f(lo) * f(hi) < 0.0:
        return lo, hi
    xs = np.linspace(lo, hi, n)
    for a, b in zip(xs[:-1], xs[1:]):
        if f(a) * f(b) < 0.0:
            return float(a), float(b)
    return None


class TestBrentPorts:
    """calib's Brent root finder gives scipy's bits."""

    @settings(max_examples=400)
    @given(COS_SUM, BRACKET, SCALE, st.floats(1e-15, 1e-6), st.floats(4 * 2.0 ** -52, 1e-6))
    # a case that the 3 |sbis| - delta bound sends to bisection
    @example((-0.2, [(-1.6, 0.4, 7.0), (0.4, -0.6, 6.5), (-1.0, 1.4, 8.8)]),
             (0.8, 5.7), 1e-7, 7e-8, 1e-15)
    # values near 1e-114, whose extrapolation denominator underflows to 0
    @example((0.0, [(0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 7.97366150462496e-115, 2.0)]),
             (2.0, 2.0), 1.0, 9.658437359094018e-07, 5.379308608749283e-08)
    def test_brentq_equals_scipy(self, fn, bracket, scale, xtol, rtol):
        f = cos_sum(*fn, scale)
        lo, width = bracket
        ends = first_sign_change(f, lo * scale, (lo + width) * scale)
        assume(ends is not None)
        assert calib.brentq(f, *ends, xtol, rtol) == scipy_brentq(f, *ends, xtol=xtol, rtol=rtol)

    @settings(max_examples=50)
    @given(RESONANT, st.floats(1e-15, 1e-6))
    def test_rwa_amplitude_equals_scipy(self, mu_ratio, xtol):
        mu, ratio = mu_ratio
        p = SystemParams(D=500.0, muB=mu, omega_x=ratio * mu)
        amp = _ground_amplitude_fn(p, "rwa")
        ends = first_sign_change(amp, 0.0, 1.5 * characteristic_quantities(p).T_total)
        assert ends is not None
        assert calib.brentq(amp, *ends, xtol, 1e-15) == scipy_brentq(amp, *ends, xtol=xtol,
                                                                    rtol=1e-15)

    def test_brentq_sign_mismatch_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            calib.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-14, 1e-15)
        with pytest.raises(ValueError, match="NaN"):
            calib.brentq(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0, 1e-14, 1e-15)
