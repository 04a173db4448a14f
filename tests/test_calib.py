import math

import numpy as np
import pytest

from nverc import (ExtractionError, StateVector3, SystemParams,
                   apply_sequence, characteristic_quantities,
                   compensation_ratio, ey_characteristics, not_gate_sequence,
                   rabi_extract, ratio_scan, simulate_odmr)
from nverc.calib import _ground_amplitude_fn
from nverc.pulses import PulseSegment, PulseSequence
from nverc.spin import KET_P1

P13 = SystemParams(D=500.0, muB=1.0, omega_x=3.0)

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
        q = ey_characteristics(p)
        ex = rabi_extract(p, t_max=1.5 * q.T_total, method="rwa")
        assert abs(ex.T_prime - q.T_prime) < 1e-6
        assert abs(ex.T_total - q.T_total) < 1e-6
        assert abs(ex.phi - q.phi) < 1e-6

    def test_lab_matches_analytic_within_rotating_wave_bound(self):
        q = characteristic_quantities(P13)
        bound = P13.omega_x / P13.carrier
        ana = rabi_extract(P13, t_max=1.5 * q.T_total, n_points=64)
        lab = rabi_extract(P13, t_max=1.5 * q.T_total, n_points=64, method="lab")
        assert lab.method == "lab_numeric"
        assert abs(lab.T_prime - ana.T_prime) < bound * ana.T_prime
        assert abs(lab.T_total - ana.T_total) < bound * ana.T_total

    def test_lab_amplitude_over_array_equals_per_time_calls(self):
        amp = _ground_amplitude_fn(P13, "lab")
        ts = np.linspace(0.0, 4.0, 9)
        vals = amp(ts)
        assert vals.shape == ts.shape
        assert np.array_equal(vals, [amp(t) for t in ts])
        assert amp(0.0) == 1.0

    def test_window_and_sampling_validation(self):
        with pytest.raises(ValueError):
            rabi_extract(P13, t_max=1.0)
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
        a = apply_sequence(P13, not_gate_sequence(P13), s0)
        b = apply_sequence(P13, seq_est, s0)
        assert abs(np.vdot(a.amps, b.amps)) >= 1 - 1e-6


class TestRatioScan:
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
