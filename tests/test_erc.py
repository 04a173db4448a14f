import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm
from scipy.optimize import brentq

from conftest import random_plain_params, rwa_hamiltonian
from nverc import (DQRotation, PulseSegment, PulseSequence, RegimeError,
                   RotationAxis, StateVector3, SystemParams, bright_dark,
                   characteristic_quantities, closed_form_unitary,
                   compensation_ratio, dq_rotation, erc, erc_unitary, evolve,
                   not_gate_sequence, phi_state, sequence_unitary)
from nverc.ham import dressing_matrix, hamiltonian_rwa_stack
from nverc.spin import KET_0, KET_M1, KET_MINUS, KET_P1, KET_PLUS

P13 = SystemParams(D=500.0, muB=1.0, omega_x=3.0)

# frozen oracle values for muB=1, omega=3 (root of the propagated
# ground-state amplitude, see test_depletion_time_against_propagator)
T_PRIME_13 = 1.126790420260940
T_TOTAL_13 = 3.485284122811993
PHI_13 = 0.841068670567930


def rwa_h(p, alpha=0.0):
    return rwa_hamiltonian(p, PulseSegment(1.0, alpha, p.omega_x, p.omega_y))


class TestCharacteristicQuantities:
    def test_boundary_drive_half_period(self):
        q = characteristic_quantities(SystemParams(D=500.0, muB=1.0, omega_x=2.0))
        assert abs(q.omega_bar - math.sqrt(2.0)) < 1e-14
        assert abs(q.T_prime - math.pi / math.sqrt(2.0)) < 1e-14
        assert abs(q.T_prime - q.T_total / 2.0) < 1e-13
        assert q.phi == 0.0

    def test_zero_field_limit(self):
        q = characteristic_quantities(SystemParams(D=500.0, muB=0.0, omega_x=1.0))
        assert abs(q.omega_bar - 0.5) < 1e-15
        assert abs(q.T_prime - math.pi) < 1e-14
        assert abs(q.T_total - 4.0 * math.pi) < 1e-13
        assert abs(q.phi - math.pi / 2.0) < 1e-15

    def test_reference_case_frozen_values(self):
        q = characteristic_quantities(P13)
        assert abs(q.T_prime - T_PRIME_13) < 1e-12
        assert abs(q.T_total - T_TOTAL_13) < 1e-12
        assert abs(q.phi - PHI_13) < 1e-12

    def test_depletion_time_against_propagator(self):
        # oracle: first zero of <0|U_num(t)|0> under numerical propagation
        h = rwa_h(P13)
        amp = lambda t: float(np.real(expm(-1j * h * t)[1, 1]))
        root = brentq(amp, 0.5, 2.0, xtol=1e-14)
        assert abs(root - characteristic_quantities(P13).T_prime) < 1e-10
        assert abs(root - T_PRIME_13) < 1e-12

    def test_identities_random(self, rng):
        for p in random_plain_params(rng, 50):
            q = characteristic_quantities(p)
            assert abs(q.omega_bar**2 - (p.muB**2 + p.omega_x**2 / 4)) < 1e-12 * q.omega_bar**2
            assert abs(q.T_prime + q.T_second - q.T_total) < 1e-12
            assert q.T_total / 4 - 1e-12 <= q.T_prime <= q.T_total / 2 + 1e-12
            assert abs(math.cos(q.phi) - 2 * p.muB / p.omega_x) < 1e-12

    def test_regime_error_reports_minimal_drive(self):
        with pytest.raises(RegimeError) as err:
            characteristic_quantities(SystemParams(D=500.0, muB=1.0, omega_x=1.5))
        assert err.value.omega_min == pytest.approx(2.0)


class TestBrightDark:
    def test_zero_field_limit(self):
        p = SystemParams(D=500.0, muB=0.0, omega_x=1.0)
        alpha = 0.8
        b, d = bright_dark(p, alpha)
        assert abs(np.vdot(b.amps, np.exp(-1j * alpha) * KET_0)) > 1 - 1e-14
        assert np.max(np.abs(b.amps - np.exp(-1j * alpha) * KET_0)) < 1e-14
        from nverc.spin import KET_MINUS
        assert np.max(np.abs(d.amps - np.exp(1j * alpha) * KET_MINUS)) < 1e-14

    def test_orthonormal_and_dark(self, rng):
        for p in random_plain_params(rng, 20):
            alpha = rng.uniform(0, 2 * math.pi)
            b, d = bright_dark(p, alpha)
            assert abs(b.overlap(d)) < 1e-13
            assert abs(np.linalg.norm(b.amps) - 1) < 1e-13
            assert np.linalg.norm(rwa_h(p, alpha) @ d.amps) < 1e-13

    def test_reference_components(self):
        # direct evaluation of the defining expressions
        muB, om, alpha = 1.0, 3.0, math.pi / 4
        obar = math.sqrt(muB**2 + om**2 / 4)
        from nverc.spin import KET_MINUS
        want_b = (muB * KET_MINUS + np.exp(-1j * alpha) * (om / 2) * KET_0) / obar
        want_d = (-muB * KET_0 + np.exp(1j * alpha) * (om / 2) * KET_MINUS) / obar
        b, d = bright_dark(SystemParams(D=500.0, muB=muB, omega_x=om), alpha)
        assert np.max(np.abs(b.amps - want_b)) < 1e-14
        assert np.max(np.abs(d.amps - want_d)) < 1e-14


class TestErcUnitary:
    def test_zero_time_identity(self):
        assert np.allclose(erc_unitary(P13, 0.0, 0.3).m, np.eye(3), atol=1e-14)

    def test_full_period_identity(self, rng):
        for p in random_plain_params(rng, 20):
            q = characteristic_quantities(p)
            for alpha in np.linspace(0, 2 * math.pi, 8):
                u = erc_unitary(p, q.T_total, alpha)
                assert np.linalg.norm(u.m - np.eye(3), 2) < 1e-10

    def test_ground_state_depletion(self):
        q = characteristic_quantities(P13)
        for alpha in np.linspace(0, 2 * math.pi, 8):
            assert abs(erc_unitary(P13, q.T_prime, alpha).m[1, 1]) < 1e-10

    def test_matches_matrix_exponential(self, rng):
        for p in random_plain_params(rng, 25):
            t = rng.uniform(0, 10.0)
            alpha = rng.uniform(0, 2 * math.pi)
            u_ref = expm(-1j * rwa_h(p, alpha) * t)
            assert np.max(np.abs(erc_unitary(p, t, alpha).m - u_ref)) < 1e-12

    def test_composition_law(self, rng):
        for p in random_plain_params(rng, 20):
            t1, t2 = rng.uniform(0, 5.0, 2)
            alpha = rng.uniform(0, 2 * math.pi)
            lhs = erc_unitary(p, t1 + t2, alpha).m
            rhs = erc_unitary(p, t2, alpha).m @ erc_unitary(p, t1, alpha).m
            assert np.linalg.norm(lhs - rhs, 2) < 1e-10


class TestBatchedErcMatrix:
    TS = np.linspace(0.0, 7.5, 41)

    @pytest.mark.parametrize("p", [
        P13,
        # dressed: transverse field with the compensating second tone
        SystemParams(D=500.0, muB=1.0, omega_x=4.5, Ex=0.7, Ey=-0.3,
                     omega_y=compensation_ratio(0.7, -0.3) * 4.5),
    ])
    def test_array_form_equals_stacked_scalar_calls(self, p):
        for alpha in (0.0, 1.1, math.pi):
            batch = erc._erc_matrix(p, self.TS, alpha)
            stacked = np.stack([erc_unitary(p, t, alpha).m for t in self.TS])
            assert batch.shape == (len(self.TS), 3, 3)
            assert np.max(np.abs(batch - stacked)) < 1e-14
        grid = erc._erc_matrix(p, self.TS.reshape(41, 1) * [1.0, 0.5], 0.3)
        assert grid.shape == (41, 2, 3, 3)
        assert np.max(np.abs(grid[:, 1] - erc._erc_matrix(p, 0.5 * self.TS, 0.3))) < 1e-14

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            erc._erc_matrix(P13, np.array([0.0, 1.0, -1e-12]), 0.0)


def cos_sin_form(p, t, alpha):
    """U(t, alpha) as cos(obar t)(P_B + P_+) - i sin(obar t)(|B_a><+| + |+><B_a|)
    + P_D of the effective plain system, conjugated by the dressing G: the
    projector form the spectral form replaced, kept as its oracle."""
    mu, om = p.muB_eff(), p.omega_eff()
    obar = math.sqrt(mu * mu + om * om / 4.0)
    b = (mu * KET_MINUS + np.exp(-1j * alpha) * (om / 2.0) * KET_0) / obar
    d = (-mu * KET_0 + np.exp(1j * alpha) * (om / 2.0) * KET_MINUS) / obar
    pbp = np.outer(b, b.conj()) + np.outer(KET_PLUS, KET_PLUS.conj())
    x = np.outer(b, KET_PLUS.conj()) + np.outer(KET_PLUS, b.conj())
    c = np.cos(obar * t)[..., None, None]
    s = np.sin(obar * t)[..., None, None]
    g = dressing_matrix(p)
    return g @ (c * pbp - 1j * s * x + np.outer(d, d.conj())) @ g.conj().T


@st.composite
def resonant_systems(draw):
    """A plain system, or a dressed one: a transverse field (Ex, Ey) with the
    compensating second tone, or a pure-y field with one tone; the drive
    1.05-8 times its threshold 2 muB_eff."""
    mu = draw(st.floats(0.05, 2.0))
    kind = draw(st.sampled_from(["plain", "compensated", "pure_y"]))
    ex = 0.0
    if kind == "compensated":
        ex = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    ey = 0.0 if kind == "plain" else draw(st.floats(-1.0, 1.0))
    ratio = compensation_ratio(ex, ey) if ex else 0.0
    omega = 2.0 * math.sqrt(mu * mu + ex * ex + ey * ey) * draw(st.floats(1.05, 8.0))
    ox = omega / math.hypot(1.0, ratio)
    return SystemParams(D=500.0, muB=mu, omega_x=ox, omega_y=ratio * ox, Ex=ex, Ey=ey)


class TestSpectrum:
    @settings(max_examples=60)
    @given(p=resonant_systems(),
           alphas=hnp.arrays(float, st.integers(1, 6), elements=st.floats(-7.0, 7.0)),
           ts=hnp.arrays(float, st.integers(1, 6), elements=st.floats(0.0, 20.0)))
    def test_eigenpairs_of_the_rotating_wave_hamiltonian(self, p, alphas, ts):
        w, v = erc._spectrum(p, alphas)
        assert v.shape == alphas.shape + (3, 3)
        eye = np.broadcast_to(np.eye(3), v.shape)
        assert np.max(np.abs(v.conj().swapaxes(-1, -2) @ v - eye)) < 1e-14
        h = hamiltonian_rwa_stack([p] * len(alphas),
                                  [PulseSegment(1.0, a, p.omega_x, p.omega_y) for a in alphas])
        assert np.max(np.abs(h @ v - v * w)) < 1e-13
        for alpha in alphas:
            got = erc._erc_matrix(p, ts, alpha)
            assert np.max(np.abs(got - cos_sin_form(p, ts, alpha))) < 1e-14

    def test_scalar_phase_and_bright_dark_columns(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=4.5, Ex=0.7, Ey=-0.3,
                         omega_y=compensation_ratio(0.7, -0.3) * 4.5)
        w, v = erc._spectrum(p, 0.4)
        q = characteristic_quantities(p)
        assert v.shape == (3, 3) and w.tolist() == [q.omega_bar, 0.0, -q.omega_bar]
        b, d = bright_dark(p, 0.4)
        assert np.max(np.abs(b.amps - (v[:, 0] - v[:, 2]) / math.sqrt(2.0))) < 1e-15
        assert np.array_equal(d.amps, v[:, 1] / np.linalg.norm(v[:, 1]))


class TestClosedForms:
    def test_equal_to_evolution_at_characteristic_times(self, rng):
        for p in random_plain_params(rng, 50):
            q = characteristic_quantities(p)
            alpha = rng.uniform(0, 2 * math.pi)
            d1 = closed_form_unitary(p, "Tprime", alpha).m - erc_unitary(p, q.T_prime, alpha).m
            d2 = closed_form_unitary(p, "Tsecond", alpha).m - erc_unitary(p, q.T_second, alpha).m
            assert np.linalg.norm(d1, 2) < 1e-9
            assert np.linalg.norm(d2, 2) < 1e-9

    def test_pair_composes_to_identity(self, rng):
        for p in random_plain_params(rng, 10):
            alpha = rng.uniform(0, 2 * math.pi)
            prod = closed_form_unitary(p, "Tsecond", alpha).m @ closed_form_unitary(p, "Tprime", alpha).m
            assert np.linalg.norm(prod - np.eye(3), 2) < 1e-12

    @settings(max_examples=100)
    @given(p=resonant_systems(), alpha=st.floats(-7.0, 7.0))
    def test_dressed_forms_equal_evolution_and_compose_to_identity(self, p, alpha):
        # plain, compensated and pure-y systems: the axis states are dressed
        # as G v, where evolution dresses its eigenvectors
        q = characteristic_quantities(p)
        tp, ts = (closed_form_unitary(p, w, alpha).m for w in ("Tprime", "Tsecond"))
        assert np.max(np.abs(tp - erc_unitary(p, q.T_prime, alpha).m)) < 1e-14
        assert np.max(np.abs(ts - erc_unitary(p, q.T_second, alpha).m)) < 1e-14
        assert np.max(np.abs(ts @ tp - np.eye(3))) < 1e-14

    def test_zero_field_maps_ground_to_plus(self):
        # muB = 0: the depletion pulse sends |0> to a pure |+> superposition,
        # the 2*phi = pi member of the equatorial family
        p = SystemParams(D=500.0, muB=0.0, omega_x=1.0)
        psi = closed_form_unitary(p, "Tprime", 0.0).m @ KET_0
        assert abs(np.vdot(phi_state(math.pi).amps, psi)) > 1 - 1e-12
        assert abs(np.vdot(KET_PLUS, psi)) > 1 - 1e-12

    def test_invalid_selector(self):
        with pytest.raises(ValueError):
            closed_form_unitary(P13, "Thalf", 0.0)


class TestDQRotation:
    def test_population_swap(self):
        u, seq = dq_rotation(P13, DQRotation(RotationAxis.MINUS_PHI, math.pi))
        pops = np.abs(u.m @ KET_P1) ** 2
        assert abs(pops[2] - 1.0) < 1e-12
        pops0 = np.abs(u.m @ KET_0) ** 2
        assert abs(pops0[1] - 1.0) < 1e-12
        q = characteristic_quantities(P13)
        assert abs(seq.total_duration - q.T_total) < 1e-12

    def test_zero_angle_is_identity_up_to_phase(self):
        u, _ = dq_rotation(P13, DQRotation(RotationAxis.PLUS_PHI, 0.0))
        phase = u.m[1, 1]
        assert np.linalg.norm(u.m - phase * np.eye(3), 2) < 1e-12

    def test_spectral_structure(self, rng):
        for p in random_plain_params(rng, 10):
            q = characteristic_quantities(p)
            lam = 2 * q.phi
            theta = rng.uniform(-3.0, 3.0)
            for axis, sgn in ((RotationAxis.MINUS_PHI, -1), (RotationAxis.PLUS_PHI, +1)):
                u, _ = dq_rotation(p, DQRotation(axis, theta))
                pairs = [
                    (np.exp(-1j * theta), KET_0),
                    (np.exp(1j * theta), phi_state(sgn * lam).amps),
                    (1.0, phi_state(math.pi + sgn * lam).amps),
                ]
                for ev, vec in pairs:
                    assert np.linalg.norm(u.m @ vec - ev * vec) < 1e-9

    def test_base_phase_cancels_exactly(self, rng):
        theta = 1.234
        mats = []
        for alpha in np.linspace(0, 2 * math.pi, 9):
            u, seq = dq_rotation(P13, DQRotation(RotationAxis.MINUS_PHI, theta), alpha)
            mats.append(sequence_unitary(P13, seq).m)
        for m in mats[1:]:
            assert np.linalg.norm(m - mats[0], 2) < 1e-10

    def test_sequence_realizes_rotation(self, rng):
        for p in random_plain_params(rng, 8):
            theta = rng.uniform(-math.pi, math.pi)
            axis = RotationAxis.MINUS_PHI if rng.uniform() < 0.5 else RotationAxis.PLUS_PHI
            u, seq = dq_rotation(p, DQRotation(axis, theta), alpha=rng.uniform(0, 6.28))
            assert np.linalg.norm(sequence_unitary(p, seq).m - u.m, 2) < 1e-10

    def test_two_rotation_polarization(self):
        # quarter rotation after half rotation lands on the north pole when
        # started from the state obtained by back-propagating |+1>
        r1 = DQRotation(RotationAxis.PLUS_PHI, math.pi / 2)
        r2 = DQRotation(RotationAxis.MINUS_PHI, math.pi / 4)
        u1, s1 = dq_rotation(P13, r1)
        u2, s2 = dq_rotation(P13, r2)
        start = StateVector3(u1.m.conj().T @ (u2.m.conj().T @ KET_P1))
        assert abs(np.abs(start.amps[1]) ** 2) < 1e-12  # equatorial start
        seq = PulseSequence(list(s1.segments) + list(s2.segments))
        final = evolve(P13, seq, method="analytic")[-1] @ start.amps
        assert abs(final[0]) ** 2 > 1 - 1e-9


class TestApplySequence:
    def test_empty_sequence_is_noop(self):
        s = StateVector3(KET_P1)
        out = evolve(P13, PulseSequence([]))[-1] @ s.amps
        assert np.allclose(out, s.amps)

    def test_population_swap_analytic(self):
        out = evolve(P13, not_gate_sequence(P13))[-1] @ KET_P1
        assert abs(abs(out[2]) ** 2 - 1.0) < 1e-9

    def test_methods_agree_rwa(self):
        seq = not_gate_sequence(P13)
        a = evolve(P13, seq, method="analytic")[-1] @ KET_P1
        r = evolve(P13, seq, method="rwa")[-1] @ KET_P1
        assert abs(np.vdot(a, r)) > 1 - 1e-12

    def test_lab_agrees_within_rwa_error(self):
        # carrier 500x the field scale; empirical tolerance, see docs
        seq = not_gate_sequence(P13)
        lab = evolve(P13, seq, method="lab")[-1] @ KET_P1
        ana = evolve(P13, seq, method="analytic")[-1] @ KET_P1
        assert abs(np.vdot(lab, ana)) > 1 - 5e-3

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            evolve(P13, PulseSequence([]), method="magic")
