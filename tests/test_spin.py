import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary3, random_plain_params, rwa_hamiltonian
from nverc import StateVector3, SystemParams, Unitary3, phi_state
from nverc.spin import KET_0, KET_M1, KET_MINUS, KET_P1, KET_PLUS, SX, SY, SZ


class TestSpinMatrices:
    def test_sz_diagonal(self):
        assert np.allclose(np.diag(SZ), [1, 0, -1])
        assert np.allclose(np.linalg.eigvalsh(SZ), [-1, 0, 1])

    def test_su2_commutators(self):
        for a, b, c in ((SX, SY, SZ), (SY, SZ, SX), (SZ, SX, SY)):
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-14

    def test_quadrupolar_splitting(self):
        # D Sz^2 splits the |+-1> doublet from |0> by exactly D
        d = 2.87
        assert np.allclose(np.diag(SZ @ SZ), [1, 0, 1])
        levels = np.linalg.eigvalsh(d * SZ @ SZ)
        assert np.allclose(levels, [0.0, d, d])

    def test_plus_minus_basis(self):
        assert abs(np.vdot(KET_PLUS, KET_MINUS)) < 1e-14
        assert abs(np.vdot(KET_PLUS, KET_PLUS) - 1) < 1e-14
        assert abs(np.vdot(KET_MINUS, KET_MINUS) - 1) < 1e-14
        assert np.allclose(KET_PLUS, (KET_P1 + KET_M1) / np.sqrt(2))


class TestPhiState:
    def test_zero_angle_is_minus_state(self):
        s = phi_state(0.0)
        assert np.allclose(s.amps, -KET_MINUS, atol=1e-15)

    @given(st.floats(0.0, 2.0 * math.pi, allow_nan=False))
    @settings(max_examples=60)
    def test_antipodal_orthogonality(self, lam):
        assert abs(phi_state(lam).overlap(phi_state(lam + math.pi))) < 1e-14

    def test_orthonormal_pair_grid(self):
        for lam in np.linspace(0.0, 2.0 * math.pi, 100):
            a, b = phi_state(lam), phi_state(lam + math.pi)
            gram = np.array([[a.overlap(a), a.overlap(b)],
                             [b.overlap(a), b.overlap(b)]])
            assert np.max(np.abs(gram - np.eye(2))) < 1e-14

    def test_depletion_target_matches_propagated_ground_state(self):
        # Independent oracle: matrix exponential of the rotating-wave
        # Hamiltonian at the depletion time.  The state reached from |0>
        # is the equatorial family member at parameter 2*arccos(2 muB/om):
        # full-angle exponents, not half-angle.
        from scipy.linalg import expm

        from nverc.pulses import PulseSegment

        muB, om = 1.0, 3.0
        p = SystemParams(D=500.0, muB=muB, omega_x=om)
        obar = math.sqrt(muB**2 + om**2 / 4)
        t_prime = math.acos(-4 * muB**2 / om**2) / obar
        h = rwa_hamiltonian(p, PulseSegment(t_prime, 0.0, om))
        psi = expm(-1j * h * t_prime) @ KET_0

        phi = math.acos(2 * muB / om)
        assert abs(np.vdot(phi_state(2 * phi).amps, psi)) > 1 - 1e-12
        # the half-angle member at phi itself is NOT the reached state
        assert abs(np.vdot(phi_state(phi).amps, psi)) < 1 - 1e-3


class TestValueTypes:
    def test_state_normalization(self):
        s = StateVector3(np.array([1.0, 0, 1e-10]))
        assert abs(np.linalg.norm(s.amps) - 1) < 1e-15

    def test_state_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            StateVector3(np.array([1.0, 1.0, 0.0]))

    def test_unitary_validation(self):
        with pytest.raises(ValueError):
            Unitary3(np.eye(3) * 1.001)
        u = Unitary3(np.eye(3))
        assert u.frame.value == "interaction-D"

    def test_norm_preserved_by_unitaries(self, rng):
        for _ in range(40):
            u = Unitary3(haar_unitary3(rng))
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            s = StateVector3.from_unnormalized(v)
            assert abs(np.linalg.norm(u.apply(s).amps) - 1.0) < 1e-12

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SystemParams(D=-1.0, muB=1.0, omega_x=3.0)
        with pytest.raises(ValueError):
            SystemParams(D=500.0, muB=-0.5, omega_x=3.0)
        with pytest.raises(ValueError):
            SystemParams(D=500.0, muB=float("nan"), omega_x=3.0)

    def test_regime_flag_does_not_clamp(self, rng):
        p = SystemParams(D=500.0, muB=1.0, omega_x=1.5)
        assert not p.regime_valid()
        assert p.omega_x == 1.5
        for p2 in random_plain_params(rng, 10):
            assert p2.regime_valid()
