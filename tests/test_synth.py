import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nverc import (AxisDegenerateError, DQRotation, NoConvergenceError,
                   RotationAxis, StateVector3, SystemParams, apply_sequence,
                   characteristic_quantities, dq_block, dq_gate_fidelity,
                   dq_rotation, phi_state, synthesize_gate)
from nverc.synth import (_reachable, _unitary_quaternion, compose_rotations,
                         haar_unitary2, rotation_quaternion,
                         three_rotation_feasible)

P13 = SystemParams(D=500.0, muB=1.0, omega_x=3.0)
# drive putting the two rotation axes exactly 90 degrees apart (4 phi = pi/2)
OMEGA_ORTHO = 2.0 / math.cos(math.pi / 8.0)
P_ORTHO = SystemParams(D=500.0, muB=1.0, omega_x=OMEGA_ORTHO)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def quat_to_su2(q):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    return q[0] * np.eye(2) - 1j * (q[1] * sx + q[2] * sy + q[3] * sz)


class TestQuaternionModel:
    def test_model_matches_gate_matrices(self, rng):
        # the quaternion bookkeeping must reproduce the DQ block of the
        # actual two-pulse rotations up to a global phase
        q = characteristic_quantities(P13)
        for _ in range(20):
            rotations = [
                DQRotation(
                    RotationAxis.MINUS_PHI if rng.uniform() < 0.5 else RotationAxis.PLUS_PHI,
                    rng.uniform(-math.pi, math.pi),
                )
                for _ in range(rng.integers(1, 5))
            ]
            u = None
            for r in rotations:
                ur, _ = dq_rotation(P13, r)
                u = ur if u is None else ur @ u
            m = dq_block(u)
            model = quat_to_su2(compose_rotations(q.phi, rotations))
            assert dq_gate_fidelity(m, model) > 1 - 1e-12

    def test_rotation_quaternion_unit_norm(self, rng):
        for _ in range(10):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            qq = rotation_quaternion(n, rng.uniform(-math.pi, math.pi))
            assert abs(qq @ qq - 1.0) < 1e-14

    def test_feasibility_always_true_for_orthogonal_axes(self, rng):
        q = characteristic_quantities(P_ORTHO)
        assert abs(4 * q.phi - math.pi / 2) < 1e-12
        for _ in range(20):
            v = haar_unitary2(rng)
            from nverc.synth import _unitary_quaternion
            qt = _unitary_quaternion(v)
            assert three_rotation_feasible(q.phi, qt, RotationAxis.MINUS_PHI)


class TestSynthesizeGate:
    def test_identity_gives_empty_sequence(self):
        res = synthesize_gate(P13, np.eye(2))
        assert res.rotations == ()
        assert len(res.sequence) == 0
        assert res.fidelity >= 1 - 1e-12

    def test_population_swap_at_reference_drive(self):
        res = synthesize_gate(P13, X)
        assert res.fidelity >= 1 - 1e-9
        # block-diagonal: no coupling of |0> to the doublet
        assert abs(res.unitary.m[1, 0]) + abs(res.unitary.m[1, 2]) < 1e-12
        assert abs(res.unitary.m[0, 1]) + abs(res.unitary.m[2, 1]) < 1e-12

    def test_haar_targets_need_at_most_three_at_orthogonal_axes(self, rng):
        for i in range(20):
            target = haar_unitary2(rng)
            res = synthesize_gate(P_ORTHO, target)
            assert len(res.rotations) <= 3
            assert res.fidelity >= 1 - 1e-9

    def test_no_leakage_for_doublet_inputs(self, rng):
        res = synthesize_gate(P_ORTHO, haar_unitary2(rng))
        for lam in np.linspace(0, 2 * math.pi, 7):
            out = apply_sequence(P_ORTHO, res.sequence, phi_state(lam), method="analytic")
            assert out.populations()[1] < 1e-9

    def test_sequence_duration_multiple_of_period(self):
        q = characteristic_quantities(P_ORTHO)
        res = synthesize_gate(P_ORTHO, X)
        n = len(res.rotations)
        assert res.sequence.total_duration == pytest.approx(n * q.T_total, abs=1e-9)

    def test_degenerate_axes_near_threshold_drive(self):
        # omega barely above 2 muB: phi below the conditioning floor
        p = SystemParams(D=500.0, muB=1.0, omega_x=2.0 + 1e-7)
        with pytest.raises(AxisDegenerateError):
            synthesize_gate(p, X)

    def test_degenerate_axes_at_parallel_lines(self):
        # 4 phi = pi: the two rotation axes fall on one line
        p = SystemParams(D=500.0, muB=1.0, omega_x=2.0 * math.sqrt(2.0))
        with pytest.raises(AxisDegenerateError):
            synthesize_gate(p, X)

    def test_no_convergence_reports_residual(self):
        # narrow axis separation with a tight rotation budget: both axes sit
        # near the Bloch x direction, so a pi rotation about y is far out of
        # reach and the failure must carry the best residual
        p = SystemParams(D=500.0, muB=1.0, omega_x=2.001)
        y_gate = np.array([[0, -1j], [1j, 0]], dtype=complex)
        with pytest.raises(NoConvergenceError) as err:
            synthesize_gate(p, y_gate, max_rotations=4)
        assert 0 < err.value.residual <= 2.0

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            synthesize_gate(P13, np.eye(3))
        with pytest.raises(ValueError):
            synthesize_gate(P13, 1.001 * np.eye(2))

    def test_deterministic_given_seed(self):
        r1 = synthesize_gate(P_ORTHO, X)
        r2 = synthesize_gate(P_ORTHO, X)
        assert r1.rotations == r2.rotations

    def test_dressed_system_synthesis(self):
        # transverse-y field: targets are stated on the bare doublet basis
        p = SystemParams(D=500.0, muB=0.8, omega_x=0.8 * OMEGA_ORTHO, Ey=0.6 * 0.8)
        p = p.replace(omega_x=2.0 * p.muB_eff() / math.cos(math.pi / 8.0))
        res = synthesize_gate(p, X)
        assert res.fidelity >= 1 - 1e-9
        assert dq_gate_fidelity(dq_block(res.unitary), X) >= 1 - 1e-9


class TestMinimalLength:
    def test_lengths_pinned_from_the_search_solver(self):
        # the lengths the random-restart least-squares search found for the
        # same targets; the construction must not need more
        assert len(synthesize_gate(P13, X).rotations) == 15
        rng = np.random.default_rng(2024)
        lengths = [len(synthesize_gate(P13, haar_unitary2(rng)).rotations) for _ in range(8)]
        assert lengths == [8, 14, 7, 13, 3, 11, 10, 8]

    @settings(max_examples=60)
    @given(quarter=st.floats(0.3, 5.5).filter(lambda a: abs(a - math.pi) > 0.3),
           first=st.sampled_from(RotationAxis),
           angles=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8))
    def test_product_of_a_program_needs_no_more_rotations(self, quarter, first, angles):
        # drive putting the axes 4 phi = quarter apart, away from both
        # degeneracies; the synthesized gate may only be shorter
        p = SystemParams(D=500.0, muB=1.0, omega_x=2.0 / math.cos(quarter / 4.0))
        other = RotationAxis.PLUS_PHI if first is RotationAxis.MINUS_PHI else RotationAxis.MINUS_PHI
        u = None
        for i, theta in enumerate(angles):
            ur, _ = dq_rotation(p, DQRotation((first, other)[i % 2], theta))
            u = ur if u is None else ur @ u
        target = dq_block(u)
        res = synthesize_gate(p, target)
        assert len(res.rotations) <= len(angles)
        assert res.fidelity >= 1 - 1e-9
        assert abs(res.unitary.m[1, 0]) + abs(res.unitary.m[1, 2]) < 1e-12
        assert abs(res.unitary.m[0, 1]) + abs(res.unitary.m[2, 1]) < 1e-12

    def test_reach_test_at_three_is_the_closed_form_feasibility(self, rng):
        phi = characteristic_quantities(P13).phi
        seen = set()
        for _ in range(200):
            qt = _unitary_quaternion(haar_unitary2(rng))
            for axis in RotationAxis:
                feasible = three_rotation_feasible(phi, qt, axis)
                assert _reachable(phi, qt, axis, 3) == feasible
                seen.add(feasible)
        assert seen == {True, False}

    def test_budget_is_decided_by_the_minimal_length(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=2.001)
        y_gate = np.array([[0, -1j], [1j, 0]], dtype=complex)
        with pytest.raises(NoConvergenceError) as err:
            synthesize_gate(p, y_gate, max_rotations=24)
        assert err.value.n_rotations == 25
        assert 0 < err.value.residual <= 1
        res = synthesize_gate(p, y_gate, max_rotations=25)
        assert len(res.rotations) == 25
        assert res.fidelity >= 1 - 1e-9

    def test_synthesis_leaves_scipy_optimize_unloaded(self):
        code = ("import sys, numpy as np; from nverc import SystemParams, synthesize_gate; "
                "synthesize_gate(SystemParams(D=500.0, muB=1.0, omega_x=3.0), "
                "np.array([[0, 1], [1, 0]], dtype=complex)); "
                "sys.exit('scipy.optimize' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0
