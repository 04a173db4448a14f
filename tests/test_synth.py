import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHILD_ENV
from nverc import (AxisDegenerateError, DQRotation, NoConvergenceError, PulseSequence,
                   RotationAxis, SystemParams, characteristic_quantities,
                   compensation_ratio, dq_block, dq_gate_fidelity, dq_rotation, erc,
                   evolve, phi_state, spin, synth, synthesize_gate)
from nverc.synth import (_ANGLE_TOL, _K_MAX, _angle, _axes, _axis_line_angle, _other,
                         _rotate, _shortest, _unitary_quaternion, compose_rotations,
                         haar_unitary2, rotation_quaternion)

P13 = SystemParams(D=500.0, muB=1.0, omega_x=3.0)
# drive putting the two rotation axes exactly 90 degrees apart (4 phi = pi/2)
OMEGA_ORTHO = 2.0 / math.cos(math.pi / 8.0)
P_ORTHO = SystemParams(D=500.0, muB=1.0, omega_x=OMEGA_ORTHO)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def three_rotation_feasible(phi, q_target, outer):
    """Reachability of the (outer, other, outer) three-rotation ansatz:
    the target's vector part lies within sin(4 phi) of the outer axis."""
    a = _axes(phi)[outer]
    v = q_target[1:]
    v_perp = v - (v @ a) * a
    return float(v_perp @ v_perp) <= math.sin(4.0 * phi) ** 2 + 1e-12


def reachable(phi, q_target, first, length):
    """Whether ``length`` alternating rotations starting about ``first``
    can realize the target: the reach test of the synth module docstring,
    tried at one length."""
    ax = _axes(phi)
    f = ax[first]
    l = f if length % 2 else ax[_other(first)]
    change = _angle(l, _rotate(q_target, f)) - _angle(l, f)
    return abs(change) <= 2 * ((length - 1) // 2) * _axis_line_angle(phi) + _ANGLE_TOL


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


@st.composite
def resonant_systems(draw):
    """A plain system, or a dressed one (Ex, Ey) whose second tone restores
    the Raman resonance, driven inside the resonant regime."""
    mu = draw(st.floats(0.05, 2.0))
    if draw(st.booleans()):
        return SystemParams(D=500.0, muB=mu, omega_x=mu * draw(st.floats(2.05, 8.0)))
    ex = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    ey = draw(st.floats(-1.0, 1.0))
    r = compensation_ratio(ex, ey)
    p = SystemParams(D=500.0, muB=mu, omega_x=1.0, Ex=ex, Ey=ey)
    om = p.muB_eff() * draw(st.floats(2.05, 8.0)) / math.hypot(1.0, r)
    return p.replace(omega_x=om, omega_y=r * om)


ROTATION = st.builds(DQRotation, st.sampled_from(RotationAxis), st.floats(-math.pi, math.pi))


class TestRotationStack:
    @settings(max_examples=150)
    @given(resonant_systems(),
           st.sampled_from([0, 1, 9]).flatmap(lambda n: st.lists(ROTATION, min_size=n,
                                                                 max_size=n)))
    def test_stack_equals_per_rotation_gates_and_program(self, p, rotations):
        # one stack of closed forms against one dq_rotation per rotation,
        # and the finalised program against its propagation by segments
        stack, segments = erc._dq_rotations(p, [r.axis for r in rotations],
                                            [r.theta for r in rotations])
        assert stack.shape == (len(rotations), 3, 3)
        u = np.eye(3, dtype=complex)
        for r, ur in zip(rotations, stack):
            want = dq_rotation(p, r)[0].m
            assert np.max(np.abs(ur - want)) <= 1e-14
            u = want @ u
        assert segments == [s for r in rotations for s in dq_rotation(p, r)[1].segments]
        res = synth._finalize(p, rotations, dq_block(u))
        assert res.sequence == PulseSequence(segments)
        assert np.max(np.abs(res.unitary.m - u)) <= 1e-14
        # evolve chains 2 segments per rotation, each adding up to ~2e-15 of rounding
        bound = 1e-14 + 3e-15 * len(rotations)
        assert np.max(np.abs(res.unitary.m - evolve(p, res.sequence)[0])) <= bound

    def test_synthesis_builds_one_unitary_and_no_rotation_gate(self, monkeypatch):
        # the program's unitary is its result's only Unitary3; dq_rotation,
        # under any alias inside the package, is not called
        made, calls = [], []
        real_init, real_rotation = spin.Unitary3.__init__, erc.dq_rotation
        monkeypatch.setattr(spin.Unitary3, "__init__",
                            lambda self, *a, **k: (made.append(1), real_init(self, *a, **k))[1])
        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "nverc"]:
            for key, value in list(vars(mod).items()):
                if value is real_rotation:
                    monkeypatch.setattr(mod, key, lambda *a, **k: (calls.append(1),
                                                                   real_rotation(*a, **k))[1])
        res = synthesize_gate(P13, X)
        assert len(res.rotations) == 15
        assert len(made) == 1 and calls == []


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
            out = evolve(P_ORTHO, res.sequence, method="analytic")[-1] @ phi_state(lam).amps
            assert abs(out[1]) ** 2 < 1e-9

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
        # narrow axis separation: both axes sit near the Bloch x direction,
        # so a pi rotation about y needs 25 rotations, beyond the budget of
        # 16, and the failure must carry the best residual
        p = SystemParams(D=500.0, muB=1.0, omega_x=2.001)
        y_gate = np.array([[0, -1j], [1j, 0]], dtype=complex)
        with pytest.raises(NoConvergenceError) as err:
            synthesize_gate(p, y_gate)
        assert 0 < err.value.residual <= 2.0

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            synthesize_gate(P13, np.eye(3))
        with pytest.raises(ValueError):
            synthesize_gate(P13, 1.001 * np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_target(self, bad):
        # named as such, not numpy's failed SVD of the unitarity check
        with pytest.raises(ValueError, match="non-finite"):
            synthesize_gate(P13, np.array([[bad, 1.0], [1.0, 0.0]]))

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
                assert reachable(phi, qt, axis, 3) == feasible
                seen.add(feasible)
        assert seen == {True, False}

    def test_budget_is_decided_by_the_minimal_length(self):
        # the budget is 16 rotations: Z needs exactly 16 for drives in
        # [2.00242, 2.00315] muB, Y needs 17 in [2.00214, 2.00274] muB
        # (Y lengths are odd); each drive sits mid-band
        z_gate = np.diag([1.0, -1.0]).astype(complex)
        res = synthesize_gate(SystemParams(D=500.0, muB=1.0, omega_x=2.0028), z_gate)
        assert len(res.rotations) == _K_MAX == 16
        assert res.fidelity >= 1 - 1e-9
        y_gate = np.array([[0, -1j], [1j, 0]], dtype=complex)
        with pytest.raises(NoConvergenceError) as err:
            synthesize_gate(SystemParams(D=500.0, muB=1.0, omega_x=2.0024), y_gate)
        assert err.value.n_rotations == 17
        assert 0 < err.value.residual <= 1

    @settings(max_examples=200, deadline=None)
    @given(phi=st.floats(1.2e-3, 0.7), seed=st.integers(0, 2**32 - 1))
    def test_closed_form_length_is_the_first_passing_the_reach_test(self, phi, seed):
        # the oracle is the reach test tried length by length; two shorter
        # lengths cover both parities, and it is monotone within a parity
        qt = _unitary_quaternion(haar_unitary2(np.random.default_rng(seed)))
        length, first = _shortest(phi, qt)
        assert reachable(phi, qt, first, length)
        for shorter in range(max(length - 2, 1), length):
            for axis in RotationAxis:
                assert not reachable(phi, qt, axis, shorter)
        if first is RotationAxis.PLUS_PHI:
            assert not reachable(phi, qt, RotationAxis.MINUS_PHI, length)

    def test_far_beyond_budget_reports_the_minimal_length(self):
        # phi = 1.2e-3: Y needs 655 rotations, found without trying each
        p = SystemParams(D=500.0, muB=1.0, omega_x=2.0 / math.cos(1.2e-3))
        y_gate = np.array([[0, -1j], [1j, 0]], dtype=complex)
        with pytest.raises(NoConvergenceError) as err:
            synthesize_gate(p, y_gate)
        assert err.value.n_rotations == 655

    def test_synthesis_leaves_scipy_optimize_unloaded(self):
        code = ("import sys, numpy as np; from nverc import SystemParams, synthesize_gate; "
                "synthesize_gate(SystemParams(D=500.0, muB=1.0, omega_x=3.0), "
                "np.array([[0, 1], [1, 0]], dtype=complex)); "
                "sys.exit('scipy.optimize' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], env=CHILD_ENV).returncode == 0
