import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from conftest import rwa_hamiltonian
from nverc import (DomainError, DQRotation, ExtractionError, NvErcError,
                   PulseSegment, PulseSequence, RegimeError, ResonanceError,
                   RotationAxis, SystemParams, bright_dark,
                   characteristic_quantities, closed_form_unitary,
                   compensation_ratio, dq_rotation, dressing_unitary,
                   effective_params, erc_unitary, evolve, not_gate_sequence,
                   phi_from_times, rabi_extract, synthesize_gate)
from nverc.ham import hamiltonian_lab

SQRT5_HALF = math.sqrt(5.0) / 2.0

# frozen oracle values (first zero of the propagated ground-state amplitude
# under the transverse-y Hamiltonian, muB=1, omega=3)
T_PRIME_EY05 = 1.154476251431120
PHI_EFF_EY07 = 0.620185992536958


class TestEyCharacteristics:
    def test_reduces_to_plain(self):
        # a pure transverse-y field acts as the plain system at muB_eff
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0, Ey=0.6)
        plain = SystemParams(D=500.0, muB=math.sqrt(1.0 + 0.6**2), omega_x=3.0)
        got = dataclasses.astuple(characteristic_quantities(p))
        assert got == pytest.approx(dataclasses.astuple(characteristic_quantities(plain)),
                                    rel=1e-14)

    def test_validity_boundary(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0, Ey=SQRT5_HALF * 0.999999)
        characteristic_quantities(p)  # still valid
        with pytest.raises(RegimeError):
            characteristic_quantities(p.replace(Ey=SQRT5_HALF * 1.000001))

    def test_matches_propagated_zero(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0, Ey=0.5)
        q = characteristic_quantities(p)
        # oracle: root of the numerically propagated ground-state amplitude
        h = rwa_hamiltonian(p, PulseSegment(1.0, 0.0, p.omega_x))
        amp = lambda t: float(np.real(expm(-1j * h * t)[1, 1]))
        root = brentq(amp, 0.4 * q.T_prime, 1.5 * q.T_prime, xtol=1e-14)
        assert abs(root - q.T_prime) < 1e-8
        assert abs(q.T_prime - T_PRIME_EY05) < 1e-12

    def test_total_period_monotone_decreasing(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0)
        eys = np.linspace(0.0, SQRT5_HALF * 0.98, 25)
        periods = [characteristic_quantities(p.replace(Ey=e)).T_total for e in eys]
        assert all(a > b for a, b in zip(periods, periods[1:]))


class TestPhiFromTimes:
    def test_half_ratio_gives_zero(self):
        assert phi_from_times(0.5, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_and_three_quarter_give_right_angle(self):
        assert phi_from_times(0.25, 1.0) == pytest.approx(math.pi / 2)
        assert phi_from_times(0.75, 1.0) == pytest.approx(math.pi / 2)

    def test_round_trip_with_transverse_y(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0, Ey=0.7)
        q = characteristic_quantities(p)
        rec = phi_from_times(q.T_prime, q.T_total)
        assert abs(rec - q.phi) < 1e-10
        assert abs(rec - PHI_EFF_EY07) < 1e-12

    @pytest.mark.parametrize("ratio", [0.2, 0.8, 1.1])
    def test_out_of_band_rejected(self, ratio):
        with pytest.raises(DomainError):
            phi_from_times(ratio, 1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            phi_from_times(0.0, 1.0)


class TestCompensationRatio:
    def test_antisymmetric_fields(self):
        assert compensation_ratio(0.7, -0.7) == pytest.approx(math.sqrt(2) - 1, abs=1e-15)

    def test_symmetric_fields(self):
        assert compensation_ratio(0.7, 0.7) == pytest.approx(1 - math.sqrt(2), abs=1e-15)

    def test_pure_x_field_sign_convention(self):
        # sign(0) := +1, so Ey = 0 gives ratio -1 (equal, opposite tone)
        assert compensation_ratio(0.5, 0.0) == pytest.approx(-1.0)

    def test_large_ratio_asymptote(self):
        # ratio -> -sign(q)/(2|q|) -> 0; relative check, the absolute value
        # is cancellation-limited at large q
        for q in (1e3, 1e6):
            r = compensation_ratio(1.0, q)
            assert abs(2.0 * q * r + 1.0) < 1e-4
            assert abs(r) < 1.0 / q

    def test_no_x_field_rejected(self):
        with pytest.raises(DomainError):
            compensation_ratio(0.0, 0.3)


class TestEffectiveParams:
    def test_plain_identity(self):
        p = SystemParams(D=500.0, muB=1.3, omega_x=3.0)
        ep = effective_params(p)
        assert ep.muB_eff == p.muB
        assert ep.omega_eff == p.omega_x
        assert ep.dq_frame_rotation == 0.0
        assert ep.carrier == 500.0

    def test_resonance_enforced(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=4.5, omega_y=0.3, Ex=0.7, Ey=-0.7)
        with pytest.raises(ResonanceError):
            effective_params(p)

    def test_compensated_values(self):
        r = compensation_ratio(0.7, -0.7)
        p = SystemParams(D=500.0, muB=1.0, omega_x=4.5, omega_y=r * 4.5,
                         Ex=0.7, Ey=-0.7, Ez=0.2)
        ep = effective_params(p)
        assert ep.muB_eff == pytest.approx(math.sqrt(1 + 2 * 0.49), abs=1e-12)
        assert ep.omega_eff == pytest.approx(4.5 * math.hypot(1, r), abs=1e-12)
        assert ep.carrier == pytest.approx(500.2)
        assert abs(ep.dq_frame_rotation) == pytest.approx(
            math.atan(math.sqrt(2) * 0.7 / 1.0), abs=1e-12)

    def test_pure_y_field_rotation_angle(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0, Ey=0.6)
        ep = effective_params(p)
        assert ep.dq_frame_rotation == pytest.approx(math.atan(0.6), abs=1e-14)

    def test_ground_state_depletes_at_effective_times(self):
        # the compensated two-tone system fully empties |0> at the effective
        # characteristic times (exact matrix-exponential check)
        r = compensation_ratio(0.7, -0.7)
        p = SystemParams(D=500.0, muB=1.0, omega_x=4.5, omega_y=r * 4.5,
                         Ex=0.7, Ey=-0.7)
        q = characteristic_quantities(p)
        h = rwa_hamiltonian(p, PulseSegment(1.0, 0.0, p.omega_x, p.omega_y))
        for t in (q.T_prime, q.T_second):
            p0 = abs(expm(-1j * h * t)[1, 1]) ** 2
            assert p0 < 1e-20

    def test_dressing_unitary_conjugates_dynamics(self):
        r = compensation_ratio(0.4, 0.9)
        p = SystemParams(D=500.0, muB=0.8, omega_x=5.0, omega_y=r * 5.0,
                         Ex=0.4, Ey=0.9)
        g = dressing_unitary(p).m
        p_eff = SystemParams(D=500.0, muB=p.muB_eff(), omega_x=p.omega_eff())
        t, alpha = 0.9, 1.1
        lhs = erc_unitary(p, t, alpha).m
        rhs = g @ erc_unitary(p_eff, t, alpha).m @ g.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# every entry point that needs the reduced Raman form, on one system
RESONANT_ONLY = {
    "characteristic_quantities": characteristic_quantities,
    "erc_unitary": lambda p: erc_unitary(p, 0.7, 0.3),
    "bright_dark": lambda p: bright_dark(p, 0.3),
    "dq_rotation": lambda p: dq_rotation(p, DQRotation(RotationAxis.MINUS_PHI, 1.0)),
    "evolve": lambda p: evolve(
        p, PulseSequence([PulseSegment(0.7, 0.3, p.omega_x, p.omega_y)]), method="analytic"),
    "effective_params": effective_params,
    "dressing_unitary": dressing_unitary,
    "synthesize_gate": lambda p: synthesize_gate(p, np.array([[0, 1], [1, 0]], dtype=complex)),
    "rabi_extract": lambda p: rabi_extract(p, 10.0, method="analytic"),
}
# every closed-form entry point: all pass one gate, so a drive gets one verdict
CLOSED_FORMS = {
    **{name: RESONANT_ONLY[name] for name in ("characteristic_quantities", "erc_unitary",
                                             "bright_dark", "dq_rotation", "evolve",
                                             "synthesize_gate")},
    "closed_form_unitary": lambda p: closed_form_unitary(p, "Tsecond", 0.3),
    "not_gate_sequence": not_gate_sequence,
}
# (system, error), checked in the order resonance, regime, zero drive: a zero or
# sub-threshold drive on a field is below the regime; only a zero drive on a
# zero field is a bad value; an uncompensated field is refused first
VERDICTS = {
    "zero-drive": ({"muB": 1.0, "omega_x": 0.0}, RegimeError),
    "below-threshold": ({"muB": 1.0, "omega_x": 1.5}, RegimeError),
    "no-field-no-drive": ({"muB": 0.0, "omega_x": 0.0}, ValueError),
    "uncompensated-below-threshold": ({"muB": 1.0, "omega_x": 1.5, "Ex": 0.7}, ResonanceError),
}
# relative detuning of omega_y from the compensating ratio: 0 or 1e-6..0.1
DETUNING = st.one_of(st.just(0.0), st.builds(lambda d, sign: sign * d, st.floats(1e-6, 0.1),
                                             st.sampled_from([-1.0, 1.0])))


class TestResonanceCheck:
    @settings(max_examples=40)
    @given(st.floats(0.1, 1.0), st.floats(-1.0, 1.0), st.floats(4.5, 8.0), DETUNING)
    @example(0.7, -0.7, 4.5, 0.0)
    @example(0.7, -0.7, 4.5, 1e-6)
    def test_resonance_error_exactly_when_uncompensated(self, ex, ey, omega_x, delta):
        # omega_x >= 4.5 keeps omega_eff >= 2 muB_eff for every field drawn
        ratio = compensation_ratio(ex, ey) * (1.0 + delta)
        p = SystemParams(D=500.0, muB=1.0, omega_x=omega_x, omega_y=ratio * omega_x,
                         Ex=ex, Ey=ey)
        for name, call in RESONANT_ONLY.items():
            try:
                call(p)
                raised = False
            except ResonanceError:
                raised = True
            except NvErcError:  # e.g. AxisDegenerateError: not a resonance verdict
                raised = False
            assert raised == (delta != 0.0), name


class TestRegimeGate:
    @pytest.mark.parametrize("verdict", sorted(VERDICTS))
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_every_closed_form_gives_one_verdict(self, name, verdict):
        system, error = VERDICTS[verdict]
        with pytest.raises((NvErcError, ValueError)) as info:
            CLOSED_FORMS[name](SystemParams(D=500.0, **system))
        assert type(info.value) is error

    def test_zero_drive_calibration_is_below_the_threshold(self):
        # calibration's own closed form scans the zero drive like any weak one
        with pytest.raises(ExtractionError):
            rabi_extract(SystemParams(D=500.0, muB=1.0, omega_x=0.0), 10.0, method="analytic")
        with pytest.raises(ValueError, match="muB = omega = 0"):
            rabi_extract(SystemParams(D=500.0, muB=0.0, omega_x=0.0), 10.0, method="analytic")


class TestEzNeutrality:
    def test_carrier_shift_reproduces_unshifted_system(self):
        # (D, Ez) with carrier D+Ez is operator-identical to (D+Ez, 0)
        p1 = SystemParams(D=500.0, muB=1.0, omega_x=3.0, Ez=0.35)
        p2 = SystemParams(D=500.35, muB=1.0, omega_x=3.0)
        seg = PulseSegment(1.0, 0.4, 3.0)
        for t in (0.0, 0.31, 1.7):
            assert np.max(np.abs(hamiltonian_lab(p1, seg, t)
                                 - hamiltonian_lab(p2, seg, t))) < 1e-12
        assert np.array_equal(rwa_hamiltonian(p1, seg), rwa_hamiltonian(p2, seg))
        q1, q2 = characteristic_quantities(p1), characteristic_quantities(p2)
        assert q1 == q2
        u1 = erc_unitary(p1, 0.8, 0.2)
        u2 = erc_unitary(p2, 0.8, 0.2)
        assert np.max(np.abs(u1.m - u2.m)) < 1e-12
