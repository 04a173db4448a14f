import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary3, random_plain_params
from nverc import (FrameTag, IntegratorConfig, PulseSegment, PulseSequence,
                   StateVector3, SystemParams, Unitary3,
                   characteristic_quantities, erc_unitary, frame_transform,
                   not_gate_sequence, propagate)
from nverc import _kernels, prop
from nverc.ham import lab_drive_operators, static_hamiltonian
from nverc.spin import KET_0, KET_P1

P13 = SystemParams(D=500.0, muB=1.0, omega_x=3.0)


def lab_cfg(p, steps_per_period, scheme="fixed_rk4"):
    return IntegratorConfig(max_step=(2 * math.pi / p.carrier) / steps_per_period,
                            scheme=scheme)


class TestIntegratorConfig:
    def test_defaults(self):
        cfg = IntegratorConfig()
        assert cfg.rel_tol == 1e-10 and cfg.abs_tol == 1e-12
        assert cfg.lab_step(500.0) == pytest.approx((2 * math.pi / 500.0) / 20.0)

    @pytest.mark.parametrize("kw", [
        {"rel_tol": 0.0}, {"abs_tol": 2e-3}, {"max_step": -1.0}, {"scheme": "euler"},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            IntegratorConfig(**kw)


class TestRwaPropagation:
    def test_matches_closed_form_segment(self):
        q = characteristic_quantities(P13)
        alpha = 0.37
        seq = PulseSequence([PulseSegment(q.T_prime, alpha, P13.omega_x)])
        res = propagate(P13, seq, StateVector3(KET_0))
        assert np.linalg.norm(res.unitary.m - erc_unitary(P13, q.T_prime, alpha).m, 2) < 1e-9
        assert res.norm_drift == 0.0

    def test_zero_duration_sequence_identity(self):
        seq = PulseSequence([PulseSegment(0.0, 0.0, 3.0)])
        res = propagate(P13, seq, StateVector3(KET_P1))
        assert np.array_equal(res.unitary.m, np.eye(3))


class TestBatchedRwaSegment:
    @pytest.mark.parametrize("p,seg", [
        (P13, PulseSegment(0.0, 0.4, 3.0)),
        (SystemParams(D=500.0, muB=1.0, omega_x=4.5, Ex=0.7, Ey=-0.7),
         PulseSegment(0.0, 0.2, 4.5, 1.9, beta=-0.6)),
    ])
    def test_array_equals_scalar_calls(self, p, seg):
        ts = np.linspace(0.0, 9.0, 37)
        batch = prop.rwa_segment_unitary(p, seg, ts)
        assert batch.shape == (37, 3, 3)
        for t, u in zip(ts, batch):
            assert np.max(np.abs(u - prop.rwa_segment_unitary(p, seg, t))) < 1e-14
        assert np.max(np.abs(batch[5] - prop.rwa_segment_unitary(
            p, PulseSegment(ts[5], seg.alpha, seg.omega_x, seg.omega_y, seg.beta)))) < 1e-14

    @pytest.mark.parametrize("kind", ["plain", "two-tone", "Ex", "Ey"])
    def test_column_equals_full_propagator_column(self, rng, kind):
        for _ in range(10):
            mu = rng.uniform(0.05, 2.0)
            om = mu * rng.uniform(2.1, 8.0)
            field = {"plain": {}, "two-tone": {"omega_y": om * rng.uniform(-1.0, 1.0)},
                     "Ex": {"Ex": rng.uniform(-1.0, 1.0)},
                     "Ey": {"Ey": rng.uniform(-1.0, 1.0)}}[kind]
            p = SystemParams(D=500.0, muB=mu, omega_x=om, **field)
            seg = PulseSegment(0.0, rng.uniform(-math.pi, math.pi), p.omega_x, p.omega_y,
                               beta=rng.uniform(-math.pi, math.pi))
            evolve = prop._rwa_evolver(p, seg)
            ts = rng.uniform(0.0, 50.0, 64)
            full = evolve(ts)
            for j in range(3):
                assert np.max(np.abs(evolve(ts, column=j) - full[:, :, j])) <= 1e-15


class TestLabPropagation:
    def test_population_swap_within_rwa_error(self):
        seq = not_gate_sequence(P13)
        res = propagate(P13, seq, StateVector3(KET_P1), frame=FrameTag.LAB,
                        cfg=lab_cfg(P13, 40))
        pops = res.state.populations()
        assert abs(pops[2] - 1.0) < 5e-3
        assert abs(pops[1]) < 5e-3

    def test_self_convergence_fourth_order(self):
        # halving the step must cut the error by at least 8x (RK4 gives ~16x)
        p = SystemParams(D=100.0, muB=1.0, omega_x=3.0)
        q = characteristic_quantities(p)
        seq = PulseSequence([PulseSegment(q.T_prime, 0.3, p.omega_x)])
        s = StateVector3(KET_0)
        ref = propagate(p, seq, s, frame=FrameTag.LAB, cfg=lab_cfg(p, 640)).unitary.m
        errs = []
        for spp in (20, 40, 80):
            u = propagate(p, seq, s, frame=FrameTag.LAB, cfg=lab_cfg(p, spp)).unitary.m
            errs.append(np.linalg.norm(u - ref, 2))
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0

    def test_adaptive_matches_fixed(self):
        p = SystemParams(D=100.0, muB=1.0, omega_x=3.0)
        q = characteristic_quantities(p)
        seq = PulseSequence([PulseSegment(q.T_prime, 0.0, p.omega_x)])
        s = StateVector3(KET_0)
        u_fixed = propagate(p, seq, s, frame=FrameTag.LAB, cfg=lab_cfg(p, 1280)).unitary.m
        u_adapt = propagate(
            p, seq, s, frame=FrameTag.LAB,
            cfg=IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12, scheme="adaptive_embedded"),
        ).unitary.m
        assert np.linalg.norm(u_fixed - u_adapt, 2) < 1e-8

    def test_norm_drift_reported_and_projected(self):
        seq = not_gate_sequence(P13)
        res = propagate(P13, seq, StateVector3(KET_P1), frame=FrameTag.LAB,
                        cfg=lab_cfg(P13, 160))
        # raw RK4 drifts by ~7e-7 at this step; the projection restores
        # unitarity (Unitary3 construction enforces 1e-10) and reports it
        assert 0.0 < res.norm_drift < 1e-5
        assert abs(np.linalg.norm(res.state.amps) - 1.0) < 1e-12

    @pytest.mark.parametrize("spp,bound", [(40, 5e-3), (160, 1e-5)])
    def test_norm_drift_scales_down(self, spp, bound):
        seq = not_gate_sequence(P13)
        res = propagate(P13, seq, StateVector3(KET_P1), frame=FrameTag.LAB,
                        cfg=lab_cfg(P13, spp))
        assert res.norm_drift < bound

    def test_rwa_discrepancy_shrinks_with_carrier(self):
        # interaction-picture lab propagator over one carrier period
        # approaches the rotating-wave prediction as the carrier grows
        errs = []
        for ratio in (50, 200, 500):
            p = SystemParams(D=ratio * 3.0, muB=1.0, omega_x=3.0)
            period = 2 * math.pi / p.carrier
            seq = PulseSequence([PulseSegment(period, 0.0, p.omega_x)])
            res = propagate(p, seq, StateVector3(KET_0), frame=FrameTag.LAB,
                            cfg=lab_cfg(p, 160))
            u_int = frame_transform(res.unitary, 0.0, period,
                                    FrameTag.LAB, FrameTag.INTERACTION_D, p)
            u_rwa = erc_unitary(p, period, 0.0)
            errs.append(np.linalg.norm(u_int.m - u_rwa.m, 2))
        assert errs[0] > errs[1] > errs[2]


class TestFrameTransform:
    def test_zero_time_identity(self, rng):
        s = StateVector3.from_unnormalized(rng.normal(size=3) + 1j * rng.normal(size=3))
        out = frame_transform(s, 0.0, 0.0, FrameTag.LAB, FrameTag.INTERACTION_D, P13)
        assert np.allclose(out.amps, s.amps)

    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 50.0),
           frames=st.tuples(st.sampled_from(FrameTag), st.sampled_from(FrameTag)),
           ez=st.floats(-5.0, 5.0))
    def test_round_trip(self, seed, t, frames, ez):
        rng = np.random.default_rng(seed)
        s = StateVector3.from_unnormalized(rng.normal(size=3) + 1j * rng.normal(size=3))
        p = P13.replace(Ez=ez)
        mid = frame_transform(s, 0.0, t, *frames, p)
        back = frame_transform(mid, 0.0, t, *frames[::-1], p)
        assert np.max(np.abs(back.amps - s.amps)) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1),
           times=st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
           frames=st.tuples(st.sampled_from(FrameTag), st.sampled_from(FrameTag)),
           ez=st.floats(-5.0, 5.0))
    def test_unitary_round_trip(self, seed, times, frames, ez):
        u = Unitary3(haar_unitary3(np.random.default_rng(seed)), frames[0])
        p = P13.replace(Ez=ez)
        v = frame_transform(u, *times, *frames, p)
        w = frame_transform(v, *times, *frames[::-1], p)
        assert np.max(np.abs(w.m - u.m)) < 1e-12

    @pytest.mark.parametrize("frame", [FrameTag.INTERACTION_D, FrameTag.INTERACTION_D_EZ])
    def test_propagate_result_is_in_the_requested_frame(self, frame):
        # with Ez != 0 the rotating-wave propagator is computed in the D + Ez
        # frame; a request for the D frame must transform it, not relabel it
        p = SystemParams(D=100.0, muB=1.0, omega_x=3.0, Ez=2.0)
        seq = not_gate_sequence(p)
        res = propagate(p, seq, StateVector3(KET_P1), frame)
        assert res.unitary.frame == frame
        got = frame_transform(res.unitary, 0.0, seq.total_duration, frame, FrameTag.LAB, p)
        lab = propagate(p, seq, StateVector3(KET_P1), FrameTag.LAB, lab_cfg(p, 200))
        assert np.linalg.norm(got.m - lab.unitary.m, 2) < 2.0 * p.omega_x / p.carrier

    def test_frame_mismatch_rejected(self, rng):
        u = Unitary3(haar_unitary3(rng), FrameTag.LAB)
        with pytest.raises(ValueError):
            frame_transform(u, 0.0, 1.0, FrameTag.INTERACTION_D, FrameTag.LAB, P13)


def _rk4_stepping(hs, ax, ay, wc, alpha, beta, t0, duration, n_steps, u0):
    """Reference: step U itself through n_steps classic RK4 steps."""
    h = duration / n_steps
    u = np.array(u0, dtype=complex, copy=True)

    def gen(t):
        return -1j * (hs + math.cos(wc * t - alpha) * ax + math.cos(wc * t - beta) * ay)

    for k in range(n_steps):
        t = t0 + k * h
        k1 = gen(t) @ u
        k2 = gen(t + 0.5 * h) @ (u + (0.5 * h) * k1)
        k3 = gen(t + 0.5 * h) @ (u + (0.5 * h) * k2)
        k4 = gen(t + h) @ (u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return u


# every transverse term on, so the lab Hamiltonian has no special structure
P_FULL = SystemParams(D=200.0, muB=1.0, omega_x=3.0, omega_y=0.8, Ex=0.3, Ey=0.2, Ez=0.5)
T_C = 2 * math.pi / P_FULL.carrier
SEG_ARGS = (0.4, P_FULL.omega_x, P_FULL.omega_y)


def _kernel_args(p, seg):
    ax, ay = lab_drive_operators(seg)
    return static_hamiltonian(p), ax, ay, p.carrier, seg.alpha, seg.beta


def _stepped_segment(p, seg, t0, spp):
    """A segment stepped through every one of its N whole periods with spp
    steps each, then through the remainder at the same step bound."""
    args = _kernel_args(p, seg)
    period = 2 * math.pi / p.carrier
    n = math.floor(seg.duration / period)
    rest = seg.duration - n * period
    u = np.eye(3, dtype=complex)
    if n:
        u = _rk4_stepping(*args, t0, n * period, n * spp, u)
    if rest:
        u = _rk4_stepping(*args, t0 + n * period, rest,
                          math.ceil(rest / (period / spp) * (1 - 1e-12)), u)
    return u


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record (duration, n_steps) of every kernel call the propagator makes."""
    calls = []

    def spy(*args):
        calls.append((args[7], args[8]))
        return real(*args)

    real = _kernels.rk4_lab_segment
    monkeypatch.setattr(_kernels, "rk4_lab_segment", spy)
    return calls


class TestPeriodPower:
    SPP = 24
    T0 = 0.71

    def run(self, duration):
        seg = PulseSegment(duration, *SEG_ARGS)
        cfg = IntegratorConfig(max_step=T_C / self.SPP)
        u = prop._lab_segment(P_FULL, seg, self.T0, cfg, [duration],
                              np.eye(3, dtype=complex))[0]
        return u, _stepped_segment(P_FULL, seg, self.T0, self.SPP)

    def test_matches_explicit_stepping(self, kernel_calls):
        u, ref = self.run(37.3 * T_C)
        assert np.max(np.abs(u - ref)) < 1e-12
        # one period and the remainder, whatever the segment length
        assert [n for _, n in kernel_calls] == [self.SPP, math.ceil(0.3 * self.SPP)]

    @pytest.mark.parametrize("duration,calls", [
        (0.4 * T_C, [math.ceil(0.4 * SPP)]),    # shorter than a period: no power
        (5 * T_C, [SPP]),                       # whole periods: no remainder
        (5 * T_C + 1e-13, [SPP, 1]),            # 1e-13 is above the snap window
    ])
    def test_edge_durations(self, kernel_calls, duration, calls):
        u, ref = self.run(duration)
        assert np.max(np.abs(u - ref)) < 1e-12
        assert [n for _, n in kernel_calls] == calls

    @pytest.mark.parametrize("excess", [1e-3, -1e-3])
    def test_remainder_snapped_within_window(self, kernel_calls, excess):
        # a remainder within 1e-12 T_c of 0 or of T_c is rounding of the
        # duration, not evolution: exactly the whole-period result
        u_snap, _ = self.run(5 * T_C + excess * 1e-12 * T_C)
        kernel_calls.clear()
        u_exact, _ = self.run(5 * T_C)
        assert np.array_equal(u_snap, u_exact)
        assert kernel_calls == [(T_C, self.SPP)]

    @pytest.mark.parametrize("D", [100.0, 287.0, 500.0, 2870.0])
    @pytest.mark.parametrize("spp", [1, 3, 7, 20, 80, 160, 1280])
    def test_max_step_gives_exact_steps_per_period(self, kernel_calls, D, spp):
        p = SystemParams(D=D, muB=1.0, omega_x=3.0, Ez=0.37)
        period = 2 * math.pi / p.carrier
        seq = PulseSequence([PulseSegment(3 * period, 0.2, p.omega_x)], frame=FrameTag.LAB)
        propagate(p, seq, StateVector3(KET_0), frame=FrameTag.LAB, cfg=lab_cfg(p, spp))
        assert [n for _, n in kernel_calls] == [spp]

    def test_batched_kernel_matches_stepping(self):
        seg = PulseSegment(1.0, *SEG_ARGS)
        args = _kernel_args(P_FULL, seg)
        rng = np.random.default_rng(3)
        u0 = haar_unitary3(rng)
        # 1500 steps spans more than one batch of the kernel
        for n in (1, 5, 24, 1500):
            duration = n * T_C / 24
            u = _kernels.rk4_lab_segment(*args, self.T0, duration, n, u0)
            ref = _rk4_stepping(*args, self.T0, duration, n, u0)
            assert np.max(np.abs(u - ref)) < 1e-12

    @settings(max_examples=30)
    @given(alpha=st.floats(0.0, 2 * math.pi),
           frac=st.floats(0.0, 2.0))
    def test_lab_agrees_with_analytic_within_rwa_bound(self, alpha, frac):
        # counter-rotating terms move the lab propagator off the rotating-
        # wave one by O(omega / carrier); the worst seen over random
        # segments up to 2 T_total is 0.98 omega / carrier
        q = characteristic_quantities(P13)
        duration = frac * q.T_total
        seq = PulseSequence([PulseSegment(duration, alpha, P13.omega_x)])
        res = propagate(P13, seq, StateVector3(KET_0), frame=FrameTag.LAB,
                        cfg=lab_cfg(P13, 80))
        u_int = frame_transform(res.unitary, 0.0, duration,
                                FrameTag.LAB, FrameTag.INTERACTION_D, P13)
        err = np.linalg.norm(u_int.m - erc_unitary(P13, duration, alpha).m, 2)
        assert err < 2.0 * P13.omega_x / P13.carrier


class TestProgramEngine:
    @settings(max_examples=30)
    @given(segs=st.lists(st.tuples(st.floats(0.0, 1.0),
                                   st.floats(0.0, 2 * math.pi, exclude_max=True)),
                         min_size=1, max_size=4),
           fracs=st.lists(st.floats(0.0, 1.1), min_size=5, max_size=5))
    def test_methods_agree_on_random_programs(self, segs, fracs):
        # the rotating-wave exponential is the closed form to rounding; the
        # lab integration keeps the counter-rotating terms, which move each
        # segment by O(omega / carrier) (worst seen 0.57 k omega / carrier
        # over 150 programs of k segments)
        q = characteristic_quantities(P13)
        seq = PulseSequence([PulseSegment(f * q.T_total, a, P13.omega_x) for f, a in segs])
        times = np.sort(fracs) * seq.total_duration
        ana, _ = prop._walk(P13, seq, times, "analytic")
        rwa, _ = prop._walk(P13, seq, times, "rwa")
        lab, _ = prop._walk(P13, seq, times, "lab", lab_cfg(P13, 80))
        assert np.max(np.abs(rwa - ana)) < 1e-12
        err = np.max(np.linalg.norm(lab - ana, 2, axis=(1, 2)))
        assert err < 2.0 * len(segs) * P13.omega_x / P13.carrier


class TestKernels:
    def test_invalid_step_count(self):
        with pytest.raises(ValueError):
            _kernels.rk4_lab_segment(np.eye(3), np.eye(3), np.eye(3),
                                     1.0, 0.0, 0.0, 0.0, 1.0, 0,
                                     np.eye(3, dtype=complex))
