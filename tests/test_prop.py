import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from conftest import haar_unitary3, random_plain_params
from nverc import (FrameTag, PulseSegment, PulseSequence,
                   StateVector3, SystemParams, Unitary3,
                   characteristic_quantities, erc_unitary, frame_transform,
                   not_gate_sequence, propagate)
from nverc import _kernels, prop
from nverc.ham import (hamiltonian_lab, hamiltonian_rwa, lab_drive_operators,
                       static_hamiltonian)
from nverc.spin import KET_0, KET_M1, KET_P1, SZ2

P13 = SystemParams(D=500.0, muB=1.0, omega_x=3.0)


@st.composite
def dressed_stacks(draw):
    """Rotating-wave Hamiltonians (m, 3, 3) of one or of 2-12 random dressed
    systems: fields Ex, Ey and Ez and a second tone whose phase beta
    differs from alpha."""
    field = st.floats(-1.0, 1.0)
    rows = []
    for _ in range(draw(st.sampled_from([1, 2, 12]))):
        mu, om = draw(st.floats(0.05, 2.0)), draw(st.floats(0.1, 4.0))
        p = SystemParams(D=500.0, muB=mu, omega_x=om,
                         Ex=draw(field), Ey=draw(field), Ez=draw(field))
        alpha = draw(st.floats(-math.pi, math.pi))
        seg = PulseSegment(0.0, alpha, om, om * draw(field),
                           beta=alpha + draw(st.floats(0.1, 2.0 * math.pi - 0.1)))
        rows.append(hamiltonian_rwa(p, seg))
    return np.array(rows)


class TestRwaPropagation:
    def test_matches_closed_form_segment(self):
        q = characteristic_quantities(P13)
        alpha = 0.37
        seq = PulseSequence([PulseSegment(q.T_prime, alpha, P13.omega_x)])
        res = propagate(P13, seq, StateVector3(KET_0))
        assert np.linalg.norm(res.unitary.m - erc_unitary(P13, q.T_prime, alpha).m, 2) < 1e-9

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
        # the grid mode's |<a|U(t_k)|0>|^2, for each basis bra <a|, against
        # the full propagator's |0> column; both round the phases w t, so the
        # bound grows with max|w| t_max
        t_max, n_t = 50.0, 64
        ts = np.linspace(0.0, t_max, n_t)
        for _ in range(10):
            mu = rng.uniform(0.05, 2.0)
            om = mu * rng.uniform(2.1, 8.0)
            field = {"plain": {}, "two-tone": {"omega_y": om * rng.uniform(-1.0, 1.0)},
                     "Ex": {"Ex": rng.uniform(-1.0, 1.0)},
                     "Ey": {"Ey": rng.uniform(-1.0, 1.0)}}[kind]
            p = SystemParams(D=500.0, muB=mu, omega_x=om, **field)
            seg = PulseSegment(0.0, rng.uniform(-math.pi, math.pi), p.omega_x, p.omega_y,
                               beta=rng.uniform(-math.pi, math.pi))
            h = hamiltonian_rwa(p, seg)
            column = prop._rwa_evolver(h)(ts)[:, :, 1]
            bound = 4.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(np.linalg.eigvalsh(h))) * t_max)
            for bra in (KET_P1, KET_0, KET_M1):
                got = prop._rwa_evolver(h[None], bra)(t_max, n_t)
                assert got.shape == (1, n_t)
                assert np.max(np.abs(got[0] - np.abs(column @ bra) ** 2)) <= bound

    @settings(max_examples=200)
    @given(dressed_stacks(), st.sampled_from(["plus1", "zero", "minus1", "target"]),
           st.sampled_from([2, 3, 7, 64, 65, 6001]), st.floats(0.1, 10.0), st.data())
    def test_grid_equals_full_propagator(self, h, which, n_t, t_max, data):
        # the grid mode's |<a|U(t_k)|0>|^2 against the full propagator's
        # |0> column on the same np.linspace grid, row by row
        if which == "target":
            z = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)
                          .filter(lambda z: np.linalg.norm(z) > 0.1))
            bra = np.conj(np.array(z[:3]) + 1j * np.array(z[3:])) / np.linalg.norm(z)
        else:
            bra = {"plus1": KET_P1, "zero": KET_0, "minus1": KET_M1}[which]
        got = prop._rwa_evolver(h, bra)(t_max, n_t)
        ts = np.linspace(0.0, t_max, n_t)
        want = [np.abs(prop._rwa_evolver(row)(ts)[..., :, 1] @ bra) ** 2 for row in h]
        assert got.shape == (len(h), n_t)
        assert np.max(np.abs(got - want)) <= 1e-14


class TestLabPropagation:
    def test_population_swap_within_rwa_error(self):
        seq = not_gate_sequence(P13)
        res = propagate(P13, seq, StateVector3(KET_P1), frame=FrameTag.LAB,
                        steps_per_period=40)
        pops = res.state.populations()
        assert abs(pops[2] - 1.0) < 5e-3
        assert abs(pops[1]) < 5e-3

    def test_self_convergence_fourth_order(self):
        # halving the step must cut the error by at least 8x (order 4 gives ~16x)
        p = SystemParams(D=100.0, muB=1.0, omega_x=3.0)
        q = characteristic_quantities(p)
        seq = PulseSequence([PulseSegment(q.T_prime, 0.3, p.omega_x)])
        s = StateVector3(KET_0)
        ref = propagate(p, seq, s, frame=FrameTag.LAB, steps_per_period=640).unitary.m
        errs = []
        for spp in (20, 40, 80):
            u = propagate(p, seq, s, frame=FrameTag.LAB, steps_per_period=spp).unitary.m
            errs.append(np.linalg.norm(u - ref, 2))
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0

    def test_adaptive_matches_fixed(self):
        p = SystemParams(D=100.0, muB=1.0, omega_x=3.0)
        q = characteristic_quantities(p)
        seg = PulseSegment(q.T_prime, 0.0, p.omega_x)
        seq = PulseSequence([seg])
        s = StateVector3(KET_0)
        u_fixed = propagate(p, seq, s, frame=FrameTag.LAB, steps_per_period=1280).unitary.m
        # an independent adaptive reference: DOP853 on the lab Hamiltonian
        sol = solve_ivp(
            lambda t, y: (-1j * hamiltonian_lab(p, seg, t) @ y.reshape(3, 3)).ravel(),
            (0.0, q.T_prime), np.eye(3, dtype=complex).ravel(),
            method="DOP853", rtol=1e-12, atol=1e-12,
        )
        assert sol.success
        u_adapt = sol.y[:, -1].reshape(3, 3)
        assert np.linalg.norm(u_fixed - u_adapt, 2) < 1e-8

    def test_dop853_on_every_term(self):
        # two segments on a system with every field and drive term on, so
        # the carrier phase must stay coherent across the boundary
        seq = PulseSequence([PulseSegment(0.9, *SEG_ARGS, beta=-0.5),
                             PulseSegment(0.6, 1.7, P_FULL.omega_x, -P_FULL.omega_y, beta=2.2)])
        u = propagate(P_FULL, seq, StateVector3(KET_0), frame=FrameTag.LAB,
                      steps_per_period=160).unitary.m
        ref, t0 = np.eye(3, dtype=complex), 0.0
        for seg in seq:
            sol = solve_ivp(
                lambda t, y, seg=seg: (-1j * hamiltonian_lab(P_FULL, seg, t)
                                       @ y.reshape(3, 3)).ravel(),
                (t0, t0 + seg.duration), ref.ravel(),
                method="DOP853", rtol=1e-12, atol=1e-12,
            )
            assert sol.success
            ref, t0 = sol.y[:, -1].reshape(3, 3), t0 + seg.duration
        assert np.linalg.norm(u - ref, 2) < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), spp=st.integers(1, 40),
           n_segs=st.integers(1, 4))
    def test_unitary_without_projection(self, seed, spp, n_segs):
        # every Magnus step and the Floquet power are unitary to rounding,
        # whatever the resolution and however many periods a segment spans
        rng = np.random.default_rng(seed)
        p = SystemParams(D=rng.uniform(50.0, 3000.0), muB=rng.uniform(0.1, 2.0),
                         omega_x=rng.uniform(0.5, 8.0), omega_y=rng.uniform(-4.0, 4.0),
                         Ex=rng.uniform(-1.0, 1.0), Ey=rng.uniform(-1.0, 1.0),
                         Ez=rng.uniform(-5.0, 5.0))
        seq = PulseSequence([PulseSegment(rng.uniform(0.0, 10.0), rng.uniform(-math.pi, math.pi),
                                          p.omega_x, p.omega_y, beta=rng.uniform(-math.pi, math.pi))
                             for _ in range(n_segs)])
        times = np.sort(rng.uniform(0.0, 1.1 * seq.total_duration, 6))
        us = prop._walk(p, seq, times, "lab", spp)
        defect = np.linalg.norm(us.conj().swapaxes(-1, -2) @ us - np.eye(3), 2, axis=(1, 2))
        assert np.max(defect) < 1e-12

    def test_rwa_discrepancy_shrinks_with_carrier(self):
        # interaction-picture lab propagator over one carrier period
        # approaches the rotating-wave prediction as the carrier grows
        errs = []
        for ratio in (50, 200, 500):
            p = SystemParams(D=ratio * 3.0, muB=1.0, omega_x=3.0)
            period = 2 * math.pi / p.carrier
            seq = PulseSequence([PulseSegment(period, 0.0, p.omega_x)])
            res = propagate(p, seq, StateVector3(KET_0), frame=FrameTag.LAB,
                            steps_per_period=160)
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
        lab = propagate(p, seq, StateVector3(KET_P1), FrameTag.LAB, 200)
        assert np.linalg.norm(got.m - lab.unitary.m, 2) < 2.0 * p.omega_x / p.carrier

    def test_frame_mismatch_rejected(self, rng):
        u = Unitary3(haar_unitary3(rng), FrameTag.LAB)
        with pytest.raises(ValueError):
            frame_transform(u, 0.0, 1.0, FrameTag.INTERACTION_D, FrameTag.LAB, P13)


def _carrier_frame(hs, ax, ay, wc, alpha, beta, t):
    """H_I(t) by its definition: (H_lab(t) - wc Sz^2) with entry (j, k)
    turned by exp(i wc t (s_j - s_k)), s = diag(Sz^2); for a scalar or an
    array of times t, shape t.shape + (3, 3)."""
    s = np.diag(SZ2).real
    t = np.asarray(t, dtype=float)[..., None, None]
    h = hs + np.cos(wc * t - alpha) * ax + np.cos(wc * t - beta) * ay - wc * SZ2
    return h * np.exp(1j * wc * t * (s[:, None] - s[None, :]))


def _magnus_stepping(hs, ax, ay, wc, alpha, beta, t0, duration, n_steps, u0):
    """Reference: step U_I itself through n_steps two-point Gauss Magnus
    steps, each exponent taken by expm."""
    h = duration / n_steps
    t = t0 + h * np.arange(n_steps)
    h1, h2 = (_carrier_frame(hs, ax, ay, wc, alpha, beta, t + c * h)
              for c in (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0))
    omega = -0.5j * h * (h1 + h2) + math.sqrt(3.0) / 12.0 * h * h * (h1 @ h2 - h2 @ h1)
    u = np.array(u0, dtype=complex, copy=True)
    for step in expm(omega):
        u = step @ u
    return u


# every transverse term on, so the lab Hamiltonian has no special structure
P_FULL = SystemParams(D=200.0, muB=1.0, omega_x=3.0, omega_y=0.8, Ex=0.3, Ey=0.2, Ez=0.5)
T_C = 2 * math.pi / P_FULL.carrier
SEG_ARGS = (0.4, P_FULL.omega_x, P_FULL.omega_y)


def _kernel_args(p, seg):
    ax, ay = lab_drive_operators(seg)
    return static_hamiltonian(p), ax, ay, p.carrier, seg.alpha, seg.beta


def _stepped_segment(p, seg, t0, spp):
    """A segment stepped through every one of its N whole periods (half
    carrier periods for even spp) at spp steps per carrier period, then
    through the remainder at the same step bound."""
    args = _kernel_args(p, seg)
    period = 2 * math.pi / p.carrier / (2 if spp % 2 == 0 else 1)
    step = 2 * math.pi / p.carrier / spp
    n = math.floor(seg.duration / period)
    rest = seg.duration - n * period
    u = np.eye(3, dtype=complex)
    if n:
        u = _magnus_stepping(*args, t0, n * period, round(n * period / step), u)
    if rest:
        u = _magnus_stepping(*args, t0 + n * period, rest,
                             math.ceil(rest / step * (1 - 1e-12)), u)
    return u


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record (duration, n_steps) of every row of every kernel call the
    propagator makes."""
    calls = []

    def spy(*args):
        calls.extend(zip(np.asarray(args[5]).tolist(), np.asarray(args[6]).tolist()))
        return real(*args)

    real = _kernels.magnus_lab_rows
    monkeypatch.setattr(_kernels, "magnus_lab_rows", spy)
    return calls


def _lab_segment(p, seg, t0, spp, taus):
    """Lab propagators (len(taus), 3, 3) of the one segment ``seg`` from
    t0, through the walker's lab engine."""
    taus = np.asarray(taus, dtype=float)
    step, = prop._lab_propagators(p, [(seg, t0, taus)], spp)
    out = np.empty((len(taus), 3, 3), dtype=complex)
    out[-1] = step(np.eye(3, dtype=complex), out[:-1])
    return out


class TestPeriodPower:
    SPP = 24
    T0 = 0.71

    def run(self, duration):
        seg = PulseSegment(duration, *SEG_ARGS)
        u = _lab_segment(P_FULL, seg, self.T0, self.SPP, [duration])[0]
        return u, _stepped_segment(P_FULL, seg, self.T0, self.SPP)

    def test_matches_explicit_stepping(self, kernel_calls):
        u, ref = self.run(37.3 * T_C)
        assert np.max(np.abs(u - ref)) < 1e-12
        # one half period and the remainder, whatever the segment length
        assert [n for _, n in kernel_calls] == [self.SPP // 2, math.ceil(0.3 * self.SPP)]

    @pytest.mark.parametrize("duration,calls", [
        (0.4 * T_C, [math.ceil(0.4 * SPP)]),    # shorter than a half period: no power
        (5 * T_C, [SPP // 2]),                  # whole periods: no remainder
        (5 * T_C + 1e-13, [SPP // 2, 1]),       # 1e-13 is above the snap window
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
        assert kernel_calls == [(T_C / 2, self.SPP // 2)]

    @pytest.mark.parametrize("D", [100.0, 287.0, 500.0, 2870.0])
    @pytest.mark.parametrize("spp", [1, 3, 7, 20, 80, 160, 1280])
    def test_max_step_gives_exact_steps_per_period(self, kernel_calls, D, spp):
        # a carrier period takes spp steps (two half periods of spp/2 for
        # even spp), and a remainder's step bound T_c/spp gives back exactly
        # spp steps over a whole period
        p = SystemParams(D=D, muB=1.0, omega_x=3.0, Ez=0.37)
        period = 2 * math.pi / p.carrier
        seq = PulseSequence([PulseSegment(3 * period, 0.2, p.omega_x)])
        propagate(p, seq, StateVector3(KET_0), frame=FrameTag.LAB, steps_per_period=spp)
        assert [n for _, n in kernel_calls] == [spp // 2 if spp % 2 == 0 else spp]
        assert prop._n_steps(period, period / spp) == spp

    def test_batched_kernel_matches_stepping(self):
        seg = PulseSegment(1.0, *SEG_ARGS)
        args = _kernel_args(P_FULL, seg)
        rng = np.random.default_rng(3)
        u0 = haar_unitary3(rng)
        # rows of different lengths share chunks; 1500 steps spans more
        # than one block of the kernel
        ns = [1, 5, 24, 1500, 3]
        durations = [n * T_C / 24 for n in ns]
        h0, v = _kernels._harmonics(*args)
        us = _kernels.magnus_lab_rows(h0[None], v[None], P_FULL.carrier, [0] * len(ns),
                                      [self.T0] * len(ns), durations, ns) @ u0
        for u, duration, n in zip(us, durations, ns):
            ref = _magnus_stepping(*args, self.T0, duration, n, u0)
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
                        steps_per_period=80)
        u_int = frame_transform(res.unitary, 0.0, duration,
                                FrameTag.LAB, FrameTag.INTERACTION_D, P13)
        err = np.linalg.norm(u_int.m - erc_unitary(P13, duration, alpha).m, 2)
        assert err < 2.0 * P13.omega_x / P13.carrier


class TestStepsPerPeriod:
    @pytest.mark.parametrize("spp", [0, -1, 2.0, None, True])
    def test_walk_refuses(self, spp):
        with pytest.raises(ValueError, match="steps_per_period"):
            prop._walk(P13, not_gate_sequence(P13), [math.inf], "lab", spp)

    def test_default_steps_per_period(self, kernel_calls):
        period = 2 * math.pi / P13.carrier
        seq = PulseSequence([PulseSegment(3 * period, 0.2, P13.omega_x)])
        propagate(P13, seq, StateVector3(KET_0), FrameTag.LAB)
        prop._walk(P13, seq, [math.inf], "lab")
        assert [n for _, n in kernel_calls] == [prop.LAB_STEPS_PER_PERIOD // 2] * 2
        assert prop.LAB_STEPS_PER_PERIOD == 8


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
        ana = prop._walk(P13, seq, times, "analytic")
        rwa = prop._walk(P13, seq, times, "rwa")
        lab = prop._walk(P13, seq, times, "lab", 80)
        assert np.max(np.abs(rwa - ana)) < 1e-12
        err = np.max(np.linalg.norm(lab - ana, 2, axis=(1, 2)))
        assert err < 2.0 * len(segs) * P13.omega_x / P13.carrier


@st.composite
def lab_programs(draw):
    """(p, seq, times, spp) for the batched lab walk: a plain system or a
    dressed two-tone one with Ez != 0; 1-5 segments, zero-duration ones
    included, of whole periods plus a remainder that may lie within 1e-12
    periods of 0 or of a full period; samples at 0, on every boundary,
    5e-16 short of it, at such remainders inside a segment, and past the
    end.  The carrier is low so that explicit stepping stays cheap."""
    spp = draw(st.sampled_from([1, 2, 3, 8, 80]))
    om = draw(st.floats(0.5, 4.0))
    if draw(st.booleans()):
        field = st.floats(-1.0, 1.0)
        p = SystemParams(D=draw(st.floats(30.0, 60.0)), muB=draw(st.floats(0.1, 2.0)),
                         omega_x=om, omega_y=om * draw(field), Ex=draw(field),
                         Ey=draw(field), Ez=draw(st.sampled_from([-1.0, 1.0])) * draw(
                             st.floats(0.1, 2.0)))
    else:
        p = SystemParams(D=draw(st.floats(30.0, 60.0)), muB=draw(st.floats(0.1, 2.0)),
                         omega_x=om)
    period = 2 * math.pi / p.carrier / (2 if spp % 2 == 0 else 1)
    edge = st.floats(0.0, 1e-12)
    fraction = st.one_of(st.floats(0.0, 1.0), edge, edge.map(lambda x: 1.0 - x))

    def span():
        return (draw(st.integers(0, 2)) + draw(fraction)) * period

    segs, times, t1 = [], [0.0], 0.0
    for _ in range(draw(st.integers(1, 5))):
        alpha = draw(st.floats(-math.pi, math.pi))
        beta = alpha + draw(st.floats(0.1, 2 * math.pi - 0.1))
        duration = draw(st.sampled_from([0.0, span()]))
        segs.append(PulseSegment(duration, alpha, p.omega_x, p.omega_y, beta=beta))
        t0, t1 = t1, t1 + duration
        times += [t1, t1 - 5e-16] + [t0 + min(span(), duration) for _ in range(2)]
    times.append(t1 + draw(st.floats(0.0, 1.0)))
    return p, PulseSequence(segs), np.sort(times), spp


def _stepped_program(p, seq, times, spp):
    """Lab propagators at each time by explicit stepping of the program
    truncated there: in each segment its whole periods stepped through
    from its start, then its remainder, on the walker's step grid."""
    period = 2 * math.pi / p.carrier / (2 if spp % 2 == 0 else 1)
    n = spp // 2 if spp % 2 == 0 else spp
    out = []
    for t in times:
        u, t1 = np.eye(3, dtype=complex), 0.0
        for seg in seq:
            t0, t1 = t1, t1 + seg.duration
            if seg.duration == 0.0:
                continue
            tau = seg.duration if t >= t1 - 1e-15 else t - t0
            if tau <= 0.0:
                break
            args = _kernel_args(p, seg)
            n_periods, rest = prop._period_split(tau, period)
            if n_periods:
                u = _magnus_stepping(*args, t0, n_periods * period, n_periods * n, u)
            if rest:
                u = _magnus_stepping(*args, t0 + n_periods * period, rest,
                                     prop._n_steps(rest, period / n), u)
        out.append(u)
    return np.array(out)


class TestBatchedLabWalk:
    @settings(max_examples=40)
    @given(program=lab_programs())
    def test_matches_explicit_stepping(self, program):
        # every period and remainder of the program comes from one stacked
        # kernel call; each sample must still equal its own truncated run
        p, seq, times, spp = program
        us = prop._walk(p, seq, times, "lab", spp)
        assert np.max(np.abs(us - _stepped_program(p, seq, times, spp))) < 1e-12

    def test_memory_is_bounded(self):
        # 20,000 samples at 80 steps per period are about 400,000 steps; the
        # kernel forms at most _BLOCK step matrices at once, so the traced
        # peak stays near the 2.9 MB of propagators returned
        seq = PulseSequence([PulseSegment(0.7, 0.0, 3.0), PulseSegment(1.1, 1.3, 3.0)])
        times = np.linspace(0.0, seq.total_duration, 20_000)
        tracemalloc.start()
        try:
            us = prop._walk(P13, seq, times, "lab", 80)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert us.shape == (20_000, 3, 3)
        assert peak <= 10e6


class TestCarrierFrame:
    SEG = PulseSegment(1.0, *SEG_ARGS, beta=-0.5)

    def test_harmonics_reproduce_the_definition(self, rng):
        args = _kernel_args(P_FULL, self.SEG)
        h0, v = _kernels._harmonics(*args)
        for t in rng.uniform(0.0, 10 * T_C, 50):
            z = np.exp(2j * P_FULL.carrier * t)
            want = _carrier_frame(*args, t)
            assert np.max(np.abs(h0 + z * v + np.conj(z) * v.conj().T - want)) < 1e-13

    def test_half_period(self, rng):
        # the power over half carrier periods rests on this
        args = _kernel_args(P_FULL, self.SEG)
        for t in rng.uniform(0.0, 10 * T_C, 50):
            diff = _carrier_frame(*args, t + T_C / 2) - _carrier_frame(*args, t)
            assert np.max(np.abs(diff)) < 1e-13

    def test_zeroth_harmonic_is_the_rotating_wave_hamiltonian(self, rng):
        # the oracle is built from the lab operators alone; its average
        # over a period is the independently written rotating-wave model
        for _ in range(50):
            p = SystemParams(D=rng.uniform(50.0, 3000.0), muB=rng.uniform(0.0, 2.0),
                             omega_x=rng.uniform(0.0, 8.0), omega_y=rng.uniform(-4.0, 4.0),
                             Ex=rng.uniform(-1.0, 1.0), Ey=rng.uniform(-1.0, 1.0),
                             Ez=rng.uniform(-5.0, 5.0))
            seg = PulseSegment(1.0, rng.uniform(-math.pi, math.pi), p.omega_x, p.omega_y,
                               beta=rng.uniform(-math.pi, math.pi))
            h0, _ = _kernels._harmonics(*_kernel_args(p, seg))
            assert np.max(np.abs(h0 - hamiltonian_rwa(p, seg))) < 1e-12


class TestKernels:
    def test_invalid_step_count(self):
        with pytest.raises(ValueError):
            _kernels.magnus_lab_rows(np.eye(3)[None], np.eye(3)[None], 1.0,
                                     [0, 0], [0.0, 0.0], [1.0, 1.0], [2, 0])
