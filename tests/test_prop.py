import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from conftest import haar_unitary3, rwa_hamiltonian
from nverc import (FrameTag, PulseSegment, PulseSequence, RegimeError, ResonanceError,
                   SystemParams, characteristic_quantities, compensation_ratio, erc_unitary,
                   not_gate_sequence)
from nverc import _kernels, ham, prop
from nverc.ham import hamiltonian_lab, lab_drive_operators, static_hamiltonian
from nverc.spin import KET_0, KET_M1, KET_P1, SZ2

P13 = SystemParams(D=500.0, muB=1.0, omega_x=3.0)


def to_lab(p, u_int, t):
    """A propagator from 0 to t in the interaction frame of ``p``, taken to
    the lab frame by its definition: row j turned by exp(-i carrier s_j t),
    s = diag(Sz^2)."""
    return np.exp(-1j * p.carrier * np.diag(SZ2).real * t)[:, None] * u_int


def drive_column(p, ts):
    """The |0> column of the rwa propagators of ``p``'s own constant drive at
    phase 0, from ``evolve``, at the sample times ``ts`` (within one
    segment ending at ts[-1])."""
    seq = PulseSequence([PulseSegment(ts[-1], 0.0, p.omega_x, p.omega_y)])
    return prop.evolve(p, seq, ts, "rwa")[:, :, 1]


@st.composite
def dressed_systems(draw):
    """One or 2-12 random dressed systems: fields Ex, Ey and Ez and a second
    tone omega_y."""
    field = st.floats(-1.0, 1.0)
    systems = []
    for _ in range(draw(st.sampled_from([1, 2, 12]))):
        mu, om = draw(st.floats(0.05, 2.0)), draw(st.floats(0.1, 4.0))
        systems.append(SystemParams(D=500.0, muB=mu, omega_x=om, Ex=draw(field),
                                    Ey=draw(field), Ez=draw(field), omega_y=om * draw(field)))
    return systems


@st.composite
def mixed_drive_programs(draw):
    """(p, seq, times): a system with its drive off whose 1-6 segments each
    set their own drive, drawn from a pool of 1-3 so that drives repeat.
    Plain systems take any single- or two-tone drive (each is resonant
    without a transverse field), dressed ones (Ex, Ey) their compensated
    two-tone drive at each pool amplitude; every drive 1.05-4 times its
    threshold.  Samples at random times inside and past the program."""
    mu = draw(st.floats(0.2, 1.5))
    ex, ey = draw(st.sampled_from([(0.0, 0.0), (0.6, -0.3), (-0.4, 0.5)]))
    ratio = compensation_ratio(ex, ey) if ex else None
    p = SystemParams(D=500.0, muB=mu, omega_x=0.0, Ex=ex, Ey=ey)
    drives = []
    for _ in range(draw(st.integers(1, 3))):
        om = 2.0 * math.sqrt(mu * mu + ex * ex + ey * ey) * draw(st.floats(1.05, 4.0))
        angle = (math.atan(ratio) if ratio is not None
                 else draw(st.sampled_from([0.0, draw(st.floats(-math.pi, math.pi))])))
        drives.append((om * math.cos(angle), om * math.sin(angle)))
    segs = [PulseSegment(draw(st.floats(0.0, 2.0)), draw(st.floats(-math.pi, math.pi)),
                         *draw(st.sampled_from(drives)))
            for _ in range(draw(st.integers(1, 6)))]
    seq = PulseSequence(segs)
    fracs = draw(st.lists(st.floats(0.0, 1.1), min_size=1, max_size=8))
    return p, seq, np.sort(fracs) * seq.total_duration


class TestRwaPropagation:
    def test_matches_closed_form_segment(self):
        q = characteristic_quantities(P13)
        alpha = 0.37
        seq = PulseSequence([PulseSegment(q.T_prime, alpha, P13.omega_x)])
        u = prop.evolve(P13, seq, method="rwa")[-1]
        assert np.linalg.norm(u - erc_unitary(P13, q.T_prime, alpha).m, 2) < 1e-9

    def test_zero_duration_sequence_identity(self):
        seq = PulseSequence([PulseSegment(0.0, 0.0, 3.0)])
        u = prop.evolve(P13, seq, method="rwa")[-1]
        assert np.array_equal(u, np.eye(3))

    def test_program_is_decomposed_once(self, monkeypatch):
        # one stack of every segment's H_rwa and one batched eigh, whatever
        # the segment count; a zero-duration segment is not in the stack
        shapes = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: (shapes.append(h.shape), real_eigh(h))[1])
        q = characteristic_quantities(P13)
        durations = [0.3, 1.1, 0.0, 0.7, 2.4, 0.9, 1.6, 0.2]
        seq = PulseSequence([PulseSegment(f * q.T_total, 0.4 * k, P13.omega_x)
                             for k, f in enumerate(durations)])
        times = np.linspace(0.0, seq.total_duration, 23)
        got = prop.evolve(P13, seq, times, "rwa")
        assert shapes == [(7, 3, 3)]
        monkeypatch.undo()
        assert np.max(np.abs(got - prop.evolve(P13, seq, times, "analytic"))) < 1e-12


class TestBatchedRwaSegment:
    @pytest.mark.parametrize("p,seg", [
        (P13, PulseSegment(0.0, 0.4, 3.0)),
        (SystemParams(D=500.0, muB=1.0, omega_x=4.5, Ex=0.7, Ey=-0.7),
         PulseSegment(0.0, 0.2, 4.5, 1.9, beta=-0.6)),
    ])
    def test_array_equals_scalar_calls(self, p, seg):
        ts = np.linspace(0.0, 9.0, 37)

        def program(duration):
            return PulseSequence([PulseSegment(duration, seg.alpha, seg.omega_x, seg.omega_y,
                                               seg.beta)])

        batch = prop.evolve(p, program(ts[-1]), ts, "rwa")
        assert batch.shape == (37, 3, 3)
        for t, u in zip(ts, batch):
            assert np.max(np.abs(u - prop.evolve(p, program(ts[-1]), [t], "rwa")[0])) < 1e-14
        assert np.max(np.abs(batch[5] - prop.evolve(p, program(ts[5]), method="rwa")[-1])) < 1e-14

    @pytest.mark.parametrize("kind", ["plain", "two-tone", "Ex", "Ey"])
    def test_column_equals_full_propagator_column(self, rng, kind):
        # the grid populations |<a|U(t_k)|0>|^2 of a constant drive at phase 0,
        # for each basis bra <a|, against evolve's |0> column; both round the
        # phases w t, so the bound grows with max|w| t_max
        t_max, n_t = 50.0, 64
        ts = np.linspace(0.0, t_max, n_t)
        for _ in range(10):
            mu = rng.uniform(0.05, 2.0)
            om = mu * rng.uniform(2.1, 8.0)
            field = {"plain": {}, "two-tone": {"omega_y": om * rng.uniform(-1.0, 1.0)},
                     "Ex": {"Ex": rng.uniform(-1.0, 1.0)},
                     "Ey": {"Ey": rng.uniform(-1.0, 1.0)}}[kind]
            p = SystemParams(D=500.0, muB=mu, omega_x=om, **field)
            column = drive_column(p, ts)
            for bra in (KET_P1, KET_0, KET_M1):
                w, c = prop._drive_weights([p], bra)
                bound = 4.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(w)) * t_max)
                got = prop._grid_rows(w, c, t_max, n_t)(0, 1)
                assert got.shape == (1, n_t)
                assert np.max(np.abs(got[0] - np.abs(column @ bra) ** 2)) <= bound

    @settings(max_examples=200)
    @given(dressed_systems(), st.sampled_from(["plus1", "zero", "minus1", "target"]),
           st.sampled_from([2, 3, 7, 64, 65, 6001]), st.floats(0.1, 10.0), st.data())
    def test_grid_equals_full_propagator(self, systems, which, n_t, t_max, data):
        # the grid populations |<a|U(t_k)|0>|^2 against evolve's |0> column
        # on the same np.linspace grid, row by row
        if which == "target":
            z = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)
                          .filter(lambda z: np.linalg.norm(z) > 0.1))
            bra = np.conj(np.array(z[:3]) + 1j * np.array(z[3:])) / np.linalg.norm(z)
        else:
            bra = {"plus1": KET_P1, "zero": KET_0, "minus1": KET_M1}[which]
        got = prop._grid_rows(*prop._drive_weights(systems, bra), t_max, n_t)(0, len(systems))
        ts = np.linspace(0.0, t_max, n_t)
        want = [np.abs(drive_column(p, ts) @ bra) ** 2 for p in systems]
        assert got.shape == (len(systems), n_t)
        assert np.max(np.abs(got - want)) <= 1e-14


@st.composite
def period_propagators(draw):
    """Stacks (m, 3, 3) of unitaries: Haar random, or of a degenerate
    spectrum (triple, double, equally spaced, holding -1, or with phases
    near +-pi) in a random eigenbasis or the computational one, where the
    -1 is exact."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["haar", "triple", "double", "equal", "minus_one", "near_pi"]))
        if kind == "haar":
            rows.append(haar_unitary3(rng))
            continue
        a = draw(st.sampled_from([0.0, math.pi, None]))
        a = rng.uniform(-math.pi, math.pi) if a is None else a
        b = rng.uniform(-math.pi, math.pi)
        phases = {"triple": [a, a, a], "double": [a, a, b],
                  "equal": [a, a + 2.0 * math.pi / 3.0, a - 2.0 * math.pi / 3.0],
                  "minus_one": [math.pi, a, b],
                  "near_pi": [math.pi - 1e-9, 1e-9 - math.pi, b]}[kind]
        d = np.exp(1j * np.array(phases))
        if kind == "minus_one":
            d[0] = -1.0
        q = haar_unitary3(rng) if draw(st.booleans()) else np.eye(3)
        rows.append((q * d) @ q.conj().T)
    return np.array(rows)


def _loop_floquet_power(u):
    """``prop._floquet_power`` with its turn taken row by row in Python:
    the reference for the array form, which must give the same bits."""
    turn = []
    for theta in np.angle(np.linalg.eigvals(u)).tolist():
        theta = sorted(theta)
        gaps = zip(theta, theta[1:] + [theta[0] + 2.0 * math.pi])
        turn.append([math.pi - max((b - a, 0.5 * (a + b)) for a, b in gaps)[1]])
    turned = np.exp(1j * np.array(turn))[..., None] * u
    w, v = np.linalg.eigh(-1j * np.linalg.solve(np.eye(3) + turned, np.eye(3) - turned))
    return v, -2.0 * np.arctan(w) - turn


class TestFloquetPower:
    @settings(max_examples=300)
    @given(period_propagators())
    def test_decomposition_reconstructs_the_propagator(self, u):
        # u = v e^{i phi} v^H with v unitary, for every spectrum: a turn that
        # missed the widest gap's middle would make the Cayley transform
        # singular or ill conditioned
        v, phi = prop._floquet_power(u)
        vh = v.conj().swapaxes(-1, -2)
        assert np.max(np.abs((v * np.exp(1j * phi)[:, None, :]) @ vh - u)) < 1e-13
        assert np.max(np.abs(vh @ v - np.eye(3))) < 1e-13
        v_ref, phi_ref = _loop_floquet_power(u)
        assert v.tobytes() == v_ref.tobytes() and phi.tobytes() == phi_ref.tobytes()


class TestLabPropagation:
    def test_population_swap_within_rwa_error(self):
        seq = not_gate_sequence(P13)
        # populations are the same in every frame
        pops = np.abs(prop.evolve(P13, seq, method="lab", steps_per_period=40)[-1] @ KET_P1) ** 2
        assert abs(pops[2] - 1.0) < 5e-3
        assert abs(pops[1]) < 5e-3

    def test_self_convergence_fourth_order(self):
        # halving the step must cut the error by at least 8x (order 4 gives ~16x)
        p = SystemParams(D=100.0, muB=1.0, omega_x=3.0)
        q = characteristic_quantities(p)
        seq = PulseSequence([PulseSegment(q.T_prime, 0.3, p.omega_x)])
        ref = prop.evolve(p, seq, method="lab", steps_per_period=640)[-1]
        errs = []
        for spp in (20, 40, 80):
            u = prop.evolve(p, seq, method="lab", steps_per_period=spp)[-1]
            errs.append(np.linalg.norm(u - ref, 2))
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0

    def test_adaptive_matches_fixed(self):
        p = SystemParams(D=100.0, muB=1.0, omega_x=3.0)
        q = characteristic_quantities(p)
        seg = PulseSegment(q.T_prime, 0.0, p.omega_x)
        seq = PulseSequence([seg])
        u_fixed = to_lab(p, prop.evolve(p, seq, method="lab", steps_per_period=1280)[-1],
                         q.T_prime)
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
        u = to_lab(P_FULL, prop.evolve(P_FULL, seq, method="lab", steps_per_period=160)[-1],
                   seq.total_duration)
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
        us = prop.evolve(p, seq, times, "lab", spp)
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
            u_int = prop.evolve(p, seq, method="lab", steps_per_period=160)[-1]
            u_rwa = erc_unitary(p, period, 0.0)
            errs.append(np.linalg.norm(u_int - u_rwa.m, 2))
        assert errs[0] > errs[1] > errs[2]


class TestFrameTransform:
    @pytest.mark.parametrize("frame", [FrameTag.INTERACTION_D, FrameTag.INTERACTION_D_EZ])
    def test_propagate_result_is_in_the_requested_frame(self, frame):
        # Ez = 0 puts both methods in the interaction frame of D Sz^2, Ez != 0
        # in that of (D + Ez) Sz^2; in either frame the lab propagator must
        # stay within the counter-rotating bound of the rotating-wave one
        ez = 2.0 if frame == FrameTag.INTERACTION_D_EZ else 0.0
        p = SystemParams(D=100.0, muB=1.0, omega_x=3.0, Ez=ez)
        assert p.interaction_frame == frame
        seq = not_gate_sequence(p)
        rwa = prop.evolve(p, seq, method="rwa")[-1]
        lab = prop.evolve(p, seq, method="lab", steps_per_period=200)[-1]
        assert np.linalg.norm(rwa - lab, 2) < 2.0 * p.omega_x / p.carrier
        assert prop.sequence_unitary(p, seq).frame == frame


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
    stack = prop._LabStack(p, [seg], [t0], spp)
    return prop._lab_local(stack, np.zeros(len(taus), dtype=int), taus)


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
        prop.evolve(p, seq, method="lab", steps_per_period=spp)
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
        u_int = prop.evolve(P13, seq, method="lab", steps_per_period=80)[-1]
        err = np.linalg.norm(u_int - erc_unitary(P13, duration, alpha).m, 2)
        assert err < 2.0 * P13.omega_x / P13.carrier


class TestStepsPerPeriod:
    @pytest.mark.parametrize("spp", [0, -1, 2.0, None, True])
    def test_walk_refuses(self, spp):
        with pytest.raises(ValueError, match="steps_per_period"):
            prop.evolve(P13, not_gate_sequence(P13), method="lab", steps_per_period=spp)

    def test_default_steps_per_period(self, kernel_calls):
        period = 2 * math.pi / P13.carrier
        seq = PulseSequence([PulseSegment(3 * period, 0.2, P13.omega_x)])
        prop.evolve(P13, seq, method="lab")
        assert [n for _, n in kernel_calls] == [prop.LAB_STEPS_PER_PERIOD // 2]
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
        ana = prop.evolve(P13, seq, times, "analytic")
        rwa = prop.evolve(P13, seq, times, "rwa")
        lab = prop.evolve(P13, seq, times, "lab", 80)
        assert np.max(np.abs(rwa - ana)) < 1e-12
        err = np.max(np.linalg.norm(lab - ana, 2, axis=(1, 2)))
        assert err < 2.0 * len(segs) * P13.omega_x / P13.carrier

    @settings(max_examples=60)
    @given(program=mixed_drive_programs())
    def test_analytic_equals_rwa_on_mixed_drives(self, program):
        # the closed-form spectra of each distinct drive, against one eigh
        # of every segment's H_rwa, at samples inside and past the segments
        p, seq, times = program
        ana = prop.evolve(p, seq, times, "analytic")
        assert np.max(np.abs(ana - prop.evolve(p, seq, times, "rwa"))) < 1e-13

    @pytest.mark.parametrize("order,error", [
        ("good two_tone_bad off", ResonanceError),
        ("good off two_tone_bad", RegimeError),
        ("two_tone off two_tone_bad", RegimeError),
        ("off two_tone_bad good", RegimeError),
    ])
    def test_first_offending_segment_decides_the_error(self, order, error):
        # the checks run once per drive, yet the first segment in program
        # order that the closed forms refuse decides: beta != alpha on a
        # two-tone segment, or a drive below the threshold (here off)
        segs = {"good": PulseSegment(0.5, 0.3, 3.0),
                "two_tone": PulseSegment(0.5, 0.3, 3.0, 1.0),
                "two_tone_bad": PulseSegment(0.5, 0.3, 3.0, 1.0, beta=1.3),
                "off": PulseSegment(0.5, 0.3, 0.0)}
        seq = PulseSequence([segs[name] for name in order.split()])
        with pytest.raises(error):
            prop.evolve(P13, seq, method="analytic")
        prop.evolve(P13, seq, method="rwa")  # which simulates every segment

    def test_closed_forms_take_no_eigh(self, monkeypatch):
        # the closed forms supply their eigenpairs: neither an analytic walk
        # nor erc_unitary builds or decomposes an H_rwa
        calls = []
        real_eigh, real_stack = np.linalg.eigh, ham.hamiltonian_rwa_stack
        monkeypatch.setattr(np.linalg, "eigh", lambda h: (calls.append("eigh"), real_eigh(h))[1])
        for module in (ham, prop):
            monkeypatch.setattr(module, "hamiltonian_rwa_stack",
                                lambda *a: (calls.append("stack"), real_stack(*a))[1])
        p = SystemParams(D=500.0, muB=1.0, omega_x=4.5, Ex=0.7, Ey=-0.3,
                         omega_y=compensation_ratio(0.7, -0.3) * 4.5)
        seq = PulseSequence([PulseSegment(0.9, 0.2 * k, f * p.omega_x, f * p.omega_y)
                             for k, f in enumerate([1.0, 2.0, 1.0, 1.5, 2.0])])
        times = np.linspace(0.0, seq.total_duration, 7)
        prop.evolve(p, seq, times, "analytic")
        erc_unitary(p, 0.7, 0.3)
        assert calls == []
        prop.evolve(p, seq, times, "rwa")  # the spies do see the rwa method
        assert calls == ["stack", "eigh"]

    @pytest.mark.parametrize("method", ["analytic", "rwa", "lab"])
    def test_refuses_decreasing_times(self, method):
        # the walk assigns samples to segments in order, so a decreasing
        # pair would give the earlier sample a wrong propagator
        t = characteristic_quantities(P13).T_total
        with pytest.raises(ValueError, match="non-decreasing"):
            prop.evolve(P13, not_gate_sequence(P13), [0.7 * t, 0.2 * t], method)

    @pytest.mark.parametrize("method", ["analytic", "rwa", "lab"])
    @pytest.mark.parametrize("times", [[math.nan], [0.1, math.nan, 0.3], [math.nan, math.inf]])
    def test_refuses_nan_times(self, method, times):
        with pytest.raises(ValueError, match="NaN"):
            prop.evolve(P13, not_gate_sequence(P13), times, method)

    @pytest.mark.parametrize("times", [0.5, [[0.1, 0.2]]])
    def test_refuses_times_that_are_not_1d(self, times):
        with pytest.raises(ValueError, match="1-D"):
            prop.evolve(P13, not_gate_sequence(P13), times)

    @pytest.mark.parametrize("method", ["analytic", "rwa", "lab"])
    def test_times_before_the_start_give_the_identity(self, method):
        seq = not_gate_sequence(P13)
        us = prop.evolve(P13, seq, [-math.inf, -1.0, 0.0, 0.5, 0.5, math.inf], method)
        assert np.array_equal(us[:3], np.broadcast_to(np.eye(3), (3, 3, 3)))
        assert np.array_equal(us[3], us[4])
        assert np.array_equal(us[5], prop.evolve(P13, seq, method=method)[0])


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
        us = prop.evolve(p, seq, times, "lab", spp)
        assert np.max(np.abs(us - _stepped_program(p, seq, times, spp))) < 1e-12

    def test_memory_is_bounded(self):
        # 20,000 samples at 80 steps per period are about 400,000 steps; the
        # kernel forms at most _BLOCK step matrices at once, so the traced
        # peak stays near the 2.9 MB of propagators returned
        seq = PulseSequence([PulseSegment(0.7, 0.0, 3.0), PulseSegment(1.1, 1.3, 3.0)])
        times = np.linspace(0.0, seq.total_duration, 20_000)
        tracemalloc.start()
        try:
            us = prop.evolve(P13, seq, times, "lab", 80)
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
            assert np.max(np.abs(h0 - rwa_hamiltonian(p, seg))) < 1e-12


@st.composite
def hermitian_exponents(draw):
    """(M, traceless operator norm): a Hermitian 3x3 M = t I + Q with
    trace 3t up to 1e3 and Q's norm up to 2 pi, of a random spectrum, an
    exactly degenerate one, a nearly degenerate one, or Q = 0 (M = 0 or
    M = t I).  The exact one is Q = a (1 - w w^H) with the entries of w in
    {1, -1, i, -i}, so 3 |v><v| for a unit v: eigenvalues a, a and -2a, and
    no rounding in Q."""
    kind = draw(st.sampled_from(["random", "exact", "near", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    norm = 0.0 if kind == "zero" else draw(st.floats(0.0, 2 * math.pi))
    trace = draw(st.sampled_from([0.0, draw(st.floats(-1e3, 1e3))]))
    if kind == "exact":
        w = np.array([1.0, *rng.choice([1.0, -1.0, 1j, -1j], 2)])
        q = draw(st.sampled_from([0.5, -0.5])) * norm * (np.eye(3) - np.outer(w, w.conj()))
    else:
        eig = rng.normal(size=3) if kind == "random" else np.array(
            [1.0, 1.0 + draw(st.floats(1e-15, 1e-6)), -2.0]) * draw(st.sampled_from([1, -1]))
        eig -= eig.mean()
        v = haar_unitary3(rng)
        q = (v * (eig * norm / np.max(np.abs(eig)))) @ v.conj().T
        q = 0.5 * (q + q.conj().T)
    return q + trace / 3.0 * np.eye(3), norm


class TestStepExponential:
    @settings(max_examples=300)
    @given(ms=st.lists(hermitian_exponents(), min_size=1, max_size=4))
    def test_matches_expm(self, ms):
        # exp(-i M) in closed form is expm's to 1e-12 and unitary to
        # rounding; a stack gives each matrix the bits it gets alone
        stack = _kernels.exp_hermitian(np.stack([m for m, _ in ms], axis=-1))
        for k, (m, norm) in enumerate(ms):
            u = stack[..., k]
            assert np.array_equal(u, _kernels.exp_hermitian(m[..., None])[..., 0])
            assert np.max(np.abs(u - expm(-1j * m))) <= 1e-12
            defect = np.max(np.abs(u @ u.conj().T - np.eye(3)))
            assert defect <= (1e-14 if norm <= 1.0 else 1e-13)


class TestKernels:
    def test_invalid_step_count(self):
        with pytest.raises(ValueError):
            _kernels.magnus_lab_rows(np.eye(3)[None], np.eye(3)[None], 1.0,
                                     [0, 0], [0.0, 0.0], [1.0, 1.0], [2, 0])
