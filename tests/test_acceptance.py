"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line into the terminal summary (see conftest).

Every tolerance is pinned here, not computed; lab-frame comparisons state
their step density explicitly because the rotating-wave error they measure
(~1/carrier) must dominate the integrator error (~h^4).
"""

import math

import numpy as np
import pytest

from conftest import ACCEPTANCE_RESULTS, random_plain_params, rwa_hamiltonian
from nverc import (AxisDegenerateError, DQRotation, NoConvergenceError,
                   PulseSegment, PulseSequence, RotationAxis, SystemParams,
                   characteristic_quantities, closed_form_unitary,
                   compensation_ratio, dq_rotation, erc_unitary, evolve,
                   not_gate_sequence, phi_state, rabi_extract, ratio_scan,
                   synthesize_gate)
from nverc.spin import KET_0, KET_P1
from nverc.synth import dq_block, dq_gate_fidelity, haar_unitary2

P13 = SystemParams(D=500.0, muB=1.0, omega_x=3.0)
ALPHAS = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
OMEGA_ORTHO = 2.0 / math.cos(math.pi / 8.0)  # rotation axes 90 deg apart


def record(criterion, name, ok, detail=""):
    ACCEPTANCE_RESULTS.append((criterion, name, bool(ok), detail))
    assert ok, f"criterion {criterion} ({name}): {detail}"


@pytest.fixture(scope="module")
def sample_params():
    rng = np.random.default_rng(421)
    return random_plain_params(rng, 50)


def test_criterion_01_closed_form_identities(sample_params):
    worst = 0.0
    for p in sample_params:
        q = characteristic_quantities(p)
        for alpha in ALPHAS:
            d1 = np.linalg.norm(
                closed_form_unitary(p, "Tprime", alpha).m
                - erc_unitary(p, q.T_prime, alpha).m, 2)
            d2 = np.linalg.norm(
                closed_form_unitary(p, "Tsecond", alpha).m
                - erc_unitary(p, q.T_second, alpha).m, 2)
            worst = max(worst, d1, d2)
    record("01", "closed-form basis-exchange identities", worst < 1e-9,
           f"worst operator-norm gap {worst:.2e} (tol 1e-9)")


def test_criterion_02_ground_state_depletion(sample_params):
    worst = 0.0
    for p in sample_params:
        q = characteristic_quantities(p)
        for alpha in ALPHAS:
            worst = max(worst, abs(erc_unitary(p, q.T_prime, alpha).m[1, 1]))
    record("02", "ground-state depletion at T_prime", worst < 1e-10,
           f"worst |<0|U|0>| = {worst:.2e} (tol 1e-10)")


def test_criterion_03_full_period_identity(sample_params):
    worst = 0.0
    for p in sample_params:
        q = characteristic_quantities(p)
        for alpha in ALPHAS:
            worst = max(worst,
                        np.linalg.norm(erc_unitary(p, q.T_total, alpha).m - np.eye(3), 2))
    record("03", "full-period evolution is the identity", worst < 1e-10,
           f"worst ||U(T)-1|| = {worst:.2e} (tol 1e-10)")


def test_criterion_04_population_swap_analytic_and_lab():
    seq = not_gate_sequence(P13)
    u = evolve(P13, seq, method="analytic")[-1]
    ok_analytic = (abs(abs((u @ KET_P1)[2]) ** 2 - 1.0) < 1e-9
                   and abs(abs((u @ KET_0)[1]) ** 2 - 1.0) < 1e-9)

    # populations are the same in every frame
    u_lab = evolve(P13, seq, method="lab", steps_per_period=160)[-1]
    d_swap = abs(abs((u_lab @ KET_P1)[2]) ** 2 - 1.0)
    d_hold = abs(abs((u_lab @ KET_0)[1]) ** 2 - 1.0)
    ok_lab = d_swap < 5e-3 and d_hold < 5e-3
    record("04", "two-pulse population swap (analytic + lab frame)",
           ok_analytic and ok_lab,
           f"lab errors swap {d_swap:.2e}, hold {d_hold:.2e} (tol 5e-3, carrier 500x)")


def test_criterion_05_rotation_spectra():
    rng = np.random.default_rng(55)
    worst = 0.0
    for p in random_plain_params(rng, 20):
        q = characteristic_quantities(p)
        lam = 2.0 * q.phi
        for theta in (math.pi / 4, math.pi / 2, math.pi):
            for axis, sgn in ((RotationAxis.MINUS_PHI, -1), (RotationAxis.PLUS_PHI, +1)):
                u, _ = dq_rotation(p, DQRotation(axis, theta))
                for ev, vec in (
                    (np.exp(-1j * theta), KET_0),
                    (np.exp(1j * theta), phi_state(sgn * lam).amps),
                    (1.0, phi_state(math.pi + sgn * lam).amps),
                ):
                    worst = max(worst, np.linalg.norm(u.m @ vec - ev * vec))
    record("05", "two-pulse rotation eigenstructure", worst < 1e-9,
           f"worst eigenpair residual {worst:.2e} (tol 1e-9)")


def test_criterion_06_synthesis_suite():
    # (a) orthogonal rotation axes: every target within three rotations.
    # The axes sit 4*phi apart on the Bloch sphere, so the 90-degree
    # geometry is omega = 2 muB / cos(pi/8); at omega = 2 sqrt(2) muB the
    # two axes fall on a single line and synthesis must refuse.
    p_ortho = SystemParams(D=500.0, muB=1.0, omega_x=OMEGA_ORTHO)
    rng = np.random.default_rng(6)
    n_long, worst_fid, worst_leak = 0, 1.0, 0.0
    for _ in range(100):
        target = haar_unitary2(rng)
        # a spare draw per target keeps the 100 + 25 targets this criterion is pinned on
        rng.integers(2**31)
        res = synthesize_gate(p_ortho, target)
        if len(res.rotations) > 3:
            n_long += 1
        worst_fid = min(worst_fid, res.fidelity)
        m = res.unitary.m
        leak = math.sqrt(abs(m[1, 0])**2 + abs(m[1, 2])**2)
        worst_leak = max(worst_leak, leak)
    ok_a = n_long == 0 and worst_fid >= 1 - 1e-9 and worst_leak < 1e-9

    # (b) narrow separation: converge at any length or fail loudly
    p_narrow = SystemParams(D=500.0, muB=1.0, omega_x=2.05)
    silent_bad = 0
    outcomes = {"converged": 0, "reported": 0}
    for i in range(25):
        target = haar_unitary2(rng)
        try:
            res = synthesize_gate(p_narrow, target)
            outcomes["converged"] += 1
            if res.fidelity < 1 - 1e-9:
                silent_bad += 1
        except (AxisDegenerateError, NoConvergenceError):
            outcomes["reported"] += 1
    ok_b = silent_bad == 0

    # (c) coincident axis lines are refused
    p_degenerate = SystemParams(D=500.0, muB=1.0, omega_x=2.0 * math.sqrt(2.0))
    try:
        synthesize_gate(p_degenerate, haar_unitary2(rng))
        ok_c = False
    except AxisDegenerateError:
        ok_c = True

    record("06", "gate synthesis (orthogonal axes / narrow axes / degenerate)",
           ok_a and ok_b and ok_c,
           f"100 targets <=3 rotations, worst fidelity {worst_fid:.12f}, "
           f"worst leakage {worst_leak:.1e}; narrow: {outcomes}")


def _robustness_map(omega, n=129):
    p = SystemParams(D=500.0, muB=1.0, omega_x=omega)
    q = characteristic_quantities(p)
    ts = np.linspace(0.0, q.T_total, n)
    u1 = np.stack([erc_unitary(p, t, 0.0).m for t in ts])
    u2 = np.stack([erc_unitary(p, t, math.pi).m for t in ts])
    psi1 = u1 @ KET_P1
    amp = np.einsum("jk,ik->ij", u2[:, 2, :], psi1)
    return q, ts, np.abs(amp) ** 2  # indexed [i_t1, j_t2]


def test_criterion_07_robustness_landmarks():
    # minimum drive: single peak at equal half-period pulses
    q2, ts2, p2 = _robustness_map(2.0)
    i, j = np.unravel_index(int(np.argmax(p2)), p2.shape)
    cell = ts2[1] - ts2[0]
    ok_a = (abs(ts2[i] - q2.T_total / 2) <= cell + 1e-12
            and abs(ts2[j] - q2.T_total / 2) <= cell + 1e-12)

    # strong drive: exact peaks at the two depletion-time pairings plus four
    # approximate peaks where one pulse is idle and the other lasts T/2
    q50, ts50, p50 = _robustness_map(50.0)
    cell50 = ts50[1] - ts50[0]
    i, j = np.unravel_index(int(np.argmax(p50)), p50.shape)
    near = lambda t, t0: abs(t - t0) <= cell50 + 1e-12
    ok_b = ((near(ts50[i], q50.T_prime) and near(ts50[j], q50.T_second))
            or (near(ts50[i], q50.T_second) and near(ts50[j], q50.T_prime)))
    # the mirrored pairing peaks identically (the base phase drops out)
    ok_b = ok_b and abs(p50[j, i] - p50[i, j]) < 1e-9

    n = len(ts50)
    ih = int(np.argmin(np.abs(ts50 - q50.T_total / 2)))
    secondary = []
    for (a, b) in ((0, ih), (n - 1, ih), (ih, 0), (ih, n - 1)):
        sl = p50[max(a - 2, 0):a + 3, max(b - 2, 0):b + 3]
        secondary.append(float(sl.max()))
    ok_c = all(s >= 0.95 for s in secondary)

    record("07", "timing-error landscape landmarks", ok_a and ok_b and ok_c,
           f"129x129 grids; secondary peaks {[round(s, 4) for s in secondary]} "
           "(threshold 0.95)")


def test_criterion_08_transverse_y_overlays():
    from scipy.optimize import brentq

    boundary = math.sqrt(5.0) / 2.0
    worst_rel = 0.0
    for ey in np.linspace(0.0, boundary, 33, endpoint=False):
        p = P13.replace(Ey=ey)
        q = characteristic_quantities(p)
        h = rwa_hamiltonian(p, PulseSegment(1.0, 0.0, p.omega_x))
        w, v = np.linalg.eigh(h)
        c = v[1, :].conj() * v[1, :]
        amp = lambda t: float(np.real(np.sum(c * np.exp(-1j * w * t))))
        # bracket the first sign change independently of the prediction
        ts = np.linspace(0.0, q.T_total, 400)
        vals = np.array([amp(t) for t in ts])
        k = int(np.argmax(vals < 0.0))
        root = brentq(amp, ts[k - 1], ts[k], xtol=1e-14)
        worst_rel = max(worst_rel, abs(root - q.T_prime) / q.T_prime)
    ok_zero = worst_rel < 1e-6

    p_beyond = P13.replace(Ey=1.02 * boundary)
    h = rwa_hamiltonian(p_beyond, PulseSegment(1.0, 0.0, 3.0))
    w, v = np.linalg.eigh(h)
    c = v[1, :].conj() * v[1, :]
    ts = np.linspace(0.0, 12.0, 4001)
    p0_min = float(np.min(np.abs(np.exp(-1j * np.outer(ts, w)) @ c) ** 2))
    ok_beyond = p0_min > 0.0 and p0_min > 1e-6

    record("08", "transverse-y depletion-time overlays", ok_zero and ok_beyond,
           f"worst relative zero mismatch {worst_rel:.2e} (tol 1e-6); "
           f"beyond-boundary min p0 = {p0_min:.2e} > 0")


def test_criterion_09_compensation_ratio_scan():
    r_star = math.sqrt(2.0) - 1.0
    p = SystemParams(D=500.0, muB=1.0, omega_x=4.5, Ex=0.7, Ey=-0.7)
    scan = ratio_scan(p, np.linspace(0.0, 2.0 * r_star, 81))
    err = abs(scan.best_ratio - r_star)
    ok_best = err < 1e-3
    resonant_min = min(scan.depletion)
    ok_depl = resonant_min < 1e-6
    off = {}
    for r_off in (0.3, 0.5):
        k = int(np.argmin(np.abs(np.asarray(scan.ratios) - r_off)))
        off[r_off] = scan.depletion[k]
    ok_off = all(v > resonant_min for v in off.values()) and all(v > 1e-4 for v in off.values())
    record("09", "two-tone compensation recovery", ok_best and ok_depl and ok_off,
           f"|best - (sqrt2-1)| = {err:.2e} (tol 1e-3), resonant min p0 "
           f"{resonant_min:.1e}, off-ratio minima {({k: float(f'{v:.3e}') for k, v in off.items()})}")


def test_criterion_10_calibration_round_trip():
    q = characteristic_quantities(P13)
    ex = rabi_extract(P13, t_max=1.5 * q.T_total)
    ok_times = (abs(ex.T_total - q.T_total) < 1e-8
                and abs(ex.T_prime - q.T_prime) < 1e-8
                and abs(ex.phi - q.phi) < 1e-8)
    seq_est = PulseSequence([
        PulseSegment(ex.T_prime, 0.0, P13.omega_x),
        PulseSegment(ex.T_total - ex.T_prime, math.pi, P13.omega_x),
    ])
    a = evolve(P13, not_gate_sequence(P13))[-1] @ KET_P1
    b = evolve(P13, seq_est)[-1] @ KET_P1
    fid = abs(np.vdot(a, b))
    record("10", "calibration round trip", ok_times and fid >= 1 - 1e-6,
           f"extracted-time gate fidelity {fid:.12f} (floor 1-1e-6)")


def test_criterion_11_rotating_wave_convergence():
    # gate error between the lab-frame and closed-form population-swap
    # propagators, RMS over four base phases (the quadratic cross term of
    # boundary micromotion with the secular shift averages out); expected
    # first-order scaling in the inverse carrier
    q = characteristic_quantities(P13)
    ratios = [50, 100, 200, 500]
    errs = []
    for ratio in ratios:
        d = ratio * P13.omega_x
        p = SystemParams(D=d, muB=1.0, omega_x=3.0)
        acc = []
        for alpha in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            seq = PulseSequence([
                PulseSegment(q.T_prime, alpha, p.omega_x),
                PulseSegment(q.T_second, alpha + math.pi, p.omega_x),
            ])
            u_int = evolve(p, seq, method="lab", steps_per_period=160)[-1]
            u_ref = dq_rotation(p, DQRotation(RotationAxis.MINUS_PHI, math.pi))[0]
            ph = np.trace(u_ref.m.conj().T @ u_int)
            ph /= abs(ph)
            acc.append(np.linalg.norm(u_int - ph * u_ref.m, 2) ** 2)
        errs.append(math.sqrt(sum(acc) / len(acc)))
    slope = float(np.polyfit(np.log(ratios), np.log(errs), 1)[0])
    record("11", "rotating-wave error scales as 1/carrier", -1.2 <= slope <= -0.8,
           f"log-log slope {slope:.3f} over carrier/drive in {ratios} "
           f"(band -1 +- 0.2); errors {[f'{e:.2e}' for e in errs]}")


def test_criterion_12_deterministic_sweeps(tmp_path):
    from pathlib import Path

    from nverc.cli import main

    configs = Path(__file__).resolve().parent.parent / "configs"
    same = True
    for name, command in (("fig4a_robustness.json", "robustness"),
                          ("fig2_trace.json", "trace")):
        outs = []
        # --jobs 1, --jobs 4, and a repeated run that must reproduce the bytes
        for k, jobs in enumerate(("1", "4", "1")):
            out = tmp_path / f"{name}.{k}.csv"
            rc = main([command, "--config", str(configs / name), "--out", str(out),
                       "--jobs", jobs])
            outs.append(out.read_bytes() if rc == 0 else None)
        same = same and outs[0] is not None and outs[0] == outs[1] == outs[2]
    record("12", "byte-identical sweeps across worker counts", same,
           "checked fig4a robustness map and fig2 trace through the CLI, "
           "--jobs in {1, 4} and a repeated run")
