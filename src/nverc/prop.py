"""Independent numerical propagator for the driven three-level system.

Serves as the oracle the closed forms are checked against: integrates the
time-dependent lab-frame Schrodinger equation (counter-rotating terms
retained) by fixed-step fourth-order Magnus in the frame of the carrier
(``nverc._kernels``), and propagates the rotating-wave Hamiltonians by
exact matrix exponentiation.  H_rwa is built (``ham.hamiltonian_rwa_stack``)
and decomposed only here, one stack by one batched ``eigh``: ``evolve``'s
rwa method decomposes a program's segments, and ``_drive_weights`` the
constant drives of a stack of systems.  From its eigenvalues and weights
the spectral maps and both calibration scans read <a|U(t)|0> alone, on a
uniform time grid (a map block by block of rows, ``_grid_rows``) or at
single times, forming no propagator.

Every pulse program runs through one call, ``evolve``, for all three
methods, which returns interaction-frame propagators at any non-decreasing
array of sample times.  Analytic and rwa share one spectral expression,
v e^{-i w t} v^H, with eigenpairs from the closed forms (``nverc.erc``) or
from one ``eigh``; lab integrates.  Traces, the synthesis cross-checks and
``sequence_unitary`` are each one call of it.

In a constant-drive segment the carrier-frame Hamiltonian has the period
P = T_c / 2, half the carrier period T_c = 2 pi / (D + Ez), so a segment
of duration N P + r from t0 propagates as U_r U_P^N (Floquet; Shirley,
Phys. Rev. 138, B979, 1965).  U_P, one period from t0, is raised to the
power through its eigendecomposition, and U_r is integrated from t0:
stepping on a period-aligned grid at the cost of one or two periods,
unitary to rounding, whatever the segment length.  A lab walk plans the
whole program first and prepares every segment at once (``_LabStack``:
harmonics, then U_P and its decomposition once a duration spans it).  One
evaluation (``_lab_local``) makes U_P of every segment that needs it and
U_r of every sample rows of one stacked kernel call, and gives each
sample's segment-local propagator U_r U_P^N; the chain then costs one
product per segment.  The lab calibration amplitude keeps one stack for
all the root finder's calls, so each call integrates only remainders.
``steps_per_period`` = n is the resolution: a carrier period takes exactly
n steps (for odd n, P = T_c), a remainder r takes ceil(r n / T_c).  The
default 8 puts the fig2 lab populations within 2e-5 of a converged run;
the error falls as h^4.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .erc import _evolved, _spectrum
from .errors import ResonanceError
from .ham import hamiltonian_rwa_stack, lab_drive_operators, static_hamiltonian
from .pulses import PulseSegment, PulseSequence
from .spin import SystemParams, Unitary3

__all__ = ["evolve", "sequence_unitary"]

LAB_STEPS_PER_PERIOD = 8  # Magnus steps per carrier period, by default


def _drive_weights(systems, bra):
    """Eigenvalues w (m, 3) of the H_rwa of each system's own constant drive
    at phase 0, by one batched ``eigh``, and the weights
    c_j = <a|v_j><v_j|0> of a bra <a| (shape (3,)), so that
    <a|U_i(t)|0> = sum_j c_ij e^(-i w_ij t)."""
    segs = [PulseSegment(0.0, 0.0, p.omega_x, p.omega_y) for p in systems]
    w, v = np.linalg.eigh(hamiltonian_rwa_stack(systems, segs))
    return w, (bra @ v) * v[..., 1, :].conj()


def _population(w, c, t):
    """|sum_j c_j e^(-i w_j t)|^2 of one row of ``_drive_weights``."""
    a = c @ np.exp(-1j * w * t)
    return a.real * a.real + a.imag * a.imag


def _grid_rows(w, c, t_max, n_t):
    """The producer ``rows(lo, hi)`` of rows lo..hi-1, shape (hi - lo, n_t),
    of |sum_j c_ij e^(-i w_ij t_k)|^2 for eigenvalues ``w`` and weights ``c``
    of shape (m, 3), on the grid t_k = k dt of ``np.linspace(0, t_max, n_t)``.
    Writing k = q B + r with B = ceil(sqrt(n_t)) factors each phase as
    e^(-i w_j q B dt) e^(-i w_j r dt): the phase tables, 2 sqrt(n_t)
    exponentials per eigenvalue, are made once for all rows, and a row
    takes one (n_t / B, 3) @ (3, B) product, so only the rows asked for are
    held, never an (m, n_t) complex array."""
    dt = t_max / (n_t - 1)                       # np.linspace's step
    b = math.isqrt(n_t - 1) + 1                  # ceil(sqrt(n_t))
    n_q = -(-n_t // b)
    # fast[i, j, r] = e^(-i w_ij r dt), slow[i, q, j] = c_ij e^(-i w_ij q B dt)
    fast = np.exp(-1j * w[:, :, None] * (np.arange(b) * dt))
    slow = c[:, None, :] * np.exp(-1j * w[:, None, :] * (np.arange(0, n_q * b, b) * dt)[:, None])

    def rows(lo, hi):
        out = np.empty((hi - lo, n_t))
        for row, s, f in zip(out, slow[lo:hi], fast[lo:hi]):
            a = (s @ f).reshape(-1)[:n_t]        # the amplitude at t_(q B + r)
            row[:] = a.real * a.real + a.imag * a.imag
        return out
    return rows


class _LabStack:
    """The prepared stack of a lab walk over segments ``segs`` starting at
    ``t0``: each segment's harmonics and, once some duration has spanned a
    whole period of it, the eigendecomposition of its one-period propagator
    U_P (``_floquet_power``), kept for every later evaluation.

    An even ``steps_per_period`` n integrates the half carrier period in
    n/2 steps, an odd n the whole period in n steps."""

    def __init__(self, p, segs, t0, steps_per_period):
        self.carrier, self.t0 = p.carrier, np.asarray(t0, dtype=float)
        self.period, self.n = 2.0 * math.pi / p.carrier, steps_per_period
        if self.n % 2 == 0:
            self.period, self.n = self.period / 2.0, self.n // 2
        ax, ay = (np.array(m) for m in zip(*map(lab_drive_operators, segs)))
        alpha = np.array([seg.alpha for seg in segs])[:, None, None]
        beta = np.array([seg.beta for seg in segs])[:, None, None]
        self.h0, self.v = _kernels._harmonics(static_hamiltonian(p), ax, ay, p.carrier, alpha, beta)
        self.vecs = np.empty((len(segs), 3, 3), dtype=complex)
        self.phases = np.empty((len(segs), 3))
        self.ready = np.zeros(len(segs), dtype=bool)


def _lab_local(stack, which, taus):
    """Segment-local lab propagators (len(taus), 3, 3): for each duration
    tau > 0, the interaction-frame propagator of segment ``which[i]`` of
    ``stack`` from its t0 over tau, U_r U_P^N for tau = N P + r.

    One row-kernel call integrates, from the identity, one period of every
    segment that a duration spans whole periods of and that the stack has
    not decomposed yet, then every duration's remainder; the powers come
    from the stack and are assembled in blocks of ``_kernels._BLOCK``
    durations."""
    n_periods, rest = _period_split(taus, stack.period)
    new = np.unique(which[n_periods > 0])
    new = new[~stack.ready[new]]
    has_rest = rest > 0.0
    rows = np.concatenate([new, which[has_rest]])
    rests = rest[has_rest]
    us = _kernels.magnus_lab_rows(
        stack.h0, stack.v, stack.carrier, rows, stack.t0[rows],
        np.concatenate([np.full(len(new), stack.period), rests]),
        np.concatenate([np.full(len(new), stack.n), _n_steps(rests, stack.period / stack.n)]))
    if len(new):
        stack.vecs[new], stack.phases[new] = _floquet_power(us[:len(new)])
        stack.ready[new] = True
    us = us[len(new):]
    rest_row = np.cumsum(has_rest) - 1
    out = np.empty((len(taus), 3, 3), dtype=complex)
    for lo in range(0, len(taus), _kernels._BLOCK):
        hi = min(lo + _kernels._BLOCK, len(taus))
        x = out[lo:hi]
        x[:] = np.eye(3)
        i = lo + np.flatnonzero(n_periods[lo:hi])
        v = stack.vecs[which[i]]
        x[i - lo] = (v * np.exp(1j * n_periods[i, None] * stack.phases[which[i]])[:, None, :]
                     ) @ v.conj().swapaxes(-1, -2)
        i = lo + np.flatnonzero(has_rest[lo:hi])
        x[i - lo] = us[rest_row[i]] @ x[i - lo]
    return out


def _floquet_power(u):
    """Eigenvectors v and eigenphases phi of a stack u of one-period
    propagators, so that u[j]^N = v[j] e^{i N phi[j]} v[j]^H for any
    count N, unitary to rounding (squaring would double u's defect per
    squaring).  With u turned to put -1 mid-way in the widest gap of its
    spectrum, its Cayley transform K = -i (1 + u)^-1 (1 - u) is Hermitian
    and well conditioned; ``eigh`` gives orthonormal eigenvectors and the
    eigenphases -2 atan(k)."""
    theta = np.sort(np.angle(np.linalg.eigvals(u)), axis=-1)
    ends = np.concatenate([theta[:, 1:], theta[:, :1] + 2.0 * math.pi], axis=-1)
    # the last of the widest gaps between neighbours on the circle
    gap = 2 - np.argmax((ends - theta)[:, ::-1], axis=-1)[:, None]
    turn = math.pi - 0.5 * (np.take_along_axis(theta, gap, -1) + np.take_along_axis(ends, gap, -1))
    turned = np.exp(1j * turn)[..., None] * u
    w, v = np.linalg.eigh(-1j * np.linalg.solve(np.eye(3) + turned, np.eye(3) - turned))
    return v, -2.0 * np.arctan(w) - turn


def _n_steps(duration, step):
    """ceil(duration / step), at least 1, not rounded up by a last-bit excess
    (so a duration of n steps gives n); elementwise."""
    return np.maximum(1, np.ceil(duration / step * (1.0 - 1e-12)).astype(int))


def _period_split(duration, period):
    """(N, r) with duration = N period + r, elementwise; r within 1e-12
    period of 0 or of a full period is snapped to 0."""
    n = np.floor(duration / period)
    rest = duration - n * period
    whole = rest > period * (1.0 - 1e-12)
    rest = np.where(whole | (rest < period * 1e-12), 0.0, rest)
    return (n + whole).astype(int), rest


def evolve(p: SystemParams, seq: PulseSequence, times=(math.inf,), method: str = "analytic",
           steps_per_period: int = LAB_STEPS_PER_PERIOD) -> np.ndarray:
    """Interaction-frame propagators (n, 3, 3) of a pulse program at n
    non-decreasing sample times, by default one, the whole program.

    ``method``: ``analytic`` (closed forms), ``rwa`` (matrix exponentials
    of the segments' rotating-wave Hamiltonians) or ``lab`` (full lab-frame
    integration, counter-rotating terms included, taken to the interaction
    frame of ``p``); ``rwa_numeric`` and ``lab_numeric`` are accepted too.

    The program runs once, skipping zero-duration segments: a sample inside
    a segment continues from the propagator at the segment's start t0, and
    a lab sample integrates from t0 as the truncated program would.  A
    sample at most 1e-15 short of a segment's end counts as that end; one
    past the end (``math.inf`` included) gets the whole program, one at or
    before 0 the identity.  Lab integration takes ``steps_per_period``
    Magnus steps per carrier period.  Sample times that are not a 1-D
    array, or hold a NaN or a decrease, are refused with ``ValueError``.

    A first pass plans each segment's durations; the second computes their
    propagators from the segment start, from one stack of all segments (lab:
    ``_LabStack`` and ``_lab_local``; analytic and rwa: one spectral
    expression of their eigenpairs, closed-form or from one ``eigh``), and
    chains each segment's with u, the propagator at its start, in one product.
    """
    method = _canonical_method(method)
    if type(steps_per_period) is not int or steps_per_period < 1:  # bools are refused too
        raise ValueError(f"steps_per_period must be an integer >= 1, got {steps_per_period!r}")

    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.isnan(times).any() or (times[1:] < times[:-1]).any():
        raise ValueError("sample times must be a 1-D non-decreasing array without NaN")
    plan, ends = [], []  # (seg, t0, taus), and where the segment's samples end
    done = 0
    t1 = 0.0
    for seg in seq:
        t0, t1 = t1, t1 + seg.duration
        if seg.duration == 0.0:
            continue
        if done == len(times):
            break
        taus = times[done:np.searchsorted(times, t1 - 1e-15)] - t0
        done += len(taus)
        plan.append((seg, t0, np.append(taus[taus > 0.0], seg.duration)))
        ends.append(done)
    segs = [seg for seg, _, _ in plan]
    if method == "lab_numeric" and plan:
        stack = _LabStack(p, segs, [t0 for _, t0, _ in plan], steps_per_period)
        counts = [len(taus) for _, _, taus in plan]
        local = _lab_local(stack, np.repeat(np.arange(len(plan)), counts),
                           np.concatenate([taus for _, _, taus in plan]))
        locals_ = np.split(local, np.cumsum(counts)[:-1])
    else:  # analytic or rwa (or no segment): one expression of the segments' eigenpairs
        w, v = (_closed_spectra(p, segs) if method == "analytic"
                else np.linalg.eigh(hamiltonian_rwa_stack([p] * len(segs), segs)))
        locals_ = (_evolved(w[j], v[j], taus) for j, (_, _, taus) in enumerate(plan))
    found = np.empty((len(times), 3, 3), dtype=complex)  # one propagator per sample
    u = np.eye(3, dtype=complex)
    done = 0
    for (_, _, taus), end, local in zip(plan, ends, locals_):
        inside = end - len(taus) + 1
        found[done:inside] = u  # samples at the segment's start (or 1e-15 short of it)
        np.matmul(local[:-1], u, out=found[inside:end])
        u = local[-1] @ u
        done = end
    found[done:] = u
    return found


def sequence_unitary(p: SystemParams, seq: PulseSequence) -> Unitary3:
    """Closed-form propagator of a whole pulse program (analytic method)."""
    return Unitary3(evolve(p, seq)[0], p.interaction_frame)


def _closed_spectra(p, segs):
    """The closed-form counterpart of the rwa ``eigh``: the eigenpairs of the
    segments' H_rwa, one ``erc._spectrum`` (checks, dressing) per distinct
    drive; the first offending segment in program order raises."""
    drives, seen = [(seg.omega_x, seg.omega_y) for seg in segs], set()
    w, v = np.empty((len(segs), 3)), np.empty((len(segs), 3, 3), dtype=complex)
    for seg, drive in zip(segs, drives):
        if seg.omega_y != 0.0 and seg.beta != seg.alpha:
            raise ResonanceError("analytic propagation requires beta == alpha on two-tone segments")
        if drive not in seen:
            seen.add(drive)
            same = np.array([d == drive for d in drives])
            w[same], v[same] = _spectrum(p.replace(omega_x=seg.omega_x, omega_y=seg.omega_y),
                                         np.array([s.alpha for s in segs])[same])
    return w, v


_METHODS = {"analytic": "analytic", "rwa": "rwa_numeric", "rwa_numeric": "rwa_numeric",
            "lab": "lab_numeric", "lab_numeric": "lab_numeric"}


def _canonical_method(method: str) -> str:
    try:
        return _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; use analytic, rwa or lab") from None
