"""Independent numerical propagator for the driven three-level system.

Serves as the oracle the closed forms are checked against: integrates the
time-dependent lab-frame Schrodinger equation (counter-rotating terms
retained) by fixed-step fourth-order Magnus in the frame of the carrier
(``nverc._kernels``), and propagates the rotating-wave Hamiltonians by
exact matrix exponentiation per segment.  ``_rwa_evolver`` holds the
package's one eigendecomposition of H_rwa; ``rwa_segment_unitary`` and the
calibration root finders evaluate any array of durations through it, and
the spectral maps evaluate one population over a uniform time grid for a
whole stack of H_rwa, decomposed by one batched ``eigh``.

Every pulse program runs through one walker, ``_walk``, for all three
methods: closed forms (``nverc.erc``), rotating-wave exponentials and lab
integration.  It returns interaction-frame propagators at any ascending
array of sample times; ``propagate``, ``apply_sequence``,
``sequence_unitary``, traces, the synthesis cross-checks and the lab
calibration amplitude are each one call of it.

In a constant-drive segment the carrier-frame Hamiltonian has the period
P = T_c / 2, half the carrier period T_c = 2 pi / (D + Ez), so a segment
of duration N P + r from t0 propagates as U_r U_P^N (Floquet; Shirley,
Phys. Rev. 138, B979, 1965).  U_P, one period from t0, is raised to the
power through its eigendecomposition, and U_r is integrated from t0:
stepping on a period-aligned grid at the cost of one or two periods,
unitary to rounding, whatever the segment length.  A lab walk plans the
whole program first; U_P of every segment that needs it and U_r of every
sample are then rows of one stacked kernel call, the powers come from one
batched decomposition, and the results are chained with the propagators
at the segment starts.
``steps_per_period`` = n is the resolution: a carrier period takes exactly
n steps (for odd n, P = T_c), a remainder r takes ceil(r n / T_c).  The
default 8 puts the fig2 lab populations within 2e-5 of a converged run;
the error falls as h^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels
from .erc import _erc_matrix
from .errors import ResonanceError
from .ham import hamiltonian_rwa, lab_drive_operators, static_hamiltonian
from .pulses import PulseSequence
from .spin import SZ2, FrameTag, StateVector3, SystemParams, Unitary3

__all__ = [
    "PropagationResult",
    "propagate",
    "apply_sequence",
    "sequence_unitary",
    "frame_transform",
    "rwa_segment_unitary",
]

LAB_STEPS_PER_PERIOD = 8  # Magnus steps per carrier period, by default


@dataclass(frozen=True)
class PropagationResult:
    state: StateVector3
    unitary: Unitary3


def rwa_segment_unitary(p: SystemParams, seg, duration=None) -> np.ndarray:
    """Exact exp(-i H_rwa t) via Hermitian eigendecomposition, for a scalar
    or array of durations t (default ``seg.duration``); shape
    ``t.shape + (3, 3)``."""
    evolve = _rwa_evolver(hamiltonian_rwa(p, seg))
    return evolve(seg.duration if duration is None else duration)


def _rwa_evolver(h: np.ndarray, bra=None):
    """Decompose H_rwa once, by one ``eigh``, for every call of the function
    returned.

    Without ``bra``, ``h`` is one (3, 3) matrix: t -> exp(-i h t) for a
    scalar or array of durations t, shape ``t.shape + (3, 3)``.

    With a bra <a| (shape (3,)), the grid mode over a stack ``h`` of shape
    (m, 3, 3): (t_max, n_t) -> |<a| exp(-i h_i t_k) |0>|^2 of shape
    (m, n_t), on the grid t_k = k dt of ``np.linspace(0, t_max, n_t)``.
    The amplitude is sum_j c_j e^(-i w_j t_k) with c_j = <a|v_j><v_j|0>.
    Writing k = q B + r with B = ceil(sqrt(n_t)) factors each phase as
    e^(-i w_j q B dt) e^(-i w_j r dt): a row takes 2 sqrt(n_t) exponentials
    per eigenvalue and one (n_t / B, 3) @ (3, B) product, and the rows are
    filled one at a time, so no (m, n_t) complex array is built.
    """
    w, v = np.linalg.eigh(h)
    if bra is not None:
        c = (bra @ v) * v[..., 1, :].conj()
        return partial(_grid_populations, w, c)
    vh = v.conj().T

    def evolve(duration):
        t = np.asarray(duration, dtype=float)
        vw = v * np.exp(-1j * w * t[..., None])[..., None, :]
        # one (n * 3, 3) product: as fast as a matrix-vector form, unlike n 3x3 ones
        return (vw.reshape(-1, 3) @ vh).reshape(vw.shape)

    return evolve


def _grid_populations(w, c, t_max, n_t):
    """|sum_j c_ij e^(-i w_ij t_k)|^2, shape (m, n_t), for eigenvalues ``w``
    and weights ``c`` of shape (m, 3), at t_k = k t_max / (n_t - 1)."""
    dt = t_max / (n_t - 1)                       # np.linspace's step
    b = math.isqrt(n_t - 1) + 1                  # ceil(sqrt(n_t))
    n_q = -(-n_t // b)
    # fast[i, j, r] = e^(-i w_ij r dt), slow[i, q, j] = c_ij e^(-i w_ij q B dt)
    fast = np.exp(-1j * w[:, :, None] * (np.arange(b) * dt))
    slow = c[:, None, :] * np.exp(-1j * w[:, None, :] * (np.arange(0, n_q * b, b) * dt)[:, None])
    out = np.empty((len(w), n_t))
    for row, s, f in zip(out, slow, fast):
        a = (s @ f).reshape(-1)[:n_t]            # the amplitude at t_(q B + r)
        row[:] = a.real * a.real + a.imag * a.imag
    return out


def _lab_propagators(p, plan, steps_per_period):
    """For each planned segment ``(seg, t0, taus)``, the function
    ``(u, dest)`` that writes the interaction-frame lab propagators of
    ``seg`` from t0 over each duration in ``taus`` but the last, continuing
    the propagator u at t0, into ``dest`` and returns the last.

    One row-kernel call integrates, from the identity, first one period of
    every segment that some duration spans whole periods of, then every
    duration's remainder.  An even ``steps_per_period`` n integrates the
    half carrier period in n/2 steps, an odd n the whole period in n steps.
    """
    if not plan:
        return []
    period, n = 2.0 * math.pi / p.carrier, steps_per_period
    if n % 2 == 0:
        period, n = period / 2.0, n // 2
    hs = static_hamiltonian(p)
    harmonics = [_kernels._harmonics(hs, *lab_drive_operators(seg), p.carrier, seg.alpha, seg.beta)
                 for seg, _, _ in plan]
    h0, v = (np.array(m) for m in zip(*harmonics))
    splits = [_period_split(taus, period) for _, _, taus in plan]
    powered = [i for i, (n_periods, _) in enumerate(splits) if n_periods.any()]
    rests = [rest[rest > 0.0] for _, rest in splits]
    counts = [len(r) for r in rests]
    which = np.concatenate([powered, np.repeat(np.arange(len(plan)), counts)]).astype(int)
    us = _kernels.magnus_lab_rows(
        h0, v, p.carrier, which, np.array([t0 for _, t0, _ in plan])[which],
        np.concatenate([np.full(len(powered), period), *rests]),
        np.concatenate([np.full(len(powered), n), *(_n_steps(r, period / n) for r in rests)]))
    power = _floquet_power(us[:len(powered)]) if powered else None
    slot = {i: k for k, i in enumerate(powered)}
    ends = len(powered) + np.cumsum(counts)
    return [partial(_lab_chain, power, slot.get(i), n_periods, us[end - count:end], rest > 0.0)
            for i, ((n_periods, rest), count, end) in enumerate(zip(splits, counts, ends))]


def _lab_chain(power, j, n_periods, remainders, has_rest, u, dest):
    """u continued, for each duration, by ``power(j, N)`` if it spans N > 0
    whole periods, then by its remainder's propagator, the next of
    ``remainders``, if it has one; in blocks of ``_kernels._BLOCK``
    durations.  Writes all but the last into ``dest`` and returns the last."""
    rest_row = np.cumsum(has_rest) - 1
    for lo in range(0, len(n_periods), _kernels._BLOCK):
        hi = min(lo + _kernels._BLOCK, len(n_periods))
        x = np.repeat(u[None], hi - lo, axis=0)
        i = np.flatnonzero(n_periods[lo:hi])
        if len(i):
            x[i] = power(j, n_periods[lo + i]) @ u
        i = np.flatnonzero(has_rest[lo:hi])
        x[i] = remainders[rest_row[lo + i]] @ x[i]
        dest[lo:hi] = x[:len(dest) - lo]
    return x[-1]


def _floquet_power(u):
    """(j, N) -> u[j]^N for each count in the array N, for a stack u of
    one-period propagators; unitary to rounding for any N (squaring would
    double u's defect per squaring).  With u turned to put -1 mid-way in
    the widest gap of its spectrum, its Cayley transform
    K = -i (1 + u)^-1 (1 - u) is Hermitian and well conditioned; ``eigh``
    gives orthonormal eigenvectors and the eigenphases -2 atan(k)."""
    turn = np.array([[_widest_gap_turn(row)] for row in np.angle(np.linalg.eigvals(u)).tolist()])
    turned = np.exp(1j * turn)[..., None] * u
    w, v = np.linalg.eigh(-1j * np.linalg.solve(np.eye(3) + turned, np.eye(3) - turned))
    phases = -2.0 * np.arctan(w) - turn
    vh = v.conj().swapaxes(-1, -2)
    return lambda j, n_periods: (
        (v[j] * np.exp(1j * n_periods[:, None] * phases[j])[:, None, :]) @ vh[j])


def _widest_gap_turn(theta):
    """The turn that puts -1 mid-way in the widest gap between eigenphases
    ``theta`` on the circle."""
    theta = sorted(theta)
    gaps = zip(theta, theta[1:] + [theta[0] + 2.0 * math.pi])
    return math.pi - max((b - a, 0.5 * (a + b)) for a, b in gaps)[1]


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


def propagate(
    p: SystemParams,
    seq: PulseSequence,
    s: StateVector3,
    frame: FrameTag = FrameTag.INTERACTION_D,
    steps_per_period: int = LAB_STEPS_PER_PERIOD,
) -> PropagationResult:
    """Propagate a state through a pulse program in the requested frame.

    Interaction frames use exact per-segment matrix exponentials of the
    time-independent rotating-wave Hamiltonian; the lab frame integrates
    the full time-dependent Hamiltonian with a coherent carrier across
    segments, ``steps_per_period`` Magnus steps per carrier period.
    Returns the final state and the accumulated propagator, taken from
    ``p.interaction_frame`` to ``frame``.
    """
    frame = FrameTag(frame)
    us = _walk(p, seq, [math.inf], "lab" if frame == FrameTag.LAB else "rwa",
               steps_per_period)
    home = p.interaction_frame
    uni = frame_transform(Unitary3(us[0], home), 0.0, seq.total_duration, home, frame, p)
    return PropagationResult(state=uni.apply(s), unitary=uni)


def sequence_unitary(p: SystemParams, seq: PulseSequence) -> Unitary3:
    """Closed-form propagator of a whole pulse program (analytic method)."""
    us = _walk(p, seq, [math.inf], "analytic")
    return Unitary3(us[0], p.interaction_frame)


def apply_sequence(
    p: SystemParams,
    seq: PulseSequence,
    s: StateVector3,
    method: str = "analytic",
) -> StateVector3:
    """Run a pulse program on a state and return the final state in the
    interaction frame.

    ``method``: ``analytic`` (closed forms), ``rwa_numeric`` (per-segment
    matrix exponential of the rotating-wave Hamiltonian) or ``lab_numeric``
    (full lab-frame integration, counter-rotating terms included, in the
    interaction frame).
    """
    us = _walk(p, seq, [math.inf], method)
    return StateVector3((us @ s.amps)[0])


def _walk(p: SystemParams, seq: PulseSequence, times, method: str,
          steps_per_period: int = LAB_STEPS_PER_PERIOD) -> np.ndarray:
    """Interaction-frame propagators (n, 3, 3) of a pulse program at n
    ascending sample times.

    The program runs once, skipping zero-duration segments: a sample inside
    a segment continues from the propagator at the segment's start t0, and
    a lab sample integrates from t0 as the truncated program would.  A
    sample at most 1e-15 short of a segment's end counts as that end; one
    past the end (``math.inf`` included) gets the whole program.  Lab
    integration takes ``steps_per_period`` Magnus steps per carrier period.

    A first pass plans each segment's durations; the second computes their
    propagators from the segment start and chains them with u, the
    propagator at that start: per segment for the closed forms, all
    segments at once for the lab method (``_lab_propagators``).
    """
    method = _canonical_method(method)
    if type(steps_per_period) is not int or steps_per_period < 1:  # bools are refused too
        raise ValueError(f"steps_per_period must be an integer >= 1, got {steps_per_period!r}")

    times = np.asarray(times, dtype=float)
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
    if method == "lab_numeric":
        steps = _lab_propagators(p, plan, steps_per_period)
    else:
        steps = [partial(_closed_propagators, p, method, seg, taus) for seg, _, taus in plan]
    found = np.empty((len(times), 3, 3), dtype=complex)  # one propagator per sample
    u = np.eye(3, dtype=complex)
    done = 0
    for (_, _, taus), end, step in zip(plan, ends, steps):
        inside = end - len(taus) + 1
        found[done:inside] = u  # samples at the segment's start (or 1e-15 short of it)
        u = step(u, found[inside:end])
        done = end
    found[done:] = u
    return found


def _closed_propagators(p, method, seg, taus, u, dest):
    """The analytic or rotating-wave counterpart of ``_lab_chain``: u
    continued over each duration in ``taus``, all but the last written into
    ``dest``, the last returned."""
    if method == "analytic":
        if seg.omega_y != 0.0 and seg.beta != seg.alpha:
            raise ResonanceError(
                "analytic propagation requires beta == alpha on two-tone segments"
            )
        ps = p.replace(omega_x=seg.omega_x, omega_y=seg.omega_y)
        us = _erc_matrix(ps, taus, seg.alpha) @ u
    else:
        us = rwa_segment_unitary(p, seg, taus) @ u
    dest[:] = us[:-1]
    return us[-1]


_METHODS = {"analytic": "analytic", "rwa": "rwa_numeric", "rwa_numeric": "rwa_numeric",
            "lab": "lab_numeric", "lab_numeric": "lab_numeric"}


def _canonical_method(method: str) -> str:
    try:
        return _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; use analytic, rwa or lab") from None


def _frame_rate(tag: FrameTag, p: SystemParams) -> float:
    if tag == FrameTag.LAB:
        return 0.0
    if tag == FrameTag.INTERACTION_D:
        return p.D
    return p.D + p.Ez


def _phase_matrix(rate: float, t: float) -> np.ndarray:
    return np.diag(np.exp(1j * rate * np.diag(SZ2) * t))


def frame_transform(obj, t_start: float, t_end: float, frm: FrameTag, to: FrameTag,
                    p: SystemParams):
    """Re-express a state or propagator in a different frame.

    Frames differ by diagonal phases exp(+i w Sz^2 t) relative to the lab,
    with w = D or D + Ez.  States transform with the phases at ``t_end``;
    a propagator U(t_end <- t_start) picks up phases at both endpoints.
    The round trip is the identity.
    """
    frm, to = FrameTag(frm), FrameTag(to)
    w_from = _frame_rate(frm, p)
    w_to = _frame_rate(to, p)
    dw = w_to - w_from
    if isinstance(obj, StateVector3):
        return StateVector3(_phase_matrix(dw, t_end) @ obj.amps)
    if isinstance(obj, Unitary3):
        if obj.frame != frm:
            raise ValueError(f"object is in frame {obj.frame}, not {frm}")
        m = _phase_matrix(dw, t_end) @ obj.m @ _phase_matrix(dw, t_start).conj().T
        return Unitary3(m, to)
    raise TypeError(f"cannot frame-transform object of type {type(obj)!r}")
