"""Independent numerical propagator for the driven three-level system.

Serves as the oracle the closed forms are checked against: integrates the
time-dependent lab-frame Schrodinger equation (counter-rotating terms
retained) with fixed-step RK4, and propagates the time-independent
rotating-wave Hamiltonians by exact matrix exponentiation per segment.
``_rwa_evolver`` holds the package's one eigendecomposition of H_rwa;
``rwa_segment_unitary`` and the calibration root finders evaluate any array
of durations through it.

Every pulse program runs through one walker, ``_walk``, for all three
methods: closed forms (``nverc.erc``), rotating-wave exponentials and lab
integration.  It returns interaction-frame propagators at any ascending
array of sample times; ``propagate``, ``apply_sequence``,
``sequence_unitary``, traces, the synthesis cross-checks and the lab
calibration amplitude are each one call of it.

Within one constant-drive segment the lab Hamiltonian is periodic with the
carrier period T_c = 2 pi / (D + Ez), so a segment of duration N T_c + r
starting at t0 propagates as U_r U_P^N (Floquet; Shirley, Phys. Rev. 138,
B979, 1965).  The fixed-step scheme integrates only U_P, one period from
t0, and the remainder U_r, also from t0; U_P is integrated once per
segment for all its samples, and the power is taken by binary squaring
of the raw RK4 matrix, so the result is RK4 on a period-aligned
grid at the cost of one or two periods, whatever the segment length.

``steps_per_period`` = n is the RK4 resolution: one period takes exactly
n steps, and a remainder r takes ceil(r n / T_c).  The default
``LAB_STEPS_PER_PERIOD`` = 20 is adequate for quick looks, while
quantitative rotating-wave comparisons want 100+ steps per period (RK4
phase error scales as T D^5 h^4).  The raw RK4 propagator is
projected onto the unitary group after every segment and the projection
distance is reported as ``norm_drift``.  The power is taken before the
projection, so the per-period non-unitarity compounds over the N periods
exactly as it does under step-by-step integration and ``norm_drift``
grows with segment length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

LAB_STEPS_PER_PERIOD = 20  # RK4 steps per carrier period, by default


@dataclass(frozen=True)
class PropagationResult:
    state: StateVector3
    unitary: Unitary3
    norm_drift: float


def rwa_segment_unitary(p: SystemParams, seg, duration=None) -> np.ndarray:
    """Exact exp(-i H_rwa t) via Hermitian eigendecomposition, for a scalar
    or array of durations t (default ``seg.duration``); shape
    ``t.shape + (3, 3)``."""
    return _rwa_evolver(p, seg)(seg.duration if duration is None else duration)


def _rwa_evolver(p: SystemParams, seg):
    """(t, column=None) -> ``rwa_segment_unitary(p, seg, t)``, or only its
    column ``column`` (shape ``t.shape + (3,)``), decomposing H_rwa once for
    every later call."""
    w, v = np.linalg.eigh(hamiltonian_rwa(p, seg))
    vh = v.conj().T

    def evolve(duration, column=None):
        t = np.asarray(duration, dtype=float)
        if column is not None:
            return (np.exp(-1j * w * t[..., None]) * vh[:, column]) @ v.T
        vw = v * np.exp(-1j * w * t[..., None])[..., None, :]
        # one (n * 3, 3) product: as fast as a matrix-vector form, unlike n 3x3 ones
        return (vw.reshape(-1, 3) @ vh).reshape(vw.shape)

    return evolve


def _project_unitary(u: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest unitary (polar factor) and the operator-norm distance to it,
    max |s - 1| over the singular values, as u - w vh = w (s - 1) vh."""
    w, s, vh = np.linalg.svd(u)
    return w @ vh, float(np.max(np.abs(s - 1.0)))


def _lab_segment(p, seg, t0, steps_per_period, taus, u):
    """Raw lab propagators of ``seg`` from t0, continuing ``u``, for each
    duration in ``taus``; the carrier period is integrated at most once,
    in exactly ``steps_per_period`` steps."""
    hs = static_hamiltonian(p)
    ax, ay = lab_drive_operators(seg)
    period = 2.0 * math.pi / p.carrier

    def rk4(duration, n_steps, u0):
        return _kernels.rk4_lab_segment(hs, ax, ay, p.carrier, seg.alpha, seg.beta,
                                        t0, duration, n_steps, u0)

    u_period = None
    out = []
    for tau in taus:
        n_periods, rest = _period_split(tau, period)
        v = u
        if n_periods:
            if u_period is None:
                u_period = rk4(period, steps_per_period, np.eye(3, dtype=complex))
            v = np.linalg.matrix_power(u_period, n_periods) @ v
        if rest:
            v = rk4(rest, _n_steps(rest, period / steps_per_period), v)
        out.append(v)
    return out


def _n_steps(duration, step):
    """ceil(duration / step), at least 1, not rounded up by a last-bit excess
    (so a duration of n steps gives n)."""
    return max(1, math.ceil(duration / step * (1.0 - 1e-12)))


def _period_split(duration, period):
    """(N, r) with duration = N period + r; r within 1e-12 period of 0 or of
    a full period is snapped to 0."""
    n = math.floor(duration / period)
    rest = duration - n * period
    if rest > period * (1.0 - 1e-12):
        n, rest = n + 1, 0.0
    elif rest < period * 1e-12:
        rest = 0.0
    return n, rest


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
    segments, ``steps_per_period`` RK4 steps per carrier period.  Returns
    the final state, the accumulated propagator (taken from
    ``p.interaction_frame`` to ``frame``) and the worst per-segment
    unitarity defect that was projected away.
    """
    frame = FrameTag(frame)
    us, drift = _walk(p, seq, [math.inf], "lab" if frame == FrameTag.LAB else "rwa",
                      steps_per_period)
    home = p.interaction_frame
    uni = frame_transform(Unitary3(us[0], home), 0.0, seq.total_duration, home, frame, p)
    return PropagationResult(state=uni.apply(s), unitary=uni, norm_drift=drift)


def sequence_unitary(p: SystemParams, seq: PulseSequence) -> Unitary3:
    """Closed-form propagator of a whole pulse program (analytic method)."""
    us, _ = _walk(p, seq, [math.inf], "analytic")
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
    (full lab-frame integration, counter-rotating terms included, result
    transformed back to the interaction frame).
    """
    us, _ = _walk(p, seq, [math.inf], method)
    return StateVector3((us @ s.amps)[0])


def _walk(p: SystemParams, seq: PulseSequence, times, method: str,
          steps_per_period: int = LAB_STEPS_PER_PERIOD) -> tuple[np.ndarray, float]:
    """Interaction-frame propagators (n, 3, 3) of a pulse program at n
    ascending sample times, and the worst unitarity defect that the lab
    method projected away (0 for the others).

    The program runs once, skipping zero-duration segments: a sample inside
    a segment continues from the propagator at the segment's start t0, and
    a lab sample integrates from t0 as the truncated program would.  A
    sample at most 1e-15 short of a segment's end counts as that end; one
    past the end (``math.inf`` included) gets the whole program.  Lab
    integration takes ``steps_per_period`` RK4 steps per carrier period,
    and its propagators are taken to the frame ``p.interaction_frame`` by
    the phase exp(+i (D + Ez) Sz^2 t) at their end time t.
    """
    method = _canonical_method(method)
    if type(steps_per_period) is not int or steps_per_period < 1:  # bools are refused too
        raise ValueError(f"steps_per_period must be an integer >= 1, got {steps_per_period!r}")
    drift = 0.0

    def run(seg, t0, taus, u):
        """``u`` continued from t0 over each duration in ``taus`` of ``seg``."""
        nonlocal drift
        if method == "analytic":
            if seg.omega_y != 0.0 and seg.beta != seg.alpha:
                raise ResonanceError(
                    "analytic propagation requires beta == alpha on two-tone segments"
                )
            ps = p.replace(omega_x=seg.omega_x, omega_y=seg.omega_y)
            return _erc_matrix(ps, taus, seg.alpha) @ u
        if method == "rwa_numeric":
            return rwa_segment_unitary(p, seg, taus) @ u
        out = []
        for m in _lab_segment(p, seg, t0, steps_per_period, taus.tolist(), u):
            m, d = _project_unitary(m)
            drift = max(drift, d)
            out.append(m)
        return np.array(out)

    times = np.asarray(times, dtype=float)
    found = []  # (propagator, time it ends at) per sample
    u = np.eye(3, dtype=complex)
    t1 = 0.0
    for seg in seq:
        t0, t1 = t1, t1 + seg.duration
        if seg.duration == 0.0:
            continue
        if len(found) == len(times):
            break
        taus = times[len(found):np.searchsorted(times, t1 - 1e-15)] - t0
        inside = taus[taus > 0.0]
        # samples at the segment's start (or 1e-15 short of it)
        found.extend([(u, t0)] * (len(taus) - len(inside)))
        us = run(seg, t0, np.append(inside, seg.duration), u)
        found.extend(zip(us[:-1], t0 + inside))
        u = us[-1]
    found.extend([(u, t1)] * (len(times) - len(found)))
    us = np.array([m for m, _ in found]).reshape(-1, 3, 3)
    if method == "lab_numeric":
        t_end = np.array([t for _, t in found]).reshape(-1, 1)
        us = np.exp(1j * p.carrier * np.diag(SZ2) * t_end)[:, :, None] * us
    return us, drift


def _canonical_method(method: str) -> str:
    aliases = {
        "analytic": "analytic",
        "rwa": "rwa_numeric",
        "rwa_numeric": "rwa_numeric",
        "lab": "lab_numeric",
        "lab_numeric": "lab_numeric",
    }
    try:
        return aliases[method]
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
