"""Independent numerical propagator for the driven three-level system.

Serves as the oracle the closed forms are checked against: integrates the
time-dependent lab-frame Schrodinger equation (counter-rotating terms
retained) by fixed-step fourth-order Magnus in the frame of the carrier
(``nverc._kernels``), and propagates the rotating-wave Hamiltonians by
exact matrix exponentiation per segment.  ``_rwa_evolver`` holds the
package's one eigendecomposition of H_rwa; ``rwa_segment_unitary`` and the
calibration root finders evaluate any array of durations through it.

Every pulse program runs through one walker, ``_walk``, for all three
methods: closed forms (``nverc.erc``), rotating-wave exponentials and lab
integration.  It returns interaction-frame propagators at any ascending
array of sample times; ``propagate``, ``apply_sequence``,
``sequence_unitary``, traces, the synthesis cross-checks and the lab
calibration amplitude are each one call of it.

In a constant-drive segment the carrier-frame Hamiltonian has the period
P = T_c / 2, half the carrier period T_c = 2 pi / (D + Ez), so a segment
of duration N P + r from t0 propagates as U_r U_P^N (Floquet; Shirley,
Phys. Rev. 138, B979, 1965).  U_P, one period from t0, is integrated once
per segment and raised to the power through its eigendecomposition, and
U_r from t0: stepping on a period-aligned grid at the cost of one or two
periods, unitary to rounding, whatever the segment length.
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


def _lab_segment(p, seg, t0, steps_per_period, taus, u):
    """Interaction-frame lab propagators of ``seg`` from t0, continuing
    ``u``, for each duration in ``taus``.  An even ``steps_per_period`` n
    integrates the half carrier period in n/2 steps, an odd n the whole
    period in n steps."""
    magnus = partial(_kernels.magnus_lab_segment, static_hamiltonian(p),
                     *lab_drive_operators(seg), p.carrier, seg.alpha, seg.beta, t0)
    period, n = 2.0 * math.pi / p.carrier, steps_per_period
    if n % 2 == 0:
        period, n = period / 2.0, n // 2
    power = None
    out = []
    for tau in taus:
        n_periods, rest = _period_split(tau, period)
        v = u
        if n_periods:
            if power is None:
                power = _floquet_power(magnus(period, n, np.eye(3, dtype=complex)))
            v = power(n_periods) @ v
        if rest:
            v = magnus(rest, _n_steps(rest, period / n), v)
        out.append(v)
    return out


def _floquet_power(u):
    """N -> u^N for a one-period propagator u, unitary to rounding for any N
    (squaring would double u's defect per squaring).  With u turned to put
    -1 mid-way in the widest gap of its spectrum, its Cayley transform
    K = -i (1 + u)^-1 (1 - u) is Hermitian and well conditioned; ``eigh``
    gives orthonormal eigenvectors and the eigenphases -2 atan(k)."""
    theta = sorted(np.angle(np.linalg.eigvals(u)).tolist())
    gaps = zip(theta, theta[1:] + [theta[0] + 2.0 * math.pi])
    turn = math.pi - max((b - a, 0.5 * (a + b)) for a, b in gaps)[1]
    turned = np.exp(1j * turn) * u
    w, v = np.linalg.eigh(-1j * np.linalg.solve(np.eye(3) + turned, np.eye(3) - turned))
    phases = -2.0 * np.arctan(w) - turn
    return lambda n_periods: (v * np.exp(1j * n_periods * phases)) @ v.conj().T


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
    """
    method = _canonical_method(method)
    if type(steps_per_period) is not int or steps_per_period < 1:  # bools are refused too
        raise ValueError(f"steps_per_period must be an integer >= 1, got {steps_per_period!r}")

    def run(seg, t0, taus, u):
        """``u`` continued from t0 over each duration in ``taus`` of ``seg``."""
        if method == "analytic":
            if seg.omega_y != 0.0 and seg.beta != seg.alpha:
                raise ResonanceError(
                    "analytic propagation requires beta == alpha on two-tone segments"
                )
            ps = p.replace(omega_x=seg.omega_x, omega_y=seg.omega_y)
            return _erc_matrix(ps, taus, seg.alpha) @ u
        if method == "rwa_numeric":
            return rwa_segment_unitary(p, seg, taus) @ u
        return np.array(_lab_segment(p, seg, t0, steps_per_period, taus.tolist(), u))

    times = np.asarray(times, dtype=float)
    found = []  # one propagator per sample
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
        found.extend([u] * (len(taus) - len(inside)))
        us = run(seg, t0, np.append(inside, seg.duration), u)
        found.extend(us[:-1])
        u = us[-1]
    found.extend([u] * (len(times) - len(found)))
    return np.array(found).reshape(-1, 3, 3)


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
