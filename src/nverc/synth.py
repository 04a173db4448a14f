"""Arbitrary-gate synthesis on the double-quantum qubit.

The two available generators are the two-pulse rotations R(-phi, theta) and
R(+phi, theta).  Restricted to span{|+1>, |-1>} they are rotations about
two fixed equatorial Bloch axes separated by 4 phi (phi = arccos(2 muB /
omega)), each with a free angle in (-pi, pi], plus a theta-dependent phase
on |0> that drops out of the DQ-projective comparison.

Decomposition uses the quaternion picture: a rotation by theta about unit
axis n maps to q = (cos theta/2, sin(theta/2) n), products compose by the
Hamilton product, and a target U(2) matrix is matched up to global phase
when the composed quaternion equals +-q_target.  For an alternating
three-rotation ansatz about axes (a, b, a) the reachable set is
characterized by |v - (v.a) a|^2 <= sin^2(angle(a, b)) where v is the
target quaternion's vector part; that explicit test decides whether three
rotations can work before any root finding is attempted.  Angle solving is
damped least squares from deterministic random restarts, escalating to
longer alternating ansatze until the target fidelity is reached.

Degenerate geometry: the axes coincide as phi -> 0 (omega -> 2 muB) and
again where 4 phi -> pi (omega = 2 muB / cos(pi/8) is the orthogonal-axes
sweet spot exactly between the two degeneracies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import effective
from .erc import _interaction_frame, characteristic_quantities, dq_rotation
from .errors import AxisDegenerateError, NoConvergenceError
from .pulses import DQRotation, PulseSequence, RotationAxis, reduce_angle
from .spin import SystemParams, Unitary3

__all__ = [
    "SynthesisResult",
    "synthesize_gate",
    "dq_block",
    "dq_gate_fidelity",
    "rotation_quaternion",
    "compose_rotations",
    "three_rotation_feasible",
    "haar_unitary2",
]

PHI_MIN_DEFAULT = 1e-3
TARGET_INFIDELITY = 1e-9
_RESIDUAL_TOL = 1e-11
_K_MAX = 16
_RESTARTS = 16


# scipy.optimize costs most of a cold import; it is loaded on first use
def least_squares(*args, **kwargs):
    from scipy.optimize import least_squares as _least_squares
    return _least_squares(*args, **kwargs)


def dq_block(m: np.ndarray | Unitary3) -> np.ndarray:
    """2x2 restriction of a 3x3 operator to span{|+1>, |-1>} (in that order)."""
    a = m.m if isinstance(m, Unitary3) else np.asarray(m)
    return np.array([[a[0, 0], a[0, 2]], [a[2, 0], a[2, 2]]])


def dq_gate_fidelity(m: np.ndarray, target: np.ndarray) -> float:
    """Global-phase-insensitive |tr(M^dag V)| / 2 on the DQ block."""
    return abs(np.trace(m.conj().T @ target)) / 2.0


def _quat_mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + w2 * x1 + y1 * z2 - z1 * y2,
        w1 * y2 + w2 * y1 + z1 * x2 - x1 * z2,
        w1 * z2 + w2 * z1 + x1 * y2 - y1 * x2,
    ])


def rotation_quaternion(axis: np.ndarray, theta: float) -> np.ndarray:
    """Quaternion (w, v) of exp(-i theta axis.sigma / 2) = w - i v.sigma."""
    return np.concatenate(([math.cos(theta / 2.0)], math.sin(theta / 2.0) * axis))


def _unitary_quaternion(v2: np.ndarray) -> np.ndarray:
    """Quaternion (up to sign) of a 2x2 unitary with the det phase stripped."""
    s = v2 / np.sqrt(np.linalg.det(v2))
    return np.array(
        [
            0.5 * np.real(s[0, 0] + s[1, 1]),
            -0.5 * np.imag(s[0, 1] + s[1, 0]),
            -0.5 * np.real(s[0, 1] - s[1, 0]),
            -0.5 * np.imag(s[0, 0] - s[1, 1]),
        ]
    )


def _axes(phi: float) -> dict[RotationAxis, np.ndarray]:
    """Bloch axes of the two rotations: R(-+phi, theta) rotates by +theta
    about the equatorial direction at azimuth +-2 phi."""
    return {
        RotationAxis.MINUS_PHI: np.array([math.cos(2 * phi), math.sin(2 * phi), 0.0]),
        RotationAxis.PLUS_PHI: np.array([math.cos(2 * phi), -math.sin(2 * phi), 0.0]),
    }


def compose_rotations(phi: float, rotations) -> np.ndarray:
    """Composed quaternion of a rotation list (application order)."""
    ax = _axes(phi)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for r in rotations:
        q = _quat_mul(rotation_quaternion(ax[r.axis], r.theta), q)
    return q


def three_rotation_feasible(phi: float, q_target: np.ndarray, outer: RotationAxis) -> bool:
    """Reachability test for the (outer, other, outer) three-rotation ansatz."""
    a = _axes(phi)[outer]
    sep = 4.0 * phi  # angle between the two axis vectors
    v = q_target[1:]
    v_perp = v - (v @ a) * a
    return float(v_perp @ v_perp) <= math.sin(sep) ** 2 + 1e-12


def _axis_line_angle(phi: float) -> float:
    """Angle between the two rotation axis lines, folded to [0, pi/2]."""
    return abs(math.remainder(4.0 * phi, math.pi))


def haar_unitary2(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary (QR of a complex Ginibre sample)."""
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


@dataclass(frozen=True)
class SynthesisResult:
    rotations: tuple[DQRotation, ...]
    sequence: PulseSequence
    unitary: Unitary3
    fidelity: float


def _compose_with_partials(axes, theta):
    """Composed quaternion and its k partial derivatives.

    Uses prefix/suffix quaternion products; the derivative of one factor is
    (-sin(t/2)/2, cos(t/2)/2 * axis), and the quaternion product is bilinear.
    """
    k = len(axes)
    qs = [rotation_quaternion(a, t) for a, t in zip(axes, theta)]
    prefix = [np.array([1.0, 0.0, 0.0, 0.0])]
    for q in qs:
        prefix.append(_quat_mul(q, prefix[-1]))
    suffix = [np.array([1.0, 0.0, 0.0, 0.0])]
    for q in reversed(qs):
        suffix.append(_quat_mul(suffix[-1], q))
    suffix.reverse()  # suffix[j] = q_k ... q_{j+1}
    partials = np.empty((4, k))
    for j, (a, t) in enumerate(zip(axes, theta)):
        dq = np.concatenate(([-0.5 * math.sin(t / 2.0)],
                             0.5 * math.cos(t / 2.0) * a))
        partials[:, j] = _quat_mul(suffix[j + 1], _quat_mul(dq, prefix[j]))
    return prefix[-1], partials


def _solve_angles(axes, q_target, theta0):
    def residual(theta):
        q, _ = _compose_with_partials(axes, theta)
        r_plus = q - q_target
        r_minus = q + q_target
        return r_plus if r_plus @ r_plus <= r_minus @ r_minus else r_minus

    def jacobian(theta):
        # the +-q_target offset does not affect the derivative
        return _compose_with_partials(axes, theta)[1]

    sol = least_squares(residual, theta0, jac=jacobian, method="trf",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return sol.x, float(np.linalg.norm(residual(sol.x)))


def _compose_unitary(p: SystemParams, rotations) -> Unitary3 | None:
    u = None
    for r in rotations:
        ur, _ = dq_rotation(p, r)
        u = ur if u is None else ur @ u
    return u


def synthesize_gate(
    p: SystemParams,
    target: np.ndarray,
    phi_min: float = PHI_MIN_DEFAULT,
    seed: int = 0,
    max_rotations: int = _K_MAX,
) -> SynthesisResult:
    """Find a two-pulse rotation program realizing ``target`` on the DQ qubit.

    ``target`` is a 2x2 unitary on (|+1>, |-1>), matched up to global phase
    with fidelity >= 1 - 1e-9; the returned program acts diagonally on |0>
    by construction (no leakage).  Shorter programs are preferred: the
    solver walks alternating-axis ansatze of increasing length, pruning
    zero rotations from the solution, and raises
    :class:`AxisDegenerateError` when the two axes are effectively parallel
    or :class:`NoConvergenceError` with the best residual otherwise.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise ValueError(f"target must be 2x2, got {target.shape}")
    if np.linalg.norm(target.conj().T @ target - np.eye(2), 2) > 1e-10:
        raise ValueError("target is not unitary within 1e-10")

    q = characteristic_quantities(p)
    if q.phi <= phi_min or _axis_line_angle(q.phi) < 4.0 * phi_min:
        raise AxisDegenerateError(
            f"rotation axes are effectively parallel (phi = {q.phi:.6f}, "
            f"axis-line angle = {_axis_line_angle(q.phi):.3e} rad); "
            "the Euler-angle decomposition is ill-conditioned"
        )

    # identity needs no pulses
    fid_id = dq_gate_fidelity(np.eye(2, dtype=complex), target)
    if fid_id >= 1.0 - TARGET_INFIDELITY:
        frame = _interaction_frame(p)
        return SynthesisResult((), PulseSequence([], frame=frame),
                               Unitary3(np.eye(3), frame), fid_id)

    q_target = _unitary_quaternion(target)
    if not p.is_plain():
        # dressed axes: decompose G^dag target G in the plain frame
        g2 = dq_block(effective.dressing_matrix(p))
        q_target = _unitary_quaternion(g2.conj().T @ target @ g2)

    axes_by_label = _axes(q.phi)
    rng = np.random.default_rng(seed)
    best_res, best_k = math.inf, 0
    for k in range(1, max_rotations + 1):
        for start in (RotationAxis.MINUS_PHI, RotationAxis.PLUS_PHI):
            labels = [
                start if i % 2 == 0 else
                (RotationAxis.PLUS_PHI if start is RotationAxis.MINUS_PHI else RotationAxis.MINUS_PHI)
                for i in range(k)
            ]
            if k == 3 and not three_rotation_feasible(q.phi, q_target, labels[0]):
                continue
            axes = [axes_by_label[l] for l in labels]
            level_best = math.inf
            for restart in range(_RESTARTS):
                theta0 = rng.uniform(-math.pi, math.pi, k)
                theta, res = _solve_angles(axes, q_target, theta0)
                level_best = min(level_best, res)
                if res < best_res:
                    best_res, best_k = res, k
                if res < _RESIDUAL_TOL:
                    rotations = _prune(
                        [DQRotation(l, reduce_angle(t)) for l, t in zip(labels, theta)],
                        q.phi, q_target,
                    )
                    return _finalize(p, rotations, target)
                # all restarts stalling far from zero means this length is
                # out of reach; a longer ansatz contains it anyway (the
                # 3-rotation level always gets its full restart budget)
                if k != 3 and restart >= 3 and level_best > 0.05:
                    break
    raise NoConvergenceError(residual=best_res, n_rotations=best_k or max_rotations)


def _prune(rotations, phi, q_target):
    """Drop near-identity rotations if the quaternion match survives."""
    kept = [r for r in rotations if abs(r.theta) > 1e-9]
    if len(kept) == len(rotations):
        return rotations
    qc = compose_rotations(phi, kept)
    if min(np.linalg.norm(qc - q_target), np.linalg.norm(qc + q_target)) < _RESIDUAL_TOL:
        return kept
    return rotations


def _finalize(p: SystemParams, rotations, target: np.ndarray) -> SynthesisResult:
    if not rotations:
        frame = _interaction_frame(p)
        fid = dq_gate_fidelity(np.eye(2, dtype=complex), target)
        return SynthesisResult((), PulseSequence([], frame=frame),
                               Unitary3(np.eye(3), frame), fid)
    u = _compose_unitary(p, rotations)
    segments = []
    for r in rotations:
        segments.extend(dq_rotation(p, r)[1].segments)
    seq = PulseSequence(segments, frame=u.frame)
    fid = dq_gate_fidelity(dq_block(u), target)
    if fid < 1.0 - TARGET_INFIDELITY:
        raise NoConvergenceError(residual=1.0 - fid, n_rotations=len(rotations))
    return SynthesisResult(tuple(rotations), seq, u, fid)
