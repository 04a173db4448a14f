"""Arbitrary-gate synthesis on the double-quantum qubit.

The two available generators are the two-pulse rotations R(-phi, theta) and
R(+phi, theta).  Restricted to span{|+1>, |-1>} they are rotations about
two fixed equatorial Bloch axes separated by 4 phi (phi = arccos(2 muB /
omega)), each with a free angle in (-pi, pi], plus a theta-dependent phase
on |0> that drops out of the DQ-projective comparison.

Decomposition uses the quaternion picture: a rotation by theta about unit
axis n maps to q = (cos theta/2, sin(theta/2) n), products compose by the
Hamilton product, and a target U(2) matrix is matched up to global phase
when the composed quaternion equals +-q_target.  Programs alternate the two
axes and are built, not searched for: generalized (Davenport) Euler angles
(Shuster & Markley, J. Astronaut. Sci. 51, 2003), extended to narrow axes
by the alternating-product bound of Lowenthal (Rocky Mountain J. Math. 1,
1971).  Let f be the first-applied axis, l the last one, U the target's
Bloch rotation and gamma the angle between the axis lines.  A rotation
about l keeps the polar angle about l and one about the other axis moves
it by at most 2 gamma; k = (L - 1) // 2 of the rotations after the first
are about the other axis.  So L rotations realize the target iff |angle(l, U f) - angle(l, f)| <= 2 k
gamma (for L = 3 this is ``three_rotation_feasible``), and the shortest L
passing for either f is minimal.  The walk then splits that polar change
into k equal steps: a rotation about l puts the tracked vector on a cone
about the other axis whose half-angle lies mid-way in the range holding
both step endpoints, a rotation about the other axis makes the step (each
angle one spherical law-of-cosines solve), a last rotation about l lands
on U f, and the rest of the target fixes f, giving the first angle.

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
from .pulses import DQRotation, PulseSequence, RotationAxis
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
_K_MAX = 16
# slack (rad) on the reach test's polar-angle comparison
_ANGLE_TOL = 1e-10


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


def _rotate(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bloch vector x under the rotation of unit quaternion q."""
    t = 2.0 * np.cross(q[1:], x)
    return x + q[0] * t + np.cross(q[1:], t)


def _angle(x: np.ndarray, y: np.ndarray) -> float:
    return math.atan2(np.linalg.norm(np.cross(x, y)), x @ y)


def _axes(phi: float) -> dict[RotationAxis, np.ndarray]:
    """Bloch axes of the two rotations: R(-+phi, theta) rotates by +theta
    about the equatorial direction at azimuth +-2 phi."""
    return {
        RotationAxis.MINUS_PHI: np.array([math.cos(2 * phi), math.sin(2 * phi), 0.0]),
        RotationAxis.PLUS_PHI: np.array([math.cos(2 * phi), -math.sin(2 * phi), 0.0]),
    }


def _other(axis: RotationAxis) -> RotationAxis:
    return RotationAxis.PLUS_PHI if axis is RotationAxis.MINUS_PHI else RotationAxis.MINUS_PHI


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


def _reachable(phi: float, q_target: np.ndarray, first: RotationAxis, length: int) -> bool:
    """Whether ``length`` alternating rotations starting about ``first``
    can realize the target (the reach test of the module docstring)."""
    ax = _axes(phi)
    f = ax[first]
    l = f if length % 2 else ax[_other(first)]
    change = _angle(l, _rotate(q_target, f)) - _angle(l, f)
    return abs(change) <= 2 * ((length - 1) // 2) * _axis_line_angle(phi) + _ANGLE_TOL


def _turn(n: np.ndarray, x: np.ndarray, ref: np.ndarray, target: float):
    """Angle of the rotation about n that brings ref . x to ``target``
    (clipped to the values it can reach), and the rotated x."""
    along = (x @ n) * n
    perp = x - along
    a = ref @ perp
    b = ref @ np.cross(n, perp)
    r = math.hypot(a, b)
    if r < 1e-15:
        return 0.0, x
    c = (target - ref @ along) / r
    theta = math.atan2(b, a) + math.acos(max(-1.0, min(1.0, c)))
    return theta, _rotate(rotation_quaternion(n, theta), x)


def _azimuth(n: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Angle of the rotation about n that takes x's azimuth to y's."""
    return math.atan2(n @ np.cross(x, y), x @ y - (x @ n) * (y @ n))


def _walk(phi: float, q_target: np.ndarray, first: RotationAxis, length: int):
    """Alternating program of ``length`` rotations starting about ``first``.
    It realizes the target when the reach test passes; otherwise the polar
    steps are clamped to 2 gamma and the program is the walk cut short."""
    last = first if length % 2 else _other(first)
    move = _other(last)
    ax = _axes(phi)
    f, l, m = ax[first], ax[last], ax[move]
    goal = _rotate(q_target, f)
    gamma = _axis_line_angle(phi)
    k = (length - 1) // 2  # rotations about m after the first
    polar = _angle(l, f)
    step = max(-2 * gamma, min(2 * gamma, (_angle(l, goal) - polar) / k)) if k else 0.0
    sign = 1.0 if l @ m >= 0.0 else -1.0  # sign * m lies gamma from l
    x = f
    turns = []
    for j in range(k):
        lo, hi = sorted((polar + j * step, polar + (j + 1) * step))
        eps = 0.5 * (max(gamma - lo, hi - gamma) + min(gamma + lo, 2 * math.pi - gamma - hi))
        # onto the cone of half-angle eps about sign * m, then the step
        onto, x = _turn(l, x, m, sign * math.cos(eps))
        across, x = _turn(m, x, l, math.cos(polar + (j + 1) * step))
        turns += [DQRotation(last, onto), DQRotation(move, across)]
    turns.append(DQRotation(last, _azimuth(l, x, goal)))
    if length % 2:
        # the walk starts on l itself, so its first turn about l is idle
        turns = turns[1:]
    # what the walk leaves of the target fixes f: the first rotation
    q_rest = _quat_mul(compose_rotations(phi, turns) * np.array([1.0, -1.0, -1.0, -1.0]),
                       q_target)
    theta0 = 2.0 * math.atan2(q_rest[1:] @ f, q_rest[0])
    return [DQRotation(first, theta0)] + turns


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


def synthesize_gate(
    p: SystemParams,
    target: np.ndarray,
    phi_min: float = PHI_MIN_DEFAULT,
    max_rotations: int = _K_MAX,
) -> SynthesisResult:
    """Build the shortest two-pulse rotation program realizing ``target``
    on the DQ qubit.

    ``target`` is a 2x2 unitary on (|+1>, |-1>), matched up to global phase
    with fidelity >= 1 - 1e-9; the returned program acts diagonally on |0>
    by construction (no leakage).  The program alternates the two axes with
    the minimal length any alternating program can have, deterministically.
    Raises :class:`AxisDegenerateError` when the two axes are effectively
    parallel, and :class:`NoConvergenceError` with that minimal length when
    it exceeds ``max_rotations``.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise ValueError(f"target must be 2x2, got {target.shape}")
    if np.linalg.norm(target.conj().T @ target - np.eye(2), 2) > 1e-10:
        raise ValueError("target is not unitary within 1e-10")
    if max_rotations < 1:
        raise ValueError(f"max_rotations must be at least 1, got {max_rotations}")

    q = characteristic_quantities(p)
    if q.phi <= phi_min or _axis_line_angle(q.phi) < 4.0 * phi_min:
        raise AxisDegenerateError(
            f"rotation axes are effectively parallel (phi = {q.phi:.6f}, "
            f"axis-line angle = {_axis_line_angle(q.phi):.3e} rad); "
            "the Euler-angle decomposition is ill-conditioned"
        )

    # identity needs no pulses
    if dq_gate_fidelity(np.eye(2, dtype=complex), target) >= 1.0 - TARGET_INFIDELITY:
        return _finalize(p, [], target)

    q_target = _unitary_quaternion(target)
    if not p.is_plain():
        # dressed axes: decompose G^dag target G in the plain frame
        g2 = dq_block(effective.dressing_matrix(p))
        q_target = _unitary_quaternion(g2.conj().T @ target @ g2)

    starts = (RotationAxis.MINUS_PHI, RotationAxis.PLUS_PHI)
    length = 1
    while not any(_reachable(q.phi, q_target, s, length) for s in starts):
        length += 1
    if length > max_rotations:
        # report how close the walk cut short at the budget comes
        best = max(abs(compose_rotations(q.phi, _walk(q.phi, q_target, s, max_rotations))
                       @ q_target) for s in starts)
        raise NoConvergenceError(residual=1.0 - best, n_rotations=length)
    first = next(s for s in starts if _reachable(q.phi, q_target, s, length))
    return _finalize(p, _walk(q.phi, q_target, first, length), target)


def _finalize(p: SystemParams, rotations, target: np.ndarray) -> SynthesisResult:
    frame = _interaction_frame(p)
    u = np.eye(3, dtype=complex)
    segments = []
    for r in rotations:
        ur, seq = dq_rotation(p, r)
        u = ur.m @ u
        segments.extend(seq.segments)
    fid = dq_gate_fidelity(dq_block(u), target)
    if fid < 1.0 - TARGET_INFIDELITY:
        raise NoConvergenceError(residual=1.0 - fid, n_rotations=len(rotations))
    return SynthesisResult(tuple(rotations), PulseSequence(segments, frame=frame),
                           Unitary3(u, frame), fid)
