"""Lab-frame propagation kernel: classic fixed-step RK4 on the matrix
Schrodinger equation

    dU/dt = -i [Hs + cos(wc t - alpha) Ax + cos(wc t - beta) Ay] U

over one constant-drive segment, using global time (the carrier phase is
coherent across segments).  Returns the raw propagator; unitarity
projection happens in the caller.

The equation is linear, so one RK4 step is a fixed matrix S_k acting on U:
with M1, M2, M4 the generator at the start, middle and end of the step,

    S_k = I + h/6 (A1 + 2 A2 + 2 A3 + A4),
    A1 = M1, A2 = M2 (I + h/2 A1), A3 = M2 (I + h/2 A2), A4 = M4 (I + h A3).

All S_k of a block of steps are formed as one batched array operation and
multiplied together by pairwise reduction, so there is no per-step Python
loop.  This is the same RK4 map as stepping U directly, up to rounding.
"""

import numpy as np

# steps formed per batch; bounds the temporary (BLOCK, 3, 3) stacks
_BLOCK = 1024


def rk4_lab_segment(hs, ax, ay, wc, alpha, beta, t0, duration, n_steps, u0):
    """Propagate ``u0`` over ``[t0, t0 + duration]`` with ``n_steps`` RK4 steps."""
    if n_steps <= 0:
        raise ValueError("n_steps must be positive")
    h = duration / n_steps
    mihs = -1j * np.asarray(hs, dtype=complex)
    miax = -1j * np.asarray(ax, dtype=complex)
    miay = -1j * np.asarray(ay, dtype=complex)
    u = np.asarray(u0, dtype=complex)
    for first in range(0, n_steps, _BLOCK):
        nb = min(_BLOCK, n_steps - first)
        # generator on the half-step grid: step j starts at m[2j], has its
        # midpoint at m[2j+1] and ends at m[2j+2]
        t = t0 + h * (first + 0.5 * np.arange(2 * nb + 1))
        m = (mihs + np.cos(wc * t - alpha)[:, None, None] * miax
             + np.cos(wc * t - beta)[:, None, None] * miay)
        m1, m2, m4 = m[0:-1:2], m[1::2], m[2::2]
        a2 = m2 + (0.5 * h) * (m2 @ m1)
        a3 = m2 + (0.5 * h) * (m2 @ a2)
        a4 = m4 + h * (m4 @ a3)
        s = np.eye(3) + (h / 6.0) * (m1 + 2.0 * (a2 + a3) + a4)
        u = _ordered_product(s) @ u
    return u


def _ordered_product(s):
    """S[n-1] ... S[1] S[0] by pairwise reduction, later steps on the left."""
    while len(s) > 1:
        pairs = s[1::2] @ s[0:len(s) - 1:2]
        s = np.concatenate([pairs, s[-1:]]) if len(s) % 2 else pairs
    return s[0]
