"""Lab-frame propagation kernel: fixed-step fourth-order Magnus in the frame
of the carrier wc, where U_lab = exp(-i wc Sz^2 t) U_I and U_I obeys
dU_I/dt = -i H_I(t) U_I with

    H_I(t)_jk = (H_lab(t) - wc Sz^2)_jk exp(i wc t (s_j - s_k)),  s = diag(Sz^2).

The stiff wc Sz^2 term is gone and every counter-rotating term is kept:
H_I = H0 + e^{2i wc t} V + h.c. repeats every half carrier period.  The
kernel returns U_I over one constant-drive segment in global time, so the
carrier phase is coherent across segments.  A step of length h is
exp(-i M) with the two-point Gauss Magnus exponent (Iserles & Norsett,
Phil. Trans. R. Soc. A 357, 983, 1999; Blanes, Casas, Oteo & Ros, Phys.
Rep. 470, 151, 2009)

    M = h/2 (H1 + H2) + i sqrt(3)/12 h^2 [H1, H2],  H1,2 = H_I(t + (1/2 -+ sqrt(3)/6) h),

which is K + z W + h.c. with K, W the same for every step and z = e^{2i wc t}
at the step's midpoint.  One batched ``eigh`` of the Hermitian M gives every
step, unitary to rounding; the steps are multiplied by pairwise reduction.
"""

import cmath
import math

import numpy as np

from .spin import SZ2

# steps formed per batch; bounds the temporary (BLOCK, 3, 3) stacks
_BLOCK = 1024

_RAISE = np.subtract.outer(np.diag(SZ2), np.diag(SZ2)) == 1.0  # s_j - s_k = 1


def _harmonics(hs, ax, ay, wc, alpha, beta):
    """(H0, V) with H_I(t) = H0 + e^{2i wc t} V + h.c.: the drives change s
    by +-1 and ``hs`` conserves it, as every ``nverc.ham`` operator does,
    so cos(wc t - a) e^{+-i wc t} leaves only the harmonics 0 and +-2 wc."""
    ea, eb = cmath.exp(1j * alpha), cmath.exp(1j * beta)
    c = _RAISE * (0.5 * ea) * ax + _RAISE * (0.5 * eb) * ay
    v = _RAISE * (0.5 / ea) * ax + _RAISE * (0.5 / eb) * ay
    return hs - wc * SZ2 + c + c.conj().T, v


def magnus_lab_segment(hs, ax, ay, wc, alpha, beta, t0, duration, n_steps, u0):
    """Continue ``u0`` over ``[t0, t0 + duration]`` with ``n_steps`` Magnus
    steps; interaction-frame propagators in and out."""
    if n_steps <= 0:
        raise ValueError("n_steps must be positive")
    h = duration / n_steps
    h0, v = _harmonics(hs, ax, ay, wc, alpha, beta)
    # at a step's Gauss points e^{2i wc t} is z e^{-+i theta}, with z its
    # value at the midpoint; so M = K + z W + h.c.
    theta = wc * h / math.sqrt(3.0)
    c = math.sqrt(3.0) / 6.0 * h * h
    vh = v.conj().T
    k = h * h0 + (c * math.sin(2.0 * theta)) * (v @ vh - vh @ v)
    w = (h * math.cos(theta)) * v - (c * math.sin(theta)) * (h0 @ v - v @ h0)
    u = np.asarray(u0, dtype=complex)
    for first in range(0, n_steps, _BLOCK):
        nb = min(_BLOCK, n_steps - first)
        z = np.exp(2j * wc * (t0 + h * (first + 0.5 + np.arange(nb))))[:, None, None]
        e, q = np.linalg.eigh(k + z * w + z.conj() * w.conj().T)
        s = (q * np.exp(-1j * e)[:, None, :]) @ q.conj().swapaxes(-1, -2)
        u = _ordered_product(s) @ u
    return u


def _ordered_product(s):
    """S[n-1] ... S[1] S[0] by pairwise reduction, later steps on the left."""
    while len(s) > 1:
        pairs = s[1::2] @ s[0:len(s) - 1:2]
        s = np.concatenate([pairs, s[-1:]]) if len(s) % 2 else pairs
    return s[0]
