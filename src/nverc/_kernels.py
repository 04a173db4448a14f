"""Lab-frame propagation kernel: fixed-step fourth-order Magnus in the frame
of the carrier wc, where U_lab = exp(-i wc Sz^2 t) U_I and U_I obeys
dU_I/dt = -i H_I(t) U_I with

    H_I(t)_jk = (H_lab(t) - wc Sz^2)_jk exp(i wc t (s_j - s_k)),  s = diag(Sz^2).

The stiff wc Sz^2 term is gone and every counter-rotating term is kept:
H_I = H0 + e^{2i wc t} V + h.c. repeats every half carrier period.  The
kernel returns U_I over rows of constant drive, each a start time in global
time (so the carrier phase is coherent across segments), a duration and a
step count; the rows of a whole pulse program go through one call.  A step
of length h is exp(-i M) with the two-point Gauss Magnus exponent (Iserles
& Norsett, Phil. Trans. R. Soc. A 357, 983, 1999; Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 151, 2009)

    M = h/2 (H1 + H2) + i sqrt(3)/12 h^2 [H1, H2],  H1,2 = H_I(t + (1/2 -+ sqrt(3)/6) h),

which is K + z W + h.c. with K, W the same for every step of a row and
z = e^{2i wc t} at the step's midpoint.  Batched ``eigh`` calls of the
Hermitian M over at most ``_BLOCK`` steps each give every step, unitary to
rounding; each row's steps are multiplied by pairwise reduction.
"""

import cmath
import math

import numpy as np

from .spin import SZ2

# step matrices formed per batch, padding included; bounds the temporary
# (BLOCK, 3, 3) stacks, and so the memory a walk takes beyond its output
_BLOCK = 256

_RAISE = np.subtract.outer(np.diag(SZ2), np.diag(SZ2)) == 1.0  # s_j - s_k = 1


def _harmonics(hs, ax, ay, wc, alpha, beta):
    """(H0, V) with H_I(t) = H0 + e^{2i wc t} V + h.c.: the drives change s
    by +-1 and ``hs`` conserves it, as every ``nverc.ham`` operator does,
    so cos(wc t - a) e^{+-i wc t} leaves only the harmonics 0 and +-2 wc."""
    ea, eb = cmath.exp(1j * alpha), cmath.exp(1j * beta)
    c = _RAISE * (0.5 * ea) * ax + _RAISE * (0.5 * eb) * ay
    v = _RAISE * (0.5 / ea) * ax + _RAISE * (0.5 / eb) * ay
    return hs - wc * SZ2 + c + c.conj().T, v


def magnus_lab_rows(h0, v, wc, which, t0, duration, n_steps):
    """Interaction-frame propagators (rows, 3, 3), each from the identity:
    row i takes ``n_steps[i]`` steps over ``[t0[i], t0[i] + duration[i]]``
    under H_I = h0[j] + e^{2i wc t} v[j] + h.c., j = ``which[i]``, for
    stacks ``h0``, ``v`` of ``_harmonics``.

    Rows are cut into pieces of at most ``_BLOCK`` steps; the pieces,
    shortest first, go in chunks of at most ``_BLOCK`` step matrices,
    padding included, so the memory taken beyond the output is bounded
    whatever the number of rows and steps."""
    which, t0, duration = np.asarray(which), np.asarray(t0), np.asarray(duration)
    n_steps = np.asarray(n_steps, dtype=int)
    if len(n_steps) and n_steps.min() < 1:
        raise ValueError("n_steps must be positive")
    h = duration / n_steps
    # at a step's Gauss points e^{2i wc t} is z e^{-+i theta}, with z its
    # value at the midpoint; so M = K + z W + h.c.
    theta = wc * h / math.sqrt(3.0)
    c = math.sqrt(3.0) / 6.0 * h * h
    vh = v.conj().swapaxes(-1, -2)
    vv, hv = v @ vh - vh @ v, h0 @ v - v @ h0
    k_comm, w_v, w_comm = c * np.sin(2.0 * theta), h * np.cos(theta), c * np.sin(theta)
    # a row is cut into pieces of at most _BLOCK steps: piece q is steps
    # first[q] ... first[q] + size[q] - 1 of row[q], a row's pieces in order
    n_pieces = -(-n_steps // _BLOCK)
    offset = np.cumsum(n_pieces) - n_pieces
    row = np.repeat(np.arange(len(n_steps)), n_pieces)
    first = (np.arange(len(row)) - offset[row]) * _BLOCK
    size = np.minimum(n_steps[row] - first, _BLOCK)
    products = np.empty((len(row), 3, 3), dtype=complex)
    for pieces in _chunks(size):
        r, nb = row[pieces], size[pieces]
        j = which[r]
        k = h[r, None, None] * h0[j] + k_comm[r, None, None] * vv[j]
        w = w_v[r, None, None] * v[j] - w_comm[r, None, None] * hv[j]
        at = np.repeat(np.arange(len(pieces)), nb)             # each step's piece
        # each step's index within its row
        index = np.arange(len(at)) - np.repeat(np.cumsum(nb) - nb, nb) + first[pieces][at]
        z = np.exp(2j * wc * (t0[r][at] + h[r][at] * (index + 0.5)))[:, None, None]
        # in place, to keep few (len(at), 3, 3) temporaries alive at once
        m, w = k[at], w[at]
        m += z * w
        m += z.conj() * w.conj().swapaxes(-1, -2)
        e, q = np.linalg.eigh(m)
        del m, w
        qh = q.conj().swapaxes(-1, -2)
        q *= np.exp(-1j * e)[:, None, :]
        s = q @ qh
        del q, qh
        longest = nb[-1]
        if nb[0] != longest:
            # identities after a shorter piece's last step leave its
            # product, and the pairwise order of its steps, unchanged
            padded = np.zeros((len(pieces), longest, 3, 3), dtype=complex)
            padded[..., [0, 1, 2], [0, 1, 2]] = 1.0
            padded[np.arange(longest) < nb[:, None]] = s
            s = padded
        products[pieces] = _ordered_product(s.reshape(len(pieces), longest, 3, 3))
    if len(row) == len(n_steps):
        return products
    out = products[offset]
    for i in np.flatnonzero(n_pieces > 1):  # rows longer than a block
        for piece in products[offset[i] + 1:offset[i] + n_pieces[i]]:
            out[i] = piece @ out[i]
    return out


def _chunks(size):
    """Index arrays of pieces, ascending in ``size``: a chunk padded to its
    longest piece holds at most ``_BLOCK`` step matrices."""
    order = np.argsort(size, kind="stable")
    start = 0
    while start < len(order):
        span = size[order[start:start + _BLOCK]]
        # count * longest grows with count, as the sizes ascend
        count = np.searchsorted(np.arange(1, len(span) + 1) * span, _BLOCK, side="right")
        yield order[start:start + count]
        start += count


def _ordered_product(s):
    """S[n-1] ... S[1] S[0] along axis -3 by pairwise reduction, later steps
    on the left."""
    while s.shape[-3] > 1:
        n = s.shape[-3]
        pairs = s[..., 1::2, :, :] @ s[..., 0:n - 1:2, :, :]
        s = np.concatenate([pairs, s[..., -1:, :, :]], axis=-3) if n % 2 else pairs
    return s[..., 0, :, :]
