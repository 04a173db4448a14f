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
z = e^{2i wc t} at the step's midpoint.  Each step exp(-i M) is taken in
closed form from the invariants of M (``exp_hermitian``), entry by entry
over at most ``_BLOCK`` steps at a time, unitary to rounding; each row's
steps are multiplied by pairwise reduction, a level at a time.
"""

import math

import numpy as np

from .spin import SZ2

# step matrices formed per batch, padding included, and samples assembled
# per batch by ``prop``; bounds the temporary stacks, and so the memory a
# walk takes beyond its output
_BLOCK = 512

_RAISE = np.subtract.outer(np.diag(SZ2), np.diag(SZ2)) == 1.0  # s_j - s_k = 1


def _harmonics(hs, ax, ay, wc, alpha, beta):
    """(H0, V) with H_I(t) = H0 + e^{2i wc t} V + h.c.: the drives change s
    by +-1 and ``hs`` conserves it, as every ``nverc.ham`` operator does,
    so cos(wc t - a) e^{+-i wc t} leaves only the harmonics 0 and +-2 wc.
    For stacks of drive operators ``ax``, ``ay`` (k, 3, 3) and phases of
    shape (k, 1, 1), the stacks (k, 3, 3) of every segment at once."""
    ea, eb = np.exp(1j * alpha), np.exp(1j * beta)
    c = _RAISE * (0.5 * ea) * ax + _RAISE * (0.5 * eb) * ay
    v = _RAISE * (0.5 / ea) * ax + _RAISE * (0.5 / eb) * ay
    return hs - wc * SZ2 + c + c.conj().swapaxes(-1, -2), v


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
        at = np.repeat(np.arange(len(pieces)), nb)             # each step's piece
        # each step's index within its row
        index = np.arange(len(at)) - np.repeat(np.cumsum(nb) - nb, nb) + first[pieces][at]
        z = np.exp(2j * wc * (t0[r][at] + h[r][at] * (index + 0.5)))
        j = which[r]
        # M = G + G^H with G = K / 2 + z W, from the 9 entries of K / 2 and W
        # of each piece, taken for each of its steps
        kw = np.concatenate([(0.5 * h[r]) * h0[j].reshape(-1, 9).T
                             + (0.5 * k_comm[r]) * vv[j].reshape(-1, 9).T,
                             w_v[r] * v[j].reshape(-1, 9).T
                             - w_comm[r] * hv[j].reshape(-1, 9).T])
        g = kw.take(at, axis=1)
        g = (g[:9] + z * g[9:]).reshape(3, 3, -1)
        # the step exponentials, entry-major: s[i, j] holds entry (i, j) of every step
        s = exp_hermitian(g + g.transpose(1, 0, 2).conj())
        longest = nb[-1]
        if nb[0] != longest:
            # identities after a shorter piece's last step leave its
            # product, and the pairwise order of its steps, unchanged
            padded = np.zeros((3, 3, len(pieces), longest), dtype=complex)
            padded[[0, 1, 2], [0, 1, 2]] = 1.0
            padded[:, :, np.arange(longest) < nb[:, None]] = s
            s = padded
        s = _ordered_product(s.reshape(3, 3, len(pieces), longest))
        products[pieces] = s.transpose(2, 0, 1)
    if len(row) == len(n_steps):
        return products
    out = products[offset]
    for i in np.flatnonzero(n_pieces > 1):  # rows longer than a block
        for piece in products[offset[i] + 1:offset[i] + n_pieces[i]]:
            out[i] = piece @ out[i]
    return out


def exp_hermitian(m):
    """exp(-i M) for n Hermitian M, entry-major: ``m[i, j]`` holds entry
    (i, j) of every M, shape (3, 3, n), and so does the result.  In closed
    form, entry by entry over the n.

    With t = tr M / 3 and X = t - M traceless, exp(-i M) = e^{-i t} exp(i X)
    and, by Cayley-Hamilton, exp(i X) = f0 + f1 X + f2 X^2 with the f_j
    functions of c0 = det X = tr X^3 / 3 and c1 = tr X^2 / 2 alone
    (Morningstar & Peardon, Phys. Rev. D 69, 054501, 2004): the eigenvalues
    of X are 2u and -u +- w, with u = sqrt(c1/3) cos(theta/3),
    w = sqrt(c1) sin(theta/3) and cos theta = |c0| / (2 (c1/3)^(3/2)); c0 < 0
    is the reflection u -> -u.  The f_j depend on w only through w^2, so
    the ill-conditioned arccos near a degenerate spectrum does not reach
    them.  X's diagonal is formed from differences of M's, so X is
    traceless to rounding whatever the trace, which keeps the result
    unitary to rounding."""
    d = m.reshape(9, -1)[::4].real                         # the diagonal
    x = -m
    # X's diagonal t - d_i = ((d_{i-1} - d_i) - (d_i - d_{i+1})) / 3, from differences
    step = d - d[[1, 2, 0]]
    x.reshape(9, -1)[::4] = (step[[2, 0, 1]] - step) / 3.0
    x2 = (x[:, :, None] * x[None]).sum(axis=1)              # X^2
    c1 = 0.5 * x2.reshape(9, -1)[::4].real.sum(axis=0)
    # sums of three terms at a time: a step's bits do not depend on n
    c0 = (x2 * x.transpose(1, 0, 2)).real.sum(axis=1).sum(axis=0) / 3.0
    r2 = c1 / 3.0                                           # r^2, r = sqrt(c1 / 3)
    c0_max = 2.0 * r2 * np.sqrt(r2)
    cos_theta = np.minimum(np.abs(c0) / np.where(c0_max > 0.0, c0_max, 1.0), 1.0)
    u = np.copysign(np.sqrt(r2) * np.cos(np.arccos(cos_theta) / 3.0), c0)
    uu = u * u
    ww = np.maximum(c1 - 3.0 * uu, 0.0)                     # c1 sin^2(theta/3)
    w = np.sqrt(ww)
    cos_w = np.cos(w)
    xi = np.ones_like(w)                                    # sin(w) / w
    np.divide(np.sin(w), w, out=xi, where=w != 0.0)
    e1 = np.exp(-1j * u)
    e2 = (e1 * e1).conj()
    h0 = (uu - ww) * e2 + e1 * (8.0 * uu * cos_w + 2j * u * (3.0 * uu + ww) * xi)
    h1 = 2.0 * u * e2 - e1 * (2.0 * u * cos_w - 1j * (3.0 * uu - ww) * xi)
    h2 = e2 - e1 * (cos_w + 3j * u * xi)
    # f_j = h_j / (9u^2 - w^2), and 9u^2 - w^2 >= 2 c1; below |X| ~ 1e-10,
    # where it could underflow, exp(i X) = 1 + i X - X^2 / 2 to rounding
    small = c1 < 1e-20
    scale = np.exp(-1j * d.sum(axis=0) / 3.0) / np.where(small, 1.0, 9.0 * uu - ww)
    out = (np.where(small, 1j, h1) * scale) * x + (np.where(small, -0.5, h2) * scale) * x2
    out.reshape(9, -1)[::4] += np.where(small, 1.0, h0) * scale
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
    """S[n-1] ... S[1] S[0] along the last axis by pairwise reduction, later
    steps on the left, for entry-major matrices: s[i, j] holds entry (i, j).
    A level's products are one broadcast multiply and one sum over the
    inner index, not one small matrix product per pair."""
    while s.shape[-1] > 1:
        n = s.shape[-1]
        pairs = (s[:, :, None, ..., 1::2] * s[None, ..., 0:n - 1:2]).sum(axis=1)
        s = np.concatenate([pairs, s[..., -1:]], axis=-1) if n % 2 else pairs
    return s[..., 0]
