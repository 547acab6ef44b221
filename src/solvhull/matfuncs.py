"""Matrix exponential helpers.

Dense exponentials go through scipy (Pade approximation with scaling and
squaring). Exponential iterated integrals only need exponentials of
upper bidiagonal matrices, which have a closed form entry by entry:
entry (i, j) is s_i ... s_(j-1) times the divided difference of exp at
the diagonal nodes z_i, ..., z_j (McCurdy, Ng & Parlett, Math. Comp. 43,
1984; Higham, Functions of Matrices, 2008, ch. 10).
"""

import numpy as np
import scipy.linalg

_EPS = float(np.finfo(float).eps)
# Entries whose end nodes are closer than this take the Taylor branch.
_TAYLOR_GAP = 1.0


def expm(a):
    """Matrix exponential, complex in and complex out."""
    return scipy.linalg.expm(np.asarray(a, dtype=complex))


def _taylor_degree(radius):
    """Degree past which the Taylor tail of exp at radius is below eps."""
    degree, term = 0, 1.0
    while term * radius > _EPS / 8.0 * (degree + 1):
        degree += 1
        term *= radius / degree
    return degree


def exp_chain_sum(diag, sup, start):
    """Summed top right entries of ordered products of bidiagonal exponentials.

    diag (..., segments, chains, n) and sup (..., segments, chains, n - 1)
    hold every chain's bidiagonal generator B on every segment, chains
    right aligned, chain c starting at slot start[c]. The row e_start
    exp(B) is carried across the segments and its last slot summed over
    the chains, one value per leading index; zero generators pad.

    Entry (i, j) of exp(B) follows Newton's recurrence
    F[i, j] = (s_i F[i+1, j] - s_(j-1) F[i, j-1]) / (z_j - z_i)
    when |z_j - z_i| >= _TAYLOR_GAP, else the Taylor series of row i of
    e^(z_i) exp(B - z_i); right multiplication keeps rows apart, so one
    flattened Horner loop, with the superdiagonal a shift by one place,
    centres each row on its node. Its degree covers the widest Taylor
    entry, which only exceeds _TAYLOR_GAP where nodes leave and come
    back, losing e^radius ulps. The Newton pass runs only when some
    pair of nodes is _TAYLOR_GAP or more apart.
    """
    diag = np.asarray(diag, dtype=complex)
    sup = np.asarray(sup, dtype=complex)
    n = diag.shape[-1]
    w = diag[..., None, :] - diag[..., :, None]
    dist = np.abs(w)
    radius = np.maximum.accumulate(np.triu(dist), axis=-1)
    near = dist < _TAYLOR_GAP
    degree = _taylor_degree(np.max(radius, where=near, initial=0.0))
    links = np.zeros(w.shape, dtype=complex)
    links[..., :, 1:] = sup[..., None, :]
    links, flat_w = links.ravel()[1:], w.ravel()
    eye = np.broadcast_to(np.eye(n, dtype=complex), w.shape).ravel()
    acc, step, shifted = eye.copy(), np.empty_like(eye), np.empty_like(links)
    for m in range(degree + n - 1, 0, -1):
        np.multiply(acc, flat_w, out=step)
        step[1:] += np.multiply(acc[:-1], links, out=shifted)
        step *= 1.0 / m
        step += eye
        acc, step = step, acc
    exps = acc.reshape(w.shape) * np.exp(diag)[..., :, None]
    flat = exps.reshape(diag.shape[:-1] + (n * n,))
    if not near.all():
        prev = flat[..., :: n + 1]
        for k in range(1, n):
            gap = diag[..., k:] - diag[..., :-k]
            taylor = np.abs(gap) < _TAYLOR_GAP
            newton = sup[..., : n - k] * prev[..., 1:] - sup[..., k - 1 :] * prev[..., :-1]
            newton /= np.where(taylor, 1.0, gap)
            prev = np.where(taylor, flat[..., k :: n + 1][..., : n - k], newton)
            flat[..., k :: n + 1][..., : n - k] = prev
    x = np.zeros(diag.shape[:-3] + diag.shape[-2:], dtype=complex)
    x[..., np.arange(len(start)), start] = 1.0
    for s in range(diag.shape[-3]):
        x = (x[..., None, :] @ exps[..., s, :, :, :])[..., 0, :]
    return x[..., n - 1].sum(axis=-1)


def phi1_apply(m, z):
    """Integral of e^(s m) z over s in [0, 1], via one block exponential.

    Exponentiating [[m, z], [0, 0]] puts the answer in the top right
    block, which avoids inverting a possibly singular m.
    """
    m = np.asarray(m, dtype=complex)
    z = np.asarray(z, dtype=complex).reshape(-1)
    n = m.shape[0]
    block = np.zeros((n + 1, n + 1), dtype=complex)
    block[:n, :n] = m
    block[:n, n] = z
    return expm(block)[:n, n]
