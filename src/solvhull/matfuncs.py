"""Matrix exponential helpers.

Dense exponentials go through scipy (Pade approximation with scaling and
squaring). Exponential iterated integrals only need exponentials of
upper bidiagonal matrices, which have a closed form entry by entry:
entry (i, j) is s_i ... s_(j-1) times the divided difference of exp at
the diagonal nodes z_i, ..., z_j (McCurdy, Ng & Parlett, Math. Comp. 43,
1984; Higham, Functions of Matrices, 2008, ch. 10). The chain-sum kernel
evaluates them on the packed upper triangle, n(n + 1)/2 slots row by
row, since the lower triangle is zero; when every pair of nodes is
near, its Taylor degree comes from the largest gap between nodes.
"""

import functools

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


@functools.lru_cache(maxsize=None)
def _packed_layout(n):
    """Row-major packed upper triangle of an n by n matrix.

    Returns the row and column of every slot, the slots off the
    diagonal with the superdiagonal entry that links into each, every
    slot's place in the row-major n by n matrix, and the diagonal slots,
    which start the rows. The arrays are shared by every call, so they
    are read only.
    """
    rows, cols = np.triu_indices(n)
    inner = np.flatnonzero(cols > rows)
    arrays = (rows, cols, inner, cols[inner] - 1, rows * n + cols, np.flatnonzero(cols == rows))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def exp_chain_sum(diag, sup, start):
    """Summed top right entries of ordered products of bidiagonal exponentials.

    diag (..., segments, chains, n) and sup (..., segments, chains, n - 1)
    hold every chain's bidiagonal generator B on every segment, chains
    right aligned, chain c starting at slot start[c]. The row e_start
    exp(B) is carried across the segments and its last slot summed over
    the chains, one value per leading index; zero generators pad.

    exp(B) is upper triangular and is kept as its packed upper triangle:
    row i holds columns i to n - 1, the rows one after another, n(n + 1)/2
    slots in all. Entry (i, j) follows Newton's recurrence
    F[i, j] = (s_i F[i+1, j] - s_(j-1) F[i, j-1]) / (z_j - z_i)
    when |z_j - z_i| >= _TAYLOR_GAP, else the Taylor series of row i of
    e^(z_i) exp(B - z_i); right multiplication keeps rows apart, so one
    flattened Horner loop, with the superdiagonal a shift by one slot,
    centres each row on its node. The link into the first slot of each
    packed row is zero, so no row reads the one before it. The degree
    covers the widest Taylor entry (i, j), the largest |z_k - z_i| for
    k from i to j, which only exceeds _TAYLOR_GAP where nodes leave and
    come back, losing e^radius ulps. When every pair of nodes is nearer
    than _TAYLOR_GAP, that is the largest packed |z_j - z_i|, and the
    Newton pass, which runs only when some pair is _TAYLOR_GAP or more
    apart, is skipped.
    """
    diag = np.asarray(diag, dtype=complex)
    sup = np.asarray(sup, dtype=complex)
    n = diag.shape[-1]
    rows, cols, inner, feeds, dense_slot, row_start = _packed_layout(n)
    square = diag.shape[:-1] + (n * n,)
    w = np.take(diag, cols, axis=-1) - np.take(diag, rows, axis=-1)
    dist = np.abs(w)
    radius = dist.max(initial=0.0)
    all_near = radius < _TAYLOR_GAP
    if not all_near:
        near = dist < _TAYLOR_GAP
        running = np.zeros(square)
        running[..., dense_slot] = dist
        running = np.maximum.accumulate(running.reshape(diag.shape + (n,)), axis=-1)
        radius = np.max(running.reshape(square)[..., dense_slot], where=near, initial=0.0)
    degree = _taylor_degree(radius)
    links = np.zeros(w.shape, dtype=complex)
    links[..., inner] = np.take(sup, feeds, axis=-1)
    links, flat_w = links.ravel()[1:], w.ravel()
    eye = np.zeros(w.shape, dtype=complex)
    eye[..., row_start] = 1.0
    eye = eye.ravel()
    acc, step, shifted = eye.copy(), np.empty_like(eye), np.empty_like(links)
    for m in range(degree + n - 1, 0, -1):
        np.multiply(acc, flat_w, out=step)
        step[1:] += np.multiply(acc[:-1], links, out=shifted)
        step *= 1.0 / m
        step += eye
        acc, step = step, acc
    # The Newton pass and the carry run on the full matrices, the lower
    # triangle zero: bands are strided views there, and each row vector
    # product rounds as a dense one does.
    flat = np.zeros(square, dtype=complex)
    flat[..., dense_slot] = acc.reshape(w.shape) * np.take(np.exp(diag), rows, axis=-1)
    if not all_near:
        prev = flat[..., :: n + 1]
        for k in range(1, n):
            gap = diag[..., k:] - diag[..., :-k]
            taylor = np.abs(gap) < _TAYLOR_GAP
            newton = sup[..., : n - k] * prev[..., 1:] - sup[..., k - 1 :] * prev[..., :-1]
            newton /= np.where(taylor, 1.0, gap)
            prev = np.where(taylor, flat[..., k :: n + 1][..., : n - k], newton)
            flat[..., k :: n + 1][..., : n - k] = prev
    exps = flat.reshape(diag.shape + (n,))
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
