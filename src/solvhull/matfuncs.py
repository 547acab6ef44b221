"""Matrix exponential helpers.

Dense exponentials use Pade approximation with scaling and squaring
(Higham, SIAM J. Matrix Anal. Appl. 26, 2005), with the degree and the
number of squarings chosen from the 1-norms of powers of the input and
the backward error bound of Al-Mohy & Higham (SIAM J. Matrix Anal. Appl.
31, 2009, algorithm 6.1). Structure is kept exactly: a diagonal input
gets the exponentials of its diagonal, a strictly triangular one, which
is nilpotent, its Taylor polynomial, and any other triangular input a
triangular result whose diagonal and first off diagonal are recomputed
exactly after each squaring (their code fragment 2.1). Inputs here are
small, so every step is a handful of numpy calls.

Exponential iterated integrals only need exponentials of
upper bidiagonal matrices, which have a closed form entry by entry:
entry (i, j) is s_i ... s_(j-1) times the divided difference of exp at
the diagonal nodes z_i, ..., z_j (McCurdy, Ng & Parlett, Math. Comp. 43,
1984; Higham, Functions of Matrices, 2008, ch. 10). The chain-sum kernel
evaluates them on the packed upper triangle, n(n + 1)/2 slots row by
row, since the lower triangle is zero; when every pair of nodes is
near, its Taylor degree comes from the largest gap between nodes. Real
input runs in float64 arithmetic. It returns each chain's value, so one
call can serve chains that callers sum in separate groups.
"""

import functools
import math

import numpy as np

from .linalg import lapack, strict_triangles

_EPS = float(np.finfo(float).eps)
# Entries whose end nodes are closer than this take the Taylor branch.
_TAYLOR_GAP = 1.0

# Unit roundoff of double precision.
_U = 2.0**-53


def _pade_coefficients(*b):
    """Rows (b_1, b_3, ...) and (b_0, b_2, ...) of a Pade numerator."""
    return np.array([b[1::2], b[0::2]], dtype=complex)


# Each Pade degree m with the largest eta = max(||A^k||^(1/k)) it takes
# without scaling (Al-Mohy & Higham 2009, table 3.1) and its numerator
# coefficients, odd and even, against the powers I, A^2, A^4, ...
_DEGREES = (
    (3, 1.495585217958292e-2, _pade_coefficients(120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, _pade_coefficients(
        30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, _pade_coefficients(
        17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    (9, 2.097847961257068, _pade_coefficients(
        17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
)
_THETA_13 = 4.25
# Degree 13 evaluates U = A (A^6 (b13 A^6 + b11 A^4 + b9 A^2) + b7 A^6 + ...)
# and V likewise: the inner odd and even parts, then the outer ones,
# against the powers I, A^2, A^4, A^6.
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
        33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_PADE_13 = np.array([
    [0.0, *_B13[9::2]], [0.0, *_B13[8::2]], _B13[1:9:2], _B13[0:8:2],
], dtype=complex).reshape(2, 2, 4)
# 1 / |c_(2m+1)|, the leading coefficient of the backward error series
# of degree m (Higham 2005, (2.2) and (2.6)).
_ERROR_RECIP = {3: 100800.0, 5: 10059033600.0, 7: 4487938430976000.0,
                9: 5914384781877411840000.0,
                13: 113250775606021113483283660800000000.0}
# Powers A^2, A^4, A^6 scale by these to the power s when A scales by 2^-s.
_POWER_SCALES = np.array([4.0, 16.0, 64.0])[:, None, None]


@functools.lru_cache(maxsize=None)
def _identity(n):
    """The n by n identity, shared by every call, so read only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _norms1(a):
    """1-norms of a stack of matrices.

    Ufunc reductions cost less than the array methods at this size.
    """
    return np.maximum.reduce(np.add.reduce(np.abs(a), axis=-2), axis=-1)


def _error_squarings(a, norm, m):
    """Squarings the backward error of degree m asks for beyond eta's.

    This is ell(A, m) of Al-Mohy & Higham 2009, with the 1-norm of
    |A|^(2m + 1) computed exactly. That norm is at most norm^(2m + 1),
    so when norm^(2m) is at most u / |c_(2m+1)| the answer is 0 unread.
    """
    recip = _ERROR_RECIP[m]
    if norm ** (2 * m) <= _U * recip:
        return 0
    absolute, row = np.abs(a), np.ones(a.shape[0])
    for _ in range(2 * m + 1):
        row = row @ absolute
    alpha = float(row.max()) / (norm * recip)
    if alpha == 0.0:
        return 0
    return max(math.ceil(math.log2(alpha / _U) / (2 * m)), 0)


def _pade(a):
    """The squarings s and the Pade approximant of exp(2^-s a).

    The degree is the least of 3, 5, 7, 9 whose eta bound and backward
    error allow it without scaling, else 13 with s squarings. The powers
    are kept as one stack, I, A^2, A^4, A^6, A^8 and A, so that one pass
    takes all their norms and one product all the Pade sums.
    """
    n = a.shape[0]
    p = np.empty((6, n, n), dtype=complex)
    p[0] = _identity(n)
    p[5] = a
    np.matmul(a, a, out=p[1])
    np.matmul(p[1], p[1], out=p[2])
    np.matmul(p[2], p[1:3], out=p[3:5])
    n4, n6, n8, norm = _norms1(p[2:]).tolist()
    d4, d6, d8 = n4**0.25, n6 ** (1.0 / 6.0), n8**0.125
    for m, theta, coeffs in _DEGREES:
        eta = max(d4, d6) if m < 7 else max(d6, d8)
        if eta <= theta and _error_squarings(a, norm, m) == 0:
            k = coeffs.shape[1]
            odd, even = (coeffs @ p[:k].reshape(k, n * n)).reshape(2, n, n)
            u = a @ odd
            return 0, lapack.solve(even - u, even + u)
    d10 = float(_norms1(p[2] @ p[3])) ** 0.1
    eta = min(max(d6, d8), max(d8, d10))
    s = max(math.ceil(math.log2(eta / _THETA_13)), 0) if eta else 0
    s += _error_squarings(a * 2.0**-s, norm * 2.0**-s, 13)
    if s:
        a = a * 2.0**-s
        p[1:4] *= _POWER_SCALES**-s
    inner, outer = (_PADE_13 @ p[:4].reshape(4, n * n)).reshape(2, 2, n, n)
    odd, even = p[3] @ inner + outer
    u = a @ odd
    return s, lapack.solve(even - u, even + u)


def _triangular_squarings(r, diag, sup, s):
    """Square r s times, resetting its diagonal and superdiagonal each time.

    r approximates exp(2^-s T) for an upper triangular T with diagonal
    diag and superdiagonal sup. Before each squaring and after the last,
    the diagonal of exp(2^-i T) is exp(2^-i diag) and its superdiagonal
    is 2^-i sup times the divided difference of exp at neighbouring
    diagonal entries (Al-Mohy & Higham 2009, code fragment 2.1).
    """
    n = r.shape[0]
    scales = 2.0 ** -np.arange(s, -1, -1.0)[:, None]
    z = scales * diag
    ez = np.exp(z)
    dz = np.diff(z, axis=1)
    # Where neighbouring entries are equal the divided difference is exp.
    supers = np.divide(np.diff(ez, axis=1), dz, out=ez[:, :-1].copy(), where=dz != 0.0)
    supers *= sup * scales
    r.flat[:: n + 1] = ez[0]
    for i in range(1, s + 1):
        r = r @ r
        r.flat[:: n + 1] = ez[i]
        r.flat[1 :: n + 1] = supers[i]
    return r


def _nilpotent_exp(a):
    """exp of a strictly upper triangular a: its Taylor polynomial, by Horner.

    a^n is zero, so I + a (I + a/2 (I + ... (I + a/(n - 1)))) is exact
    but for rounding, and keeps the unit diagonal and zero lower part.
    """
    n = a.shape[0]
    eye = _identity(n)
    r = a / (n - 1)
    r += eye
    for k in range(n - 2, 0, -1):
        r = a @ r
        r /= k
        r += eye
    return r


def expm(a):
    """Matrix exponential, complex in and complex out.

    A diagonal input gives exp of its diagonal, and a triangular input
    an exactly triangular result. A lower triangular input is handled
    as the transpose of an upper triangular one, and a strictly upper
    triangular one, which is nilpotent, by its Taylor polynomial.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    lower, upper = strict_triangles(n)
    if np.count_nonzero(a.take(lower)):
        if not np.count_nonzero(a.take(upper)):
            return expm(a.T).T.copy()
        s, r = _pade(a)
        for _ in range(s):
            r = r @ r
        return r
    diag = a.diagonal()
    if not np.count_nonzero(a.take(upper)):
        out = np.zeros((n, n), dtype=complex)
        out.flat[:: n + 1] = np.exp(diag)
        return out
    if not np.count_nonzero(diag):
        return _nilpotent_exp(a)
    s, r = _pade(a)
    if s:
        r = _triangular_squarings(r, diag, a.diagonal(1), s)
    r.flat[lower] = 0.0
    return r


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


def exp_chain_values(diag, sup, start):
    """Top right entries of ordered products of bidiagonal exponentials, one per chain.

    diag (..., segments, chains, n) and sup (..., segments, chains, n - 1)
    hold every chain's bidiagonal generator B on every segment, chains
    right aligned, chain c starting at slot start[c]. The row e_start
    exp(B) is carried across the segments and its last slot returned,
    shape (..., chains); zero generators pad. The arithmetic runs in
    np.result_type(diag, sup, float), so real input stays float64, and
    the values come back in that dtype.

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
    diag, sup = np.asarray(diag), np.asarray(sup)
    dtype = np.result_type(diag, sup, float)
    diag, sup = diag.astype(dtype, copy=False), sup.astype(dtype, copy=False)
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
    links = np.zeros(w.shape, dtype=dtype)
    links[..., inner] = np.take(sup, feeds, axis=-1)
    links, flat_w = links.ravel()[1:], w.ravel()
    eye = np.zeros(w.shape, dtype=dtype)
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
    flat = np.zeros(square, dtype=dtype)
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
    x = np.zeros(diag.shape[:-3] + diag.shape[-2:], dtype=dtype)
    x[..., np.arange(len(start)), start] = 1.0
    for s in range(diag.shape[-3]):
        x = (x[..., None, :] @ exps[..., s, :, :, :])[..., 0, :]
    return x[..., n - 1]


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
