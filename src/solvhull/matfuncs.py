"""Matrix exponential helpers.

Dense exponentials go through scipy (Pade approximation with scaling and
squaring). The small closed forms below exist because the bidiagonal
transport kernels call them in tight loops and because the divided
difference (e^a - e^b)/(a - b) needs a series branch near a == b.
"""

import numpy as np
import scipy.linalg


def expm(a):
    """Matrix exponential, complex in and complex out."""
    return scipy.linalg.expm(np.asarray(a, dtype=complex))


def phi_difference(a, b):
    """Stable (e^a - e^b)/(a - b), the first divided difference of exp.

    Evaluated as e^((a+b)/2) * sinh(h)/h with h = (a-b)/2, taking
    sinh(h)/h from its series when h is small, which also covers a == b.
    Direct subtraction loses about eps/|a - b| relative accuracy at small
    gaps; this form loses a few ulps at most. When the real parts differ
    by more than 2, e^a and e^b differ in size by e^2 or more, so the
    direct quotient has no cancellation, and it stays finite wherever
    the result is, while e^((a+b)/2) and sinh(h) separately may not.
    """
    a = complex(a)
    b = complex(b)
    h = (a - b) / 2.0
    if abs(h.real) > 1.0:
        return (np.exp(a) - np.exp(b)) / (a - b)
    if abs(h) < 1e-3:
        h2 = h * h
        # Relative truncation error below |h|^8/9!, under 1e-29 here.
        sinhc = 1.0 + h2 / 6.0 + h2 * h2 / 120.0 + h2 * h2 * h2 / 5040.0
    else:
        sinhc = np.sinh(h) / h
    return np.exp((a + b) / 2.0) * sinhc


def expm_upper_bidiagonal(diag, super_diag):
    """exp of an upper bidiagonal matrix, closed form for sizes 1 and 2.

    Larger sizes fall back to the dense exponential. diag has length n,
    super_diag length n - 1.
    """
    diag = np.asarray(diag, dtype=complex)
    sup = np.asarray(super_diag, dtype=complex)
    n = diag.size
    if n == 1:
        return np.array([[np.exp(diag[0])]], dtype=complex)
    if n == 2:
        out = np.zeros((2, 2), dtype=complex)
        out[0, 0] = np.exp(diag[0])
        out[1, 1] = np.exp(diag[1])
        out[0, 1] = sup[0] * phi_difference(diag[0], diag[1])
        return out
    m = np.diag(diag) + np.diag(sup, 1)
    return expm(m)


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
