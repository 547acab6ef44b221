"""Iterated integrals and transports along piecewise exponential paths.

Ordinary iterated integrals of constant one forms have closed forms on
each segment; crossing segments composes by splitting the word, which
the dynamic programs below exploit. Exponential iterated integrals are
evaluated as one entry of the transport of a small upper bidiagonal
connection, so the same segment-by-segment product applies to them.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from .matfuncs import expm, expm_upper_bidiagonal
from .paths import PathWord

_EPS = float(np.finfo(float).eps)


def _functional_value(functional, direction):
    return complex(np.dot(np.asarray(functional, dtype=complex), direction))


def iterated_integral(functionals, path):
    """Iterated integral of a word of constant one forms along a path.

    functionals is the word, leftmost integrated at the earliest time.
    Runs the word-splitting recursion segment by segment, quadratic in
    the word length and linear in the number of segments.
    """
    word = [np.asarray(f, dtype=complex) for f in functionals]
    n = len(word)
    state = np.zeros(n + 1, dtype=complex)
    state[0] = 1.0
    for seg in path:
        a = [_functional_value(f, seg.vector) for f in word]
        t = seg.duration
        new = np.zeros_like(state)
        for k in range(n + 1):
            total = 0.0 + 0.0j
            prod = 1.0 + 0.0j
            # j runs down from k: contribution of the prefix of length j
            # times the last k - j letters evaluated on this segment.
            for j in range(k, -1, -1):
                total += state[j] * prod * t ** (k - j) / factorial(k - j)
                if j > 0:
                    prod *= a[j - 1]
            new[k] = total
        state = new
    return complex(state[n])


def iterated_integral_quadrature(functionals, path, points=10000):
    """Left endpoint simplex quadrature for the same iterated integral.

    The grid is aligned with segment boundaries and the sum runs over the
    strictly lower simplex, so the error is of order one over the number
    of points. Serves as an independent slow oracle.
    """
    word = [np.asarray(f, dtype=complex) for f in functionals]
    n = len(word)
    total_time = path.total_duration
    cum = np.zeros(n + 1, dtype=complex)
    cum[0] = 1.0
    for seg in path:
        if seg.duration == 0.0:
            continue
        steps = max(1, int(round(points * seg.duration / max(total_time, 1e-300))))
        h = seg.duration / steps
        a = [_functional_value(f, seg.vector) for f in word]
        for _ in range(steps):
            for k in range(n, 0, -1):
                cum[k] = cum[k] + a[k - 1] * cum[k - 1] * h
    return complex(cum[n])


def transport(form, path):
    """Ordered product of segment exponentials of the connection.

    The first segment sits leftmost, matching the word-splitting
    convention of the iterated integrals.
    """
    out = None
    for seg in path:
        m = expm(seg.duration * form.psi(seg.vector))
        out = m if out is None else out @ m
    if out is None:
        return np.eye(form.r, dtype=complex)
    return out


@dataclass(frozen=True)
class SeriesResult:
    """Truncated series value with a certified remainder estimate.

    tail_bound dominates the dropped terms of the exponential product
    series plus a rounding allowance; depth is the truncation order
    actually used.
    """

    value: object
    tail_bound: float
    depth: int
    growth: float


def _product_series(matrices, depth):
    """Sum of products of the matrix exponentials, graded by total order.

    coeff[l] collects every product of l factors drawn from consecutive
    segments, which is the depth l part of the iterated integral series
    of the transport.
    """
    if not matrices:
        return [np.eye(1, dtype=complex)]
    r = matrices[0].shape[0]
    coeff = [np.zeros((r, r), dtype=complex) for _ in range(depth + 1)]
    coeff[0] = np.eye(r, dtype=complex)
    for a in matrices:
        powers = [np.eye(r, dtype=complex)]
        for _ in range(depth):
            powers.append(powers[-1] @ a)
        new = [np.zeros((r, r), dtype=complex) for _ in range(depth + 1)]
        for lo in range(depth + 1):
            for k in range(depth + 1 - lo):
                new[lo + k] += coeff[lo] @ powers[k] / factorial(k)
        coeff = new
    return coeff


def transport_series(form, path, depth):
    """Partial sums of the transport's iterated integral series.

    Returns the sum through the given depth together with a bound on the
    discarded tail, driven by the accumulated one norm of the segment
    generators.
    """
    mats = [seg.duration * form.psi(seg.vector) for seg in path]
    growth = sum(float(np.linalg.norm(m, "fro")) for m in mats)
    coeff = _product_series(mats, depth)
    r = coeff[0].shape[0]
    total = np.zeros((r, r), dtype=complex)
    for c in coeff:
        total += c
    tail = _tail_bound(growth, depth)
    return SeriesResult(value=total, tail_bound=tail, depth=depth, growth=growth)


def _tail_bound(x, depth):
    """Remainder of the exponential product series past the given depth.

    Every dropped term of total order l is bounded by x**l / l!, so the
    tail is at most x**(depth+1) e^x / (depth+1)!. A rounding allowance
    proportional to e^x keeps the bound honest at float precision.
    """
    x = float(x)
    analytic = x ** (depth + 1) * np.exp(x) / factorial(depth + 1)
    noise = 100.0 * _EPS * np.exp(min(x, 300.0))
    return float(analytic + noise)


@dataclass(frozen=True)
class IntegralWord:
    """Word of an exponential iterated integral.

    exponents are the diagonal functionals, one per slot; factors the
    functionals between consecutive slots. The value is the top right
    entry of the transport of the induced bidiagonal connection.
    """

    exponents: tuple
    factors: tuple

    def __post_init__(self):
        exps = tuple(tuple(complex(z) for z in np.asarray(e).ravel()) for e in self.exponents)
        facs = tuple(tuple(complex(z) for z in np.asarray(f).ravel()) for f in self.factors)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "factors", facs)
        if len(self.exponents) != len(self.factors) + 1:
            raise ValueError("need exactly one more exponent than factors")

    @property
    def size(self):
        return len(self.exponents)

    def segment_matrix(self, direction):
        """Bidiagonal generator evaluated on one direction vector."""
        d = np.array(
            [_functional_value(e, direction) for e in self.exponents], dtype=complex
        )
        s = np.array(
            [_functional_value(f, direction) for f in self.factors], dtype=complex
        )
        n = self.size
        m = np.zeros((n, n), dtype=complex)
        m[np.diag_indices(n)] = d
        for i in range(n - 1):
            m[i, i + 1] = s[i]
        return m


def exp_iterated_integral(word, path):
    """Closed form evaluation of an exponential iterated integral.

    Each segment contributes the exact exponential of its bidiagonal
    generator; sizes one and two use explicit formulas with a stable
    divided difference, larger sizes the dense exponential.
    """
    n = word.size
    out = np.eye(n, dtype=complex)
    for seg in path:
        m = word.segment_matrix(seg.vector) * seg.duration
        if n <= 2:
            e = expm_upper_bidiagonal(np.diag(m), np.diag(m, 1) if n == 2 else [])
        else:
            e = expm(m)
        out = out @ e
    return complex(out[0, n - 1])


def exp_iterated_integral_series(word, path, depth):
    """Series evaluation of an exponential iterated integral.

    Expands every segment exponential and keeps all products whose total
    number of diagonal factors is at most depth. Reaching the top right
    corner consumes the off diagonal once per step, so the cut happens
    at total order depth plus size minus one. The tail bound covers the
    dropped orders.
    """
    n = word.size
    mats = [word.segment_matrix(seg.vector) * seg.duration for seg in path]
    growth = sum(float(np.linalg.norm(m, "fro")) for m in mats)
    order = depth + n - 1
    coeff = _product_series(mats, order)
    total = np.zeros((n, n), dtype=complex)
    for c in coeff:
        total += c
    tail = _tail_bound(growth, depth)
    return SeriesResult(
        value=complex(total[0, n - 1]), tail_bound=tail, depth=depth, growth=growth
    )


def shuffle_words(a, b):
    """Multiset of interleavings of two words over hashable letters."""
    out = {}
    # Depth first with an explicit stack; the branch taking from b is
    # pushed first, so interleavings that take from a come out first.
    stack = [(tuple(a), tuple(b), ())]
    while stack:
        x, y, prefix = stack.pop()
        if not x and not y:
            out[prefix] = out.get(prefix, 0) + 1
        if y:
            stack.append((x, y[1:], prefix + (y[0],)))
        if x:
            stack.append((x[1:], y, prefix + (x[0],)))
    return out


def shuffle_identity_residual(functionals, word_a, word_b, path):
    """Defect of the shuffle identity on two index words.

    The product of two iterated integrals must equal the sum over all
    shuffles; words index into the shared functional list.
    """
    fa = [functionals[i] for i in word_a]
    fb = [functionals[i] for i in word_b]
    lhs = iterated_integral(fa, path) * iterated_integral(fb, path)
    rhs = 0.0 + 0.0j
    for w, mult in shuffle_words(word_a, word_b).items():
        rhs += mult * iterated_integral([functionals[i] for i in w], path)
    return abs(lhs - rhs)
