"""Iterated integrals and transports along piecewise exponential paths.

An exponential iterated integral is one entry of the transport of a
small upper bidiagonal connection, and a Chen iterated integral of
constant one forms is the case with every exponent zero. chain_values
evaluates a batch of them, and the monodromy entry chains too, on
matfuncs.exp_chain_values, carried segment by segment, and chain_sums
sums each path's batch. Truncated transport series run on a sparse
pattern closed under products, holding every generator and product of
them; one pass per degree makes every segment's powers.
Both kernels run in the dtype of their input, float64 when it is real,
and return complex values either way. Nothing here looks at values to
choose that dtype: it is decided once, where tables and paths are built
(linalg.real_if_exact). A real connection form stores its tables real,
stack_paths keeps a real path's real parts, and the word tables built
here are real when every entry is exactly real, so on real input their
products are real; a complex table stays complex whatever its values.
"""

import functools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import ValidationError
from .linalg import frozen_array, real_if_exact
from .matfuncs import exp_chain_values
from .paths import check_dim, stack_paths

_EPS = float(np.finfo(float).eps)


def _functional_value(functional, direction):
    return complex(np.dot(np.asarray(functional, dtype=complex), direction))


def chain_values(exponents, factors, stacked, start):
    """Exponential iterated integral of each chain of a batch on each path, shape (paths, chains).

    exponents (chains, n, dim) and factors (chains, n - 1, dim) hold each
    chain's diagonal and between-slot functionals, chains right aligned,
    chain c starting at slot start[c]. stacked is stack_paths of the
    paths, and segment s contributes t_s times each functional on its
    direction; this is the one place that builds the input of
    matfuncs.exp_chain_values, and it passes the products on as they
    are: real tables on real vectors run and return in float64.
    """
    chains, n, dim = exponents.shape
    vectors, durations = stacked
    lead = vectors.shape[:2] + (chains,)
    diag = durations * (vectors @ exponents.reshape(chains * n, dim).T).reshape(lead + (n,))
    sup = vectors @ factors.reshape(chains * (n - 1), dim).T
    sup = durations * sup.reshape(lead + (n - 1,))
    return exp_chain_values(diag, sup, start)


def chain_sums(exponents, factors, stacked, start):
    """chain_values summed over the chains, one complex value per path."""
    return np.add.reduce(chain_values(exponents, factors, stacked, start), axis=-1).astype(complex, copy=False)


def iterated_integral(functionals, path):
    """Iterated integral of a word of constant one forms along a path.

    functionals is the word, leftmost integrated at the earliest time.
    It is the exponential iterated integral whose exponents are all zero
    and whose factors are the letters, so the transport of the nilpotent
    bidiagonal connection carries the prefixes across the segments.
    """
    n = len(functionals)
    # An empty word has no letter to give the dimension; the path's serves.
    factors = real_if_exact(np.asarray(functionals, dtype=complex).reshape(1, n, -1 if n else path.dim))
    dim = factors.shape[-1]
    return complex(chain_sums(np.zeros((1, n + 1, dim)), factors, stack_paths([path], dim), [0])[0])


def iterated_integral_quadrature(functionals, path, points=10000):
    """Left endpoint simplex quadrature for the same iterated integral.

    The grid is aligned with segment boundaries and the sum runs over the
    strictly lower simplex, so the error is of order one over the number
    of points. Serves as an independent oracle.

    On a segment, level k after step u + 1 is level k after step u plus
    a[k-1] (level k-1 after step u) h, so each level is one cumulative
    sum, strictly left to right, over the trajectory of the level below.
    The products are written out in real and imaginary parts, h as the
    complex number h + 0j, exactly as a scalar complex multiply rounds
    them; a vectorized complex multiply may round differently.
    """
    word = [np.asarray(f, dtype=complex) for f in functionals]
    n = len(word)
    total_time = path.total_duration
    cum = np.zeros(n + 1, dtype=complex)
    cum[0] = 1.0
    for x, t in path:
        if t == 0.0:
            continue
        steps = max(1, int(round(points * t / max(total_time, 1e-300))))
        h = t / steps
        a = [_functional_value(f, x) for f in word]
        below = np.full(steps + 1, cum[0])
        for k, c in enumerate(a, start=1):
            re, im = below.real[:-1], below.imag[:-1]
            pr = c.real * re - c.imag * im
            pi = c.real * im + c.imag * re
            level = np.empty(steps + 1, dtype=complex)
            level[0] = cum[k]
            level.real[1:] = pr * h - pi * 0.0
            level.imag[1:] = pr * 0.0 + pi * h
            below = np.cumsum(level)
            cum[k] = below[-1]
    return complex(cum[n])


def transport(form, path):
    """Ordered product of segment exponentials of the connection.

    The first segment sits leftmost, matching the iterated integrals,
    whose leftmost letter is integrated at the earliest time. Each
    segment comes from the form's memo; the result is a fresh array, so
    a one-segment path's read-only entry is copied.
    """
    check_dim(path, form.dim)
    out = None
    for x, t in path:
        m = form.segment_exp(x, t)
        out = m if out is None else out @ m
    if out is None:
        return np.eye(form.r, dtype=complex)
    return out if out.flags.writeable else out.copy()


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


@dataclass(frozen=True)
class Pattern:
    """Entries of a square matrix pattern that is closed under products.

    A matrix on the pattern is the vector of its values at (rows, cols);
    index[i, j] is the position of entry (i, j). A product sums
    left[t] times right[t] values over the triples t = (i, k, j) grouped
    by their entry (i, j), whose group begins at starts[e]. Transitivity
    keeps every product on the pattern, so products are exact. The
    arrays are read only.
    """

    size: int
    rows: np.ndarray
    cols: np.ndarray
    index: np.ndarray
    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray

    def gather(self, dense):
        return dense[..., self.rows, self.cols]

    def scatter(self, values):
        out = np.zeros(values.shape[:-1] + (self.size, self.size), dtype=complex)
        out[..., self.rows, self.cols] = values
        return out


def closure_pattern(live):
    """Pattern of the reflexive-transitive closure of an upper adjacency.

    live is a strictly upper triangular boolean matrix; rows are closed
    from the bottom up, so each row's successors are final when read.
    """
    size = live.shape[0]
    reach = live | np.eye(size, dtype=bool)
    for i in range(size - 1, -1, -1):
        reach[i] |= reach[live[i]].any(axis=0)
    rows, cols = np.nonzero(reach)
    index = np.zeros((size, size), dtype=int)
    index[rows, cols] = np.arange(rows.size)
    row_start = np.searchsorted(rows, np.arange(size + 1))
    # Triple (i, k, j): entry (i, k) times every entry (k, j) of row k.
    counts = row_start[cols + 1] - row_start[cols]
    left = np.repeat(np.arange(rows.size), counts)
    offset = np.arange(left.size) - np.repeat(np.cumsum(counts) - counts, counts)
    right = np.repeat(row_start[cols], counts) + offset
    out = index[rows[left], cols[right]]
    order = np.argsort(out, kind="stable")
    starts = np.searchsorted(out[order], np.arange(rows.size))
    arrays = (rows, cols, index, left[order], right[order], starts)
    for a in arrays:
        a.setflags(write=False)
    return Pattern(size, *arrays)


@functools.lru_cache(maxsize=None)
def _upper_pattern(n):
    """closure_pattern of the n by n bidiagonal, the upper triangle, as a static table."""
    return closure_pattern(np.eye(n, k=1, dtype=bool))


def _pattern_series(pattern, matrices, depth):
    """Sum through the given depth of the graded product series.

    matrices holds each segment's generator on the pattern. coeff[l]
    collects every product of l factors drawn from consecutive segments,
    which is the depth l part of the iterated integral series of the
    transport. Each segment's terms a^k/k! take one product each, all
    segments' in one pass per degree; the first segment's terms are
    coeff, and for each later one but the last the graded Cauchy product
    with coeff is gathered, multiplied and summed over the triples in one
    pass. Only the sum through the depth is returned, so the last segment
    pairs coeff[l] with its own partial sum through degree depth - l, one
    product instead of one per degree. No segment leaves the identity.
    The arithmetic runs in the matrices' dtype, at least float64, and the
    sum is complex.
    """
    terms = depth + 1
    identity = pattern.rows == pattern.cols
    if not matrices:
        return identity.astype(complex)
    # The gathered rows take megabytes at r in the hundreds, so they live
    # in buffers made once per call: fresh ones per segment and degree
    # would each be mapped and unmapped by malloc. The indices are in
    # range, and mode="clip" lets np.take write to out unbuffered.
    dtype = np.result_type(float, *{a.dtype for a in matrices})
    segments, triples = len(matrices), pattern.left.size
    powers = np.empty((segments, terms, pattern.rows.size), dtype=dtype)
    powers[:, 0] = identity
    right = np.take(np.stack(matrices), pattern.right, axis=-1)
    step = np.empty((segments, triples), dtype=dtype)
    for k in range(1, terms):
        np.take(powers[:, k - 1], pattern.left, axis=-1, out=step, mode="clip")
        np.multiply(step, right, out=step)
        np.add.reduceat(step, pattern.starts, axis=-1, out=powers[:, k])
        np.true_divide(powers[:, k], k, out=powers[:, k])
    lhs, rhs, prods, scratch = np.empty((4, terms, triples), dtype=dtype)
    coeff = powers[0]
    for s in range(1, segments):
        np.take(coeff, pattern.left, axis=1, out=lhs, mode="clip")
        if s == segments - 1:
            partial = np.cumsum(powers[s], axis=0)
            partial = np.take(partial, pattern.right, axis=1, out=rhs, mode="clip")
            total = lhs[0] * partial[depth]
            for lo in range(1, terms):
                total += lhs[lo] * partial[depth - lo]
            return np.add.reduceat(total, pattern.starts).astype(complex, copy=False)
        np.take(powers[s], pattern.right, axis=1, out=rhs, mode="clip")
        np.multiply(lhs[0], rhs, out=prods)
        for lo in range(1, terms):
            prods[lo:] += np.multiply(lhs[lo], rhs[: terms - lo], out=scratch[: terms - lo])
        coeff = np.add.reduceat(prods, pattern.starts, axis=-1)
    return coeff.sum(axis=0).astype(complex, copy=False)


def transport_series(form, path, depth):
    """Partial sums of the transport's iterated integral series.

    Returns the sum through the given depth together with a bound on the
    discarded tail, driven by the accumulated one norm of the segment
    generators. The series runs on the form's closure pattern, in
    float64 when closure_psi and the path's stack are real.
    """
    pattern = form.closure
    vectors, durations = stack_paths([path], form.dim)
    mats = [t * (x @ form.closure_psi) for x, t in zip(vectors[0], durations.ravel())]
    growth = _growth(mats)
    tail = _tail_bound(growth, depth)
    total = _pattern_series(pattern, mats, depth)
    return SeriesResult(
        value=pattern.scatter(total), tail_bound=tail, depth=depth, growth=growth
    )


def _growth(mats):
    """Summed Frobenius norms of the segment generators.

    Each norm is taken on complex values: numpy sums the squares of a
    complex array by strided dots over its parts and of a real one by a
    contiguous dot, which round differently, so a real segment's norm is
    the one its complex copy has, bit for bit.
    """
    return sum(float(np.linalg.norm(m.astype(complex, copy=False))) for m in mats)


def _tail_bound(x, depth):
    """Remainder of the exponential product series past the given depth.

    Every dropped term of total order l is bounded by x**l / l!, so the
    tail is at most x**(depth+1) e^x / (depth+1)!. A rounding allowance
    proportional to e^x keeps the bound honest at float precision.
    A negative depth is rejected here, so both series call this first.
    """
    if depth < 0:
        raise ValidationError(f"series depth must be nonnegative, got {depth}")
    x = float(x)
    analytic = x ** (depth + 1) * np.exp(x) / factorial(depth + 1)
    noise = 100.0 * _EPS * np.exp(min(x, 300.0))
    return float(analytic + noise)


@dataclass(frozen=True, eq=False)
class IntegralWord:
    """Word of an exponential iterated integral.

    exponents (n, dim) are the diagonal functionals, one per slot;
    factors (n - 1, dim) the functionals between consecutive slots, both
    read-only copies, float64 when every imaginary part of both is
    exactly zero and complex otherwise. The value is the top right entry
    of the transport of the induced bidiagonal connection.
    """

    exponents: np.ndarray
    factors: np.ndarray

    def __post_init__(self):
        if len(self.exponents) != len(self.factors) + 1:
            raise ValueError("need exactly one more exponent than factors")
        exps = np.asarray(self.exponents, dtype=complex).reshape(len(self.exponents), -1)
        facs = np.asarray(self.factors, dtype=complex).reshape(len(self.factors), exps.shape[1])
        exps, facs = real_if_exact(exps, facs)
        object.__setattr__(self, "exponents", frozen_array(exps, exps.dtype))
        object.__setattr__(self, "factors", frozen_array(facs, facs.dtype))

    @property
    def size(self):
        return len(self.exponents)

    def segment_matrix(self, direction):
        """Bidiagonal generator evaluated on one direction vector, real when both are."""
        n, direction = self.size, np.asarray(direction)
        m = np.zeros((n, n), dtype=np.result_type(self.exponents, direction))
        for i, e in enumerate(self.exponents):
            m[i, i] = np.dot(e, direction)
        for i, f in enumerate(self.factors):
            m[i, i + 1] = np.dot(f, direction)
        return m


def exp_iterated_integral(word, path):
    """Closed form evaluation of an exponential iterated integral.

    The word is a single chain for the bidiagonal kernel
    matfuncs.exp_chain_values, which carries the top row through the exact
    exponential of every segment's generator.
    """
    stacked = stack_paths([path], word.exponents.shape[1])
    return complex(chain_sums(word.exponents[None], word.factors[None], stacked, [0])[0])


def exp_iterated_integral_series(word, path, depth):
    """Series evaluation of an exponential iterated integral.

    Expands every segment exponential and keeps all products whose total
    number of diagonal factors is at most depth. Reaching the top right
    corner consumes the off diagonal once per step, so the cut happens
    at total order depth plus size minus one. The tail bound covers the
    dropped orders. The series runs on the upper triangle, the closure
    of the bidiagonal pattern.
    """
    n = word.size
    vectors, durations = stack_paths([path], word.exponents.shape[1])
    mats = [word.segment_matrix(x) * t for x, t in zip(vectors[0], durations.ravel())]
    growth = _growth(mats)
    tail = _tail_bound(growth, depth)
    pattern = _upper_pattern(n)
    total = _pattern_series(pattern, [pattern.gather(m) for m in mats], depth + n - 1)
    return SeriesResult(
        value=complex(total[pattern.index[0, n - 1]]), tail_bound=tail, depth=depth, growth=growth
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


def _shuffle_terms(functionals, word_a, word_b, path):
    """I(a), I(b) and the sum of I(w) over the shuffles w of a and b, from one kernel call.

    words index into the shared functional list. Both words and every
    shuffle, repeated by its multiplicity, are chains of one batch, right
    aligned on len(a) + len(b) + 1 slots; every exponent is zero, so the
    slots in front of a chain's start take zero factors.
    """
    table = real_if_exact(np.asarray(functionals, dtype=complex))
    shuffles = [w for w, mult in shuffle_words(word_a, word_b).items() for _ in range(mult)]
    words = [tuple(word_a), tuple(word_b)] + shuffles
    size = len(word_a) + len(word_b) + 1
    dim = table.shape[-1]
    factors = np.zeros((len(words), size - 1, dim), dtype=table.dtype)
    start = np.array([size - 1 - len(w) for w in words], dtype=int)
    for c, w in enumerate(words):
        factors[c, start[c]:] = table[list(w)]
    values = chain_values(np.zeros((len(words), size, dim)), factors, stack_paths([path], dim), start)[0]
    return complex(values[0]), complex(values[1]), complex(values[2:].sum())


def shuffle_identity_residual(functionals, word_a, word_b, path):
    """Defect of the shuffle identity on two index words.

    The product of two iterated integrals must equal the sum over all
    shuffles; words index into the shared functional list. Both factors
    and the shuffles are one batch of chains.
    """
    a, b, shuffled = _shuffle_terms(functionals, word_a, word_b, path)
    return abs(a * b - shuffled)
