"""Linear algebra kernels shared across the package.

Most kernels here work on small dense matrices (dimension a few dozen at
most), so they favor clarity and reproducibility over asymptotics.
SparseStack and bracket_residual are the exception: they hold and check
stacks of matrices of size up to a few hundred that are almost all zero
(the enveloping module's action matrices are about 0.1 % nonzero), so
they touch only the nonzero entries and never form a dense stack.
eigen_clusters and cluster_subspace are the package's one eigenvalue
routine: every Fitting null space and weight space comes from them, and
the eigenvalues that eigen_clusters groups are the ones cluster_subspace
deflates with, computed once per matrix. cluster_subspace computes
ordered Schur subspaces itself, by adjacent swaps on triangular input
and by deflation with numpy's eigenvalues and SVD otherwise, so the
package needs no LAPACK beyond numpy's. Memo is the one least recently
used memo that every per-object cache of the package uses.
All randomness is excluded; ties are broken by lowest index so repeated runs
produce identical output.
"""

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

# numpy's LAPACK gufuncs, which np.linalg.solve, eigvals and svd wrap.
# Called directly they skip the wrappers' argument checks, which cost
# about as much as the factorization itself at the sizes here; the
# results are the same.
from numpy.linalg import _umath_linalg as lapack

_EPS = float(np.finfo(float).eps)

_MEMO_SIZE = 256
_MEMO_BYTES = 16 * 2**20


class Memo:
    """Least recently used values by key: at most _MEMO_SIZE of them, _MEMO_BYTES bytes together.

    Lattice words repeat a few generator loops, so segment exponentials,
    phi(t)'s, arcs, letters and chain plans come back again and again.
    memo(key, compute, *args) returns the value held for key, or else
    compute(*args), which it then holds; that is exact when the key holds
    every bit the computation reads and the value cannot change in place.
    A value counts its nbytes (arrays, chain plans) against the byte
    bound, other values nothing. Eviction runs oldest first, so a value
    over the bound empties the memo; it, and None, are computed on every
    call. The bounds are read when a memo is made; a copied or pickled
    memo starts empty. compute runs under the lock and must not ask the
    same memo. It is not kept, so a memo held by the object it computes
    from forms no reference cycle.
    """

    def __init__(self):
        self._held = OrderedDict()
        self._lock = threading.Lock()
        self.maxsize = _MEMO_SIZE
        self.maxbytes = _MEMO_BYTES
        self.nbytes = 0
        self.misses = 0

    def __len__(self):
        return len(self._held)

    def __reduce__(self):
        return Memo, ()

    def __call__(self, key, compute, *args):
        held = self._held
        with self._lock:
            value = held.get(key)
            if value is not None:
                held.move_to_end(key)
                return value
            self.misses += 1
            value = held[key] = compute(*args)
            self.nbytes += getattr(value, "nbytes", 0)
            while held and (len(held) > self.maxsize or self.nbytes > self.maxbytes):
                self.nbytes -= getattr(held.popitem(last=False)[1], "nbytes", 0)
            return value


def frozen_array(x, dtype):
    """Read-only copy of x as an array of the given dtype."""
    out = np.array(x, dtype=dtype)
    out.flags.writeable = False
    return out


def real_if_exact(*arrays):
    """Contiguous real parts of the arrays if every imaginary part is exactly zero, else the arrays; one in, one out."""
    if not any(a.imag.any() for a in arrays):
        arrays = tuple(np.ascontiguousarray(a.real) for a in arrays)
    return arrays[0] if len(arrays) == 1 else arrays


def snap_to_zero(z, threshold):
    """The complex number z with real and imaginary parts below threshold set to zero."""
    return complex(
        0.0 if abs(z.real) < threshold else z.real,
        0.0 if abs(z.imag) < threshold else z.imag,
    )


@functools.lru_cache(maxsize=None)
def strict_triangles(n):
    """Flat indices of the strictly lower and upper triangles of n by n matrices.

    The arrays are shared by every call, so they are read only.
    """
    out = tuple(
        np.ravel_multi_index(ix, (n, n)) for ix in (np.tril_indices(n, -1), np.triu_indices(n, 1))
    )
    for x in out:
        x.setflags(write=False)
    return out


def _as_matrix(a):
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return a


def nullspace(a, tol=1e-12):
    """Orthonormal basis for the kernel of a, as columns.

    The rank cutoff is the larger of tol and the usual eps-relative
    threshold, both scaled by the leading singular value.
    """
    a = _as_matrix(a)
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(a)
    if s.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    cutoff = max(tol * max(1.0, s[0]), s[0] * max(a.shape) * _EPS)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def real_nullspace(a, tol=1e-12):
    """Kernel of a complex matrix viewed as a map on real vectors.

    Stacks real and imaginary parts so the returned basis is real even
    when a has complex entries.
    """
    a = _as_matrix(a)
    stacked = np.vstack([a.real, a.imag])
    ker = nullspace(stacked, tol)
    return np.ascontiguousarray(ker.real)


def orthonormal_columns(v, tol=1e-12):
    """Orthonormal basis (as columns) for the column span of v."""
    v = _as_matrix(v)
    if v.shape[1] == 0:
        return v.copy()
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    if s.size == 0:
        return v[:, :0]
    cutoff = max(tol * max(1.0, s[0]), s[0] * max(v.shape) * _EPS)
    rank = int(np.sum(s > cutoff))
    return u[:, :rank]


def subspace_residuals(vectors, basis):
    """Relative distance from each column of vectors to span(basis), one per column.

    The distance is the projection residual over max(1, the column's
    norm); basis is orthonormalized once for all columns.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if vectors.shape[0] == 1 and basis.shape[0] != 1:
        vectors = vectors.T
    if vectors.shape[1] == 0:
        return np.zeros(0)
    q = orthonormal_columns(basis) if basis.shape[1] else basis
    if q.shape[1] == 0:
        norms = np.linalg.norm(vectors, axis=0)
        return norms / np.maximum(1.0, norms)
    proj = q @ (q.conj().T @ vectors)
    resid = np.linalg.norm(vectors - proj, axis=0)
    scale = np.maximum(1.0, np.linalg.norm(vectors, axis=0))
    return resid / scale


def subspace_residual(vectors, basis):
    """Worst relative distance from a column of vectors to span(basis).

    A value below the working tolerance certifies containment.
    """
    return float(np.max(subspace_residuals(vectors, basis), initial=0.0))


def canon_columns(v, tol=1e-12):
    """Deterministic orthonormal basis of span(v).

    The result depends only on the subspace, not on the incoming basis:
    it is rebuilt from the orthogonal projector by greedy column pivoting
    followed by QR with a positive-diagonal convention. Pivot norms
    within tol of the largest count as tied and the lowest index wins, so
    a subspace spanned by coordinate vectors, whose projector's column
    norms tie exactly, gets the same basis whatever the rounding in v.
    """
    q = orthonormal_columns(_as_matrix(v).astype(complex), tol)
    r = q.shape[1]
    if r == 0:
        return q
    proj = q @ q.conj().T
    work = proj.copy()
    picked = []
    for _ in range(r):
        norms = np.linalg.norm(work, axis=0)
        j = int(np.argmax(norms >= norms.max() - tol))
        picked.append(j)
        ucol = work[:, j] / max(np.linalg.norm(work[:, j]), _EPS)
        work = work - np.outer(ucol, ucol.conj() @ work)
        work[:, j] = 0.0
    b = proj[:, picked]
    q2, r2 = np.linalg.qr(b)
    d = np.diag(r2).copy()
    d[np.abs(d) < _EPS] = 1.0
    phases = d / np.abs(d)
    return q2 * phases.conj()


def is_real_subspace(q, tol=1e-10):
    """True when span(q) is closed under complex conjugation."""
    return subspace_residual(np.conj(q), q) <= tol


def realify_columns(q, tol=1e-10):
    """Real orthonormal basis of a conjugation-closed complex span."""
    stacked = np.hstack([q.real, q.imag])
    basis = orthonormal_columns(stacked, tol)
    return np.ascontiguousarray(basis.real)


def cluster_scalars(values, width):
    """Group scalars by transitive closeness within width.

    Returns (labels, means, counts, gap) where gap is the smallest
    distance between distinct cluster means (inf for a single cluster).
    Cluster indices are ordered by mean, lexicographically on
    (real, imag), so the output is reproducible.
    """
    vals = np.asarray(values, dtype=complex).ravel()
    n = vals.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) <= width:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    roots = {}
    for i in range(n):
        roots.setdefault(find(i), []).append(i)
    groups = list(roots.values())
    means = [complex(np.mean(vals[idx])) for idx in groups]
    order = sorted(range(len(groups)), key=lambda k: (means[k].real, means[k].imag))
    groups = [groups[k] for k in order]
    means = [means[k] for k in order]
    counts = [len(g) for g in groups]
    labels = np.empty(n, dtype=int)
    for ci, idx in enumerate(groups):
        labels[idx] = ci
    if len(means) < 2:
        gap = float("inf")
    else:
        gap = min(
            abs(means[i] - means[j])
            for i in range(len(means))
            for j in range(i + 1, len(means))
        )
    return labels, means, counts, gap


class ClusterMeans(list):
    """Cluster means, as eigen_clusters returns them, with the eigenvalues they group.

    It is a list of the means; eigenvalues is the spectrum they were
    taken from, so cluster_subspace does not compute it again.
    """

    def __init__(self, means, eigenvalues):
        super().__init__(means)
        self.eigenvalues = eigenvalues


def eigen_clusters(a, cluster_scale):
    """Eigenvalue clusters of a square matrix, means snapped to zero.

    Eigenvalues are grouped by cluster_scalars within the width
    max(cluster_scale * max(1, ||a||), 4 ||a|| eps**(1/n)). The second
    term is a floor that grows with the dimension n: an eigenvalue of a
    k x k Jordan block moves like eps**(1/k) under rounding, and without
    the floor nilpotent blocks would shatter into spurious clusters.
    Returns (means, counts, gap) in cluster_scalars order, with a mean's
    real or imaginary part set to zero when it is below
    cluster_scale * max(1, ||a||); means is a ClusterMeans holding a's
    eigenvalues. The zero matrix is marked by means = None, so the
    caller keeps its own basis for it rather than a Schur basis.
    """
    a = _as_matrix(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    norm = float(np.linalg.norm(a, 2))
    if norm == 0.0:
        return None, [n], float("inf")
    width = max(cluster_scale * max(1.0, norm), 4.0 * norm * _EPS ** (1.0 / n))
    values = np.linalg.eigvals(a)
    _, means, counts, gap = cluster_scalars(values, width)
    snap = cluster_scale * max(1.0, norm)
    return ClusterMeans([snap_to_zero(m, snap) for m in means], values), counts, gap


def cluster_subspace(a, means, idx):
    """Orthonormal basis of the invariant subspace of cluster idx.

    An eigenvalue belongs to the cluster whose mean is nearest, the
    lowest index winning ties. The basis is the leading columns of an
    ordered Schur decomposition, so no matrix powers are formed and
    clustered or defective eigenvalues stay well conditioned. A diagonal
    input gives coordinate vectors. Any other triangular input is its
    own Schur form and is only reordered, exactly where the entries it
    moves past are zero (_reorder_triangular); a general input is
    deflated one eigenvalue at a time (_deflate), starting from the
    eigenvalues that means holds when it is a ClusterMeans of a. Returns
    (basis, dimension).
    """
    a = _as_matrix(a).astype(complex)
    values = means.eigenvalues if isinstance(means, ClusterMeans) else None
    means = np.asarray(means, dtype=complex)

    def selected(values):
        return np.argmin(np.abs(values[:, None] - means), axis=1) == idx

    lower_at, upper_at = strict_triangles(a.shape[0])
    lower, upper = np.count_nonzero(a.take(lower_at)), np.count_nonzero(a.take(upper_at))
    if not (lower or upper):
        picked = np.flatnonzero(selected(a.diagonal()))
        return np.eye(a.shape[0], dtype=complex)[:, picked], picked.size
    if not lower:
        return _reorder_triangular(a, selected)
    if not upper:
        # Reversing the basis order makes a lower triangular input upper.
        q, sdim = _reorder_triangular(a[::-1, ::-1], selected)
        return q[::-1], sdim
    return _deflate(a, selected, values)


def _reorder_triangular(t, selected):
    """Leading Schur vectors of upper triangular t for the selected entries.

    As LAPACK's trsen does, each selected diagonal entry in turn moves up
    past the unselected ones by adjacent swaps. Neighbours with a zero
    entry between them are decoupled and swap by an exact permutation;
    others by the Givens rotation of LAPACK's trexc, which keeps the
    matrix upper triangular with the two diagonal entries exchanged.
    """
    t = t.copy()
    n = t.shape[0]
    q = np.eye(n, dtype=complex)
    sdim = 0
    for k in np.flatnonzero(selected(t.diagonal())):
        for j in range(k - 1, sdim - 1, -1):
            pair = [j, j + 1]
            f, g = t[j, j + 1], t[j + 1, j + 1] - t[j, j]
            if f == 0.0:
                t[pair, j + 2:] = t[pair[::-1], j + 2:]
                t[:j, pair] = t[:j, pair[::-1]]
                q[:, pair] = q[:, pair[::-1]]
            else:
                # [c s; -conj(s) c] takes (f, g) to (r, 0): LAPACK's lartg.
                r = np.hypot(abs(f), abs(g))
                c, s = abs(f) / r, f / abs(f) * np.conj(g) / r
                rot = np.array([[c, -s], [np.conj(s), c]])
                t[pair, j + 2:] = rot.conj().T @ t[pair, j + 2:]
                t[:j, pair] = t[:j, pair] @ rot
                q[:, pair] = q[:, pair] @ rot
            t[j, j], t[j + 1, j + 1] = t[j + 1, j + 1], t[j, j]
        sdim += 1
    return q[:, :sdim], sdim


def _deflate(a, selected, values):
    """Leading Schur vectors of a general a for the selected eigenvalues.

    values are a's eigenvalues, or None to compute them here. Each step
    takes the first selected eigenvalue of the trailing block of the
    partly reduced matrix, its eigenvector as the last right
    singular vector of the block at that shift, and a Householder
    reflector h = h^H = h^-1 with h e_1 parallel to the eigenvector;
    h block h then has the eigenvalue in its corner and the next
    trailing block below it. Each eigenvector is scaled so that its
    largest entry is real and positive, which fixes its phase, and the
    last step just writes it. The steps stop when the trailing block has
    no selected eigenvalue left.
    """
    n = a.shape[0]
    if values is None:
        values = lapack.eigvals(a, signature="D->D")
    picked = selected(values)
    count = int(np.count_nonzero(picked))
    q = np.eye(n, dtype=complex)
    block = a
    for j in range(count):
        if j:
            values = lapack.eigvals(block, signature="D->D")
            picked = selected(values)
        hits = np.flatnonzero(picked)
        if hits.size == 0:
            return q[:, :j], j
        shifted = block - values[hits[0]] * np.eye(n - j)
        v = lapack.svd_f(shifted, signature="D->DdD")[2][-1].conj()
        big = v[np.argmax(np.abs(v))]
        v *= abs(big) / big
        if j == count - 1:
            q[:, j] = q[:, j:] @ v
            break
        w = v.copy()
        w[0] += v[0] / abs(v[0]) if v[0] != 0 else 1.0
        h = np.eye(n - j) - np.outer(w, w.conj()) * (2.0 / np.vdot(w, w).real)
        block = (h @ block @ h)[1:, 1:]
        q[:, j:] = q[:, j:] @ h
    return q[:, :count], count


def nilpotency_residuals(mats, tol=1e-9):
    """Largest entry of each norm-scaled matrix of a (k, n, n) stack raised to n.

    One batched spectral norm and one batched matrix power serve the
    stack. tol is a number or one per matrix; a matrix whose norm is at
    most its tol counts as zero and gets 0.
    """
    a = np.asarray(mats).astype(complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    out = np.zeros(a.shape[0])
    if not a.size:
        return out
    norms = np.linalg.norm(a, 2, axis=(1, 2))
    # Below the tolerance a matrix counts as zero; scaling pure rounding
    # residue up to unit norm would manufacture a fake non-nilpotent
    # direction.
    live = norms > tol
    power = np.linalg.matrix_power(a[live] / norms[live, None, None], a.shape[1])
    out[live] = np.max(np.abs(power), axis=(1, 2), initial=0.0)
    return out


def rounded_key(values):
    """Sort key of complex values: real and imaginary parts rounded to 9 places."""
    return tuple((round(z.real, 9), round(z.imag, 9)) for z in values)


@dataclass(frozen=True)
class SparseStack:
    """A stack of n square matrices of one size, kept as its nonzero entries.

    rows and cols list the positions where some matrix of the stack is
    nonzero, in row-major order without repeats; values[a, p] is matrix
    a's entry at position p. Every position has a nonzero value.
    """

    size: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def from_entries(cls, n, size, mat, row, col, vals):
        """Stack of n matrices holding vals[e] at (mat[e], row[e], col[e]).

        The entries' values must be nonzero and their indices distinct.
        """
        where, slot = np.unique(row * size + col, return_inverse=True)
        values = np.zeros((n, where.size), dtype=np.result_type(vals, float))
        values[mat, slot] = vals
        rows, cols = np.divmod(where, size)
        return cls(size, rows, cols, values)

    @classmethod
    def from_dense(cls, stack):
        """The nonzero entries of a dense (n, size, size) stack."""
        stack = np.asarray(stack)
        n, size = stack.shape[0], stack.shape[1]
        flat = stack.reshape(n, size * size)
        where = np.flatnonzero(np.any(flat != 0, axis=0))
        rows, cols = np.divmod(where, size)
        return cls(size, rows, cols, flat[:, where])

    @classmethod
    def from_values(cls, size, rows, cols, values):
        """Stack holding values[a, p] at (rows[p], cols[p]), positions distinct.

        Positions are put in row-major order and all-zero ones dropped.
        """
        order = np.argsort(rows * size + cols)
        keep = order[np.any(values[:, order] != 0, axis=0)]
        return cls(size, rows[keep], cols[keep], values[:, keep])

    @property
    def n(self):
        return self.values.shape[0]

    def entries(self):
        """(mat, row, col, vals) of every nonzero entry, in row-major order."""
        mat, at = np.nonzero(self.values)
        return mat, self.rows[at], self.cols[at], self.values[mat, at]

    def dense(self):
        out = np.zeros((self.n, self.size, self.size), dtype=self.values.dtype)
        out[:, self.rows, self.cols] = self.values
        return out

    def apply(self, coords):
        """The matrix sum_a coords[a] M_a, written out densely."""
        out = np.zeros((self.size, self.size), dtype=complex)
        out[self.rows, self.cols] = np.asarray(coords, dtype=complex) @ self.values
        return out

    def entry(self, row, col):
        """The (row, col) entry of every matrix of the stack."""
        at = np.flatnonzero((self.rows == row) & (self.cols == col))
        if at.size == 0:
            return np.zeros(self.n, dtype=self.values.dtype)
        return self.values[:, at[0]].copy()

    def strict_upper_support(self):
        """Boolean size by size mask of the strictly upper entries ever nonzero."""
        live = np.zeros((self.size, self.size), dtype=bool)
        upper = self.rows < self.cols
        live[self.rows[upper], self.cols[upper]] = True
        return live


def _match_sorted(keys, sorted_keys):
    """All index pairs (p, q) with keys[p] == sorted_keys[q].

    sorted_keys must be ascending. Pairs come out grouped by p, in
    ascending order of q within each group.
    """
    lo = np.searchsorted(sorted_keys, keys, "left")
    counts = np.searchsorted(sorted_keys, keys, "right") - lo
    p = np.repeat(np.arange(keys.size), counts)
    starts = np.cumsum(counts) - counts
    q = np.arange(p.size)
    q -= np.repeat(starts - lo, counts)
    return p, q


def _product_terms(n, r, mat, row, col, vals):
    """Keys (a, b, i, j) and values of the products in [M_a, M_b], a < b.

    The stack's entries are given as parallel arrays in row-major order;
    the left factor's column k meets the right factor's row k.
    """
    by_row = np.argsort(row, kind="stable")
    left, right = _match_sorted(col, row[by_row])
    right = by_row[right]
    cross = mat[left] != mat[right]
    left, right = left[cross], right[cross]
    # M_a M_b enters the pair (a, b) with a plus sign when a < b and the
    # pair (b, a) with a minus sign when a > b. Factors are multiplied
    # lower matrix first, so entries that commute cancel exactly.
    first = mat[left] < mat[right]
    lower, upper = np.where(first, left, right), np.where(first, right, left)
    keys = mat[lower] * n
    keys += mat[upper]
    keys *= r
    keys += row[left]
    keys *= r
    keys += col[right]
    terms = vals[lower]
    terms *= vals[upper]
    np.negative(terms, out=terms, where=~first)
    return keys, terms


def _table_terms(n, r, consts, mat, row, col, vals):
    """Keys (a, b, i, j) and values of -consts[a, b, m] M_m[i, j], a < b.

    mat must be ascending, as the row-major order of the stack gives.
    """
    ca, cb, cm = np.nonzero(consts)
    above = ca < cb
    ca, cb, cm = ca[above], cb[above], cm[above]
    term, entry = _match_sorted(cm, mat)
    keys = ((ca[term] * n + cb[term]) * r + row[entry]) * r + col[entry]
    terms = -consts[ca, cb, cm][term] * vals[entry]
    return keys, terms


def bracket_residual(stack, consts):
    """Largest entry of [M_a, M_b] - sum_m consts[a, b, m] M_m over a < b.

    stack is a SparseStack of n matrices of size r and consts an (n, n, n)
    table; the result is zero exactly when a -> M_a is a Lie homomorphism
    for the bracket the table defines. Only nonzero entries are used: each
    product M_a[i, k] M_b[k, j] is formed by joining the entries of the
    stack on k, the table's terms by joining its nonzeros with the stack
    on m, and all terms for one (a, b, i, j) are summed before the maximum
    is taken. Returns inf when any entry of either input is not finite.
    """
    n, r = stack.n, stack.size
    mat, row, col, vals = stack.entries()
    consts = np.asarray(consts)
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(consts))):
        return float("inf")

    # Each helper's temporaries are freed before the next step.
    prod_keys, prod_terms = _product_terms(n, r, mat, row, col, vals)
    table_keys, table_terms = _table_terms(n, r, consts, mat, row, col, vals)
    keys = np.concatenate([prod_keys, table_keys])
    terms = np.concatenate([prod_terms, table_terms])
    del prod_keys, prod_terms, table_keys, table_terms
    if keys.size == 0:
        return 0.0
    uniq, slot = np.unique(keys, return_inverse=True)
    sums = np.zeros(uniq.size, dtype=terms.dtype)
    np.add.at(sums, slot, terms)
    return float(np.max(np.abs(sums)))
