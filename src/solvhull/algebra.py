"""Finite dimensional Lie algebras given by structure constants.

The table convention is [e_i, e_j] = sum_k structure[i, j, k] e_k. Real
and complex coefficient fields are both supported; the dtype of the
structure table decides which one is in play.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    AntisymmetryViolation,
    CartanNotFound,
    JacobiViolation,
    NotNilpotent,
    NotSolvable,
    SolvHullError,
)
from .tolerances import DEFAULT

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LieAlgebra:
    """Validated Lie algebra with a fixed ordered basis."""

    structure: np.ndarray = field(repr=False)
    names: tuple

    @property
    def dim(self):
        return self.structure.shape[0]

    @property
    def is_complex(self):
        return np.iscomplexobj(self.structure)

    def adjoint(self, x):
        """Matrix of ad_x acting on coordinate vectors."""
        x = np.asarray(x)
        return np.einsum("i,ijk->kj", x, self.structure)

    def brackets(self, x, y):
        """Brackets of two column families: out[:, a, b] = [x[:, a], y[:, b]].

        Two matrix products: x contracts the table's first index, giving
        t[a, j, k], and each slice t[:, :, k] then multiplies y.
        """
        x = np.asarray(x)
        n = self.dim
        t = (x.T @ self.structure.reshape(n, n * n)).reshape(x.shape[1], n, n)
        return t.transpose(2, 0, 1) @ np.asarray(y)

    def adjoint_basis(self):
        """List of ad matrices of the basis vectors."""
        return [np.einsum("jk->kj", self.structure[i]) for i in range(self.dim)]

    def basis_vector(self, i):
        v = np.zeros(self.dim, dtype=self.structure.dtype)
        v[i] = 1.0
        return v


def _jacobi_residual(c):
    """Component m of [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]] as out[i, j, k, m].

    The three terms are index permutations of one matrix product,
    p[a, b, d, m] = sum_l c[a, b, l] c[d, l, m], the m component of
    [e_d, [e_a, e_b]].
    """
    n = c.shape[0]
    p = (c.reshape(n * n, n) @ c.transpose(1, 0, 2).reshape(n, n * n)).reshape(n, n, n, n)
    return p.transpose(2, 0, 1, 3) + p.transpose(1, 2, 0, 3) + p


def _scaled_jacobi(c):
    """Jacobi residual of c over max(1, largest entry), and its largest entry.

    Dividing first keeps the quadratic residual finite for a large table.
    """
    scale = max(1.0, float(np.max(np.abs(c)))) if c.size else 1.0
    resid = _jacobi_residual(c / scale)
    return resid, float(np.max(np.abs(resid))) if c.size else 0.0


def validate_algebra(structure, names=None, tolerances=DEFAULT):
    """Build a LieAlgebra after checking the table is one.

    Antisymmetry is required exactly at the table level. The Jacobi
    identity is checked to the algebraic tolerance on the table divided
    by its largest entry (or by 1 when that is smaller), and a violation
    reports that relative residual. Solvability is certified by running
    the derived series to zero.
    """
    c = np.asarray(structure)
    if not np.iscomplexobj(c):
        c = np.ascontiguousarray(c, dtype=float)
    if c.ndim != 3 or len(set(c.shape)) != 1:
        raise AntisymmetryViolation(
            None, f"structure table must be cubic, got shape {c.shape}"
        )
    n = c.shape[0]

    skew = c + np.swapaxes(c, 0, 1)
    if np.any(skew != 0):
        bad = np.argwhere(skew != 0)[0]
        raise AntisymmetryViolation(tuple(int(v) for v in bad))

    resid, worst = _scaled_jacobi(c)
    if worst > tolerances.alg:
        flat = np.max(np.abs(resid), axis=3)
        i, j, k = np.unravel_index(int(np.argmax(flat)), flat.shape)
        raise JacobiViolation((int(i), int(j), int(k)), worst, resid[i, j, k])

    if names is None:
        names = tuple(f"e{i}" for i in range(n))
    else:
        names = tuple(str(s) for s in names)
        if len(names) != n:
            raise AntisymmetryViolation(
                None, f"{len(names)} names for dimension {n}"
            )

    cc = c.copy()
    cc.flags.writeable = False
    alg = LieAlgebra(structure=cc, names=names)
    derived_series(alg, tolerances)
    return alg


def _pairwise_bracket_span(alg, left, right, tol):
    """Span of brackets between two column families, orthonormalized."""
    mat = alg.brackets(left, right).reshape(alg.dim, -1)
    return linalg.orthonormal_columns(mat, tol)


def _bracket_series(alg, tolerances, with_whole, error, name):
    """Orthonormal bases from the whole algebra down to the zero space.

    Each level is the span of the brackets of the previous level with the
    whole algebra (with_whole) or with itself. Raises error, its message
    naming the series, when a level above zero does not shrink.
    """
    tol = tolerances.alg
    dtype = complex if alg.is_complex else float
    full = np.eye(alg.dim, dtype=dtype)
    series = [full]
    while series[-1].shape[1] > 0:
        current = series[-1]
        nxt = _pairwise_bracket_span(alg, full if with_whole else current, current, tol)
        if nxt.shape[1] >= current.shape[1]:
            raise error(f"{name} stalls at dimension {current.shape[1]}")
        series.append(nxt)
    return series


def derived_series(alg, tolerances=DEFAULT):
    """Derived series as orthonormal bases, ending at the zero space.

    Raises NotSolvable when the series stops shrinking above zero.
    """
    return _bracket_series(alg, tolerances, False, NotSolvable, "derived series")


def lower_central_series(alg, tolerances=DEFAULT):
    """Lower central series bases; raises NotNilpotent if it stalls."""
    return _bracket_series(alg, tolerances, True, NotNilpotent, "lower central series")


def _field_kernel(mat, is_complex, tol):
    if is_complex:
        return linalg.nullspace(mat, tol)
    return linalg.real_nullspace(mat, tol)


def _canon_basis(v, is_complex, tolerances, stage):
    """Canonical basis of span(v); over the reals its imaginary residue is checked."""
    q = linalg.canon_columns(np.asarray(v, dtype=complex), tolerances.alg)
    if is_complex:
        return q
    imag = float(np.max(np.abs(q.imag))) if q.size else 0.0
    tolerances.check(stage, {"imaginary_part": imag}, tolerances.num)
    return np.ascontiguousarray(q.real)


@dataclass(frozen=True)
class NilradicalResult:
    """Maximal nilpotent ideal and the trace-form residual that certifies it."""

    basis: np.ndarray
    trace_residual: float

    @property
    def dim(self):
        return self.basis.shape[1]


def _associative_span(mats, tol):
    """Orthonormal basis of the unital associative algebra generated by mats.

    Columns are flattened n x n matrices. Generators are scaled to unit
    norm, which leaves the algebra unchanged. Each round multiplies only
    the directions found in the previous round by the generators, all
    pairs in one stacked product, so every word is formed once, and the
    span grows until a round adds nothing.

    Only new directions are factored. After projecting the round's k
    products P (m x k) off the basis, the span is complete when
    ||P||_F <= tol: orthonormal_columns would find rank 0, as its cutoff
    is at least tol. Otherwise columns of norm at most
    max(m, k) eps max_j ||p_j|| / sqrt(k) are dropped before the SVD.
    Together they have Frobenius norm at most max(m, k) eps s0, the SVD's
    own rounding floor (s0, the largest singular value, is at least
    every column norm), so by Weyl's inequality dropping them moves no
    singular value by more than that floor.
    """
    n = mats[0].shape[0]
    gens = np.array([m / np.linalg.norm(m) for m in mats if np.any(m)])
    start = [np.eye(n, dtype=mats[0].dtype).ravel()] + [g.ravel() for g in gens]
    basis = linalg.orthonormal_columns(np.stack(start, axis=1), tol)
    frontier = basis
    while frontier.shape[1] and len(gens):
        words = frontier.T.reshape(-1, n, n)
        prods = (gens[:, None] @ words[None]).reshape(-1, n * n).T
        for _ in range(2):
            prods = prods - basis @ (basis.conj().T @ prods)
        norms = np.linalg.norm(prods, axis=0)
        if np.linalg.norm(norms) <= tol:
            break
        floor = max(prods.shape) * _EPS * norms.max() / np.sqrt(len(norms))
        frontier = linalg.orthonormal_columns(prods[:, norms > floor], tol)
        basis = np.hstack([basis, frontier])
    return basis


def nilradical(alg, tolerances=DEFAULT):
    """Nilradical of a solvable algebra via Dickson's trace criterion.

    Let A be the unital associative algebra generated by the adjoint
    family. An element x has nilpotent adjoint exactly when
    Tr(ad_x b) = 0 for every b in A: taking b = ad_x^k makes every power
    sum of the eigenvalues of ad_x vanish, and by Lie's theorem a
    nilpotent ad_x times any b in A is strictly triangular in a common
    flag. The kernel of x -> (Tr(ad_x b))_b over the coefficient field is
    therefore the set of ad-nilpotent elements, which for a solvable
    algebra is the nilradical (de Graaf, Lie Algebras: Theory and
    Algorithms, 2000). Only spans and kernels are computed, with no
    eigenvectors, so the result does not depend on eigenvalue ordering.

    trace_residual is the largest |Tr(ad_x b)| over the kernel basis and
    the orthonormal basis of A, relative to max(1, ||trace matrix||) as
    the kernel cutoff is. The basis is checked to be ad-nilpotent
    element by element and to be an ideal, each to tolerances.num.
    """
    tol = tolerances.alg
    n = alg.dim
    mats = alg.adjoint_basis()
    if n == 0:
        empty = np.eye(0, dtype=alg.structure.dtype)
        return NilradicalResult(basis=empty, trace_residual=0.0)
    span = _associative_span(mats, tol)
    # traces[b, i] = Tr(ad_{e_i} B_b) = sum of ad_i * B_b^T entrywise.
    transposed = np.stack([m.T.ravel() for m in mats], axis=1)
    traces = span.T @ transposed
    kernel = _field_kernel(traces, alg.is_complex, tol)
    basis = _canon_basis(kernel, alg.is_complex, tolerances, "nilradical")
    scale = max(1.0, float(np.linalg.norm(traces, 2)))
    trace_resid = (
        float(np.max(np.abs(traces @ basis))) / scale if basis.shape[1] else 0.0
    )

    adjoints = np.array([alg.adjoint(basis[:, j]) for j in range(basis.shape[1])]).reshape(-1, n, n)
    residuals = linalg.nilpotency_residuals(adjoints, tolerances.num)
    checks = {f"nilpotency[{j}]": float(v) for j, v in enumerate(residuals)}
    if basis.shape[1]:
        ideal = alg.brackets(np.eye(n, dtype=alg.structure.dtype), basis)
        checks["ideal"] = linalg.subspace_residual(ideal.reshape(n, -1), basis)
    tolerances.check("nilradical", checks, tolerances.num)

    return NilradicalResult(basis=basis, trace_residual=trace_resid)


def restricted_structure(alg, q):
    """Structure constants of a subalgebra in the basis q.

    Returns (table, residual) where residual measures how far the
    brackets fall outside span(q): the largest norm of a bracket's
    component orthogonal to the orthonormal columns of q.
    """
    m = q.shape[1]
    v = alg.brackets(q, q).reshape(alg.dim, m * m)
    coords = q.conj().T @ v
    worst = float(np.max(np.linalg.norm(v - q @ coords, axis=0), initial=0.0))
    table = np.moveaxis(coords.reshape(m, m, m), 0, -1)
    return (table - np.swapaxes(table, 0, 1)) / 2.0, worst


def _fitting_null(adx, cluster_scale):
    """Invariant subspace for the eigenvalue cluster at zero."""
    means, _, _ = linalg.eigen_clusters(adx, cluster_scale)
    if means is None:
        return np.eye(adx.shape[0], dtype=complex), adx.shape[0]
    zeros = [ci for ci, m in enumerate(means) if m == 0]
    if not zeros:
        return None, 0
    return linalg.cluster_subspace(adx, means, zeros[-1])


def _cartan_candidates(alg):
    """Deterministic stream of elements to test for regularity."""
    n = alg.dim
    dtype = complex if alg.is_complex else float
    for i in range(n):
        yield alg.basis_vector(i)
    for i in range(n):
        for j in range(i + 1, n):
            v = np.zeros(n, dtype=dtype)
            v[i] = 1.0
            v[j] = 1.0
            yield v
    rng = np.random.default_rng(8128)
    for _ in range(20):
        v = rng.standard_normal(n)
        if alg.is_complex:
            v = v + 1j * rng.standard_normal(n)
        yield v / np.linalg.norm(v)


def _try_cartan(alg, x, tolerances):
    """Fitting-null subalgebra of ad_x and None, or None and why it is not a Cartan."""
    adx = alg.adjoint(x).astype(complex)
    q, dim = _fitting_null(adx, tolerances.cluster_scale)
    if q is None or dim == 0:
        return None, "no zero eigenvalue cluster"
    if not alg.is_complex:
        if not linalg.is_real_subspace(q, tolerances.num):
            return None, "not closed under conjugation"
        q = linalg.realify_columns(q, tolerances.num)

    # The checks run on the orthonormal basis q; only an accepted
    # candidate is put in canonical form. Subalgebra check, then
    # nilpotency of the restricted algebra.
    table, resid = restricted_structure(alg, q)
    if resid > tolerances.num:
        return None, "not a subalgebra"
    sub = LieAlgebra(structure=table, names=tuple(f"h{i}" for i in range(q.shape[1])))
    try:
        lower_central_series(sub, tolerances)
    except NotNilpotent:
        return None, "not nilpotent"

    # Self-normalizing check: nothing outside q brackets into span(q).
    # Row block b is x -> [x, q_b] followed by the projection off span(q).
    n = alg.dim
    ad_q = np.moveaxis(alg.brackets(np.eye(n), q), -1, 0)
    rows = (np.eye(n) - q @ q.conj().T) @ ad_q
    normalizer = _field_kernel(rows.reshape(-1, n), alg.is_complex, tolerances.num)
    if normalizer.shape[1] != q.shape[1]:
        return None, "not self-normalizing"
    return _canon_basis(q, alg.is_complex, tolerances, "semisimple_adjoint"), None


def _weight_blocks(alg, cartan, cluster_scale):
    """Common generalized weight decomposition for the Cartan action.

    Returns (blocks, weights) with one weight tuple per block, one entry
    per Cartan basis vector. Blocks are complex column bases.
    """
    n = alg.dim
    blocks = [np.eye(n, dtype=complex)]
    weights = [()]
    for a in range(cartan.shape[1]):
        m = alg.adjoint(cartan[:, a]).astype(complex)
        new_blocks = []
        new_weights = []
        for b, w in zip(blocks, weights):
            mb = b.conj().T @ m @ b
            means, counts, _ = linalg.eigen_clusters(mb, cluster_scale)
            if means is None:
                new_blocks.append(b)
                new_weights.append(w + (0.0 + 0.0j,))
                continue
            for ci, mean in enumerate(means):
                qc, sdim = linalg.cluster_subspace(mb, means, ci)
                if sdim != counts[ci]:
                    raise SolvHullError(
                        "weight space extraction disagreed with eigenvalue clustering"
                    )
                new_blocks.append(b @ qc)
                new_weights.append(w + (mean,))
        blocks = new_blocks
        weights = new_weights

    order = sorted(range(len(blocks)), key=lambda k: linalg.rounded_key(weights[k]))
    return [blocks[k] for k in order], [weights[k] for k in order]


@dataclass(frozen=True)
class SemisimpleAdjoint:
    """Linear map sending x to the semisimple part of ad_x.

    tensor[i] is the image of the i-th basis vector; apply() extends by
    linearity. The map vanishes exactly on the nilradical, its image is
    a commuting family of semisimple derivations, and it kills brackets,
    making it a homomorphism onto an abelian algebra. weight_blocks are
    the generalized weight spaces of the Cartan action, complex column
    bases in weight order; every image of the map acts on each as a
    scalar, so they are the joint eigenspaces of the image.
    """

    tensor: np.ndarray = field(repr=False)
    cartan: np.ndarray = field(repr=False)
    weight_blocks: tuple = field(repr=False)
    condition: float
    residuals: dict

    def apply(self, x):
        return np.einsum("i,iab->ab", np.asarray(x), self.tensor)


def semisimple_adjoint(alg, nilrad=None, tolerances=DEFAULT):
    """Construct the semisimple part of the adjoint representation.

    Works relative to a Cartan subalgebra: the generalized weight space
    decomposition for the Cartan action turns the semisimple part of
    each ad into a weight-scaled projection sum, which is linear in the
    element by construction.

    The Cartan subalgebra is the Fitting-null subalgebra of the first
    candidate, in a fixed order, that passes _try_cartan and spans g
    together with the nilradical, so the result is deterministic. No
    later candidate can give a smaller one: over C all Cartan
    subalgebras of a solvable Lie algebra are conjugate (Humphreys,
    Introduction to Lie Algebras and Representation Theory, 16.2), so
    they share one dimension, the rank, and a real subalgebra is Cartan
    exactly when its complexification is. If every candidate fails,
    CartanNotFound counts them by the reason each was rejected.
    """
    if nilrad is None:
        nilrad = nilradical(alg, tolerances)
    n = alg.dim
    nil_basis = nilrad.basis

    rejected = Counter()
    for cand in _cartan_candidates(alg):
        cartan, reason = _try_cartan(alg, cand, tolerances)
        if cartan is not None:
            combined = np.hstack([cartan.astype(complex), nil_basis.astype(complex)])
            if linalg.orthonormal_columns(combined, tolerances.alg).shape[1] == n:
                break
            reason = "does not span g with the nilradical"
        rejected[reason] += 1
    else:
        raise CartanNotFound("semisimple_adjoint", rejected)

    blocks, weights = _weight_blocks(alg, cartan, tolerances.cluster_scale)
    p = np.hstack(blocks)
    cond = float(np.linalg.cond(p))
    pinv = np.linalg.inv(p)

    # Cartan components of the basis vectors, minimum norm when the
    # Cartan overlaps the nilradical.
    frame = np.hstack([cartan.astype(complex), nil_basis.astype(complex)])
    coeffs, *_ = np.linalg.lstsq(frame, np.eye(n, dtype=complex), rcond=None)
    h_coords = coeffs[: cartan.shape[1], :]

    block_sizes = [b.shape[1] for b in blocks]
    tensor = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        lam_cols = []
        for w, size in zip(weights, block_sizes):
            lam = sum(h_coords[a, i] * w[a] for a in range(cartan.shape[1]))
            lam_cols.extend([lam] * size)
        tensor[i] = p @ np.diag(np.array(lam_cols)) @ pinv

    if not alg.is_complex:
        imag = float(np.max(np.abs(tensor.imag)))
        scale = max(1.0, float(np.max(np.abs(tensor))))
        tolerances.check(
            "semisimple_adjoint", {"imaginary_part": imag}, tolerances.num * scale
        )
        tensor = np.ascontiguousarray(tensor.real)

    residuals = _semisimple_residuals(alg, tensor, nil_basis, tolerances)
    tolerances.check("semisimple_adjoint", residuals)

    return SemisimpleAdjoint(
        tensor=tensor,
        cartan=cartan,
        weight_blocks=tuple(blocks),
        condition=cond,
        residuals=residuals,
    )


def _derivation_residual(mats, c):
    """Largest entry of d[x, y] - [dx, y] - [x, dy] over matrices d and basis pairs.

    For the stack of matrices d, left[t, j, k] = d_t [e_j, e_k] is one
    matrix product with the table and q[t, j, k] = [d_t e_j, e_k]
    another. The table is antisymmetric entry for entry (validated
    tables and the shadow table are), so [e_j, d_t e_k] = -q[t, k, j]
    is an index permutation of the same product.
    """
    mats = np.asarray(mats)
    t, n = mats.shape[0], c.shape[0]
    left = c.reshape(n * n, n) @ mats.transpose(2, 0, 1).reshape(n, t * n)
    left = left.reshape(n, n, t, n).transpose(2, 0, 1, 3)
    q = (mats.transpose(0, 2, 1).reshape(t * n, n) @ c.reshape(n, n * n)).reshape(t, n, n, n)
    return float(np.max(np.abs(left - q + q.transpose(0, 2, 1, 3)), initial=0.0))


def _semisimple_residuals(alg, tensor, nil_basis, tolerances):
    n = alg.dim
    c = alg.structure
    scale = max(1.0, float(np.max(np.abs(tensor))))

    commute = linalg.bracket_residual(
        linalg.SparseStack.from_dense(tensor), np.zeros((n, n, n))
    )

    on_brackets = float(np.max(np.abs(np.einsum("ijk,kab->ijab", c, tensor)))) if n else 0.0

    derivation = _derivation_residual(tensor, c)

    flat = np.stack([tensor[i].ravel() for i in range(n)], axis=1)
    kernel = _field_kernel(flat, alg.is_complex, tolerances.num)
    k_in_n = linalg.subspace_residual(kernel, nil_basis.astype(complex)) if kernel.shape[1] else 0.0
    n_in_k = (
        linalg.subspace_residual(nil_basis.astype(complex), kernel)
        if nil_basis.shape[1]
        else 0.0
    )
    kernel_dim_gap = abs(kernel.shape[1] - nil_basis.shape[1])

    return {
        "commuting": commute / scale,
        "kills_brackets": on_brackets / scale,
        "derivation": derivation / scale,
        "kernel_in_nilradical": float(k_in_n) + kernel_dim_gap,
        "nilradical_in_kernel": float(n_in_k),
    }
