"""Joint eigenbasis of a commuting semisimple family, as a test oracle.

The package reads the torus weight spaces off the semisimple adjoint's
weight blocks. This independent route clusters the eigenvalues of each
family member in turn and splits every block by the nullspace at each
cluster mean, so the tests can check the package's weight spaces and
generators against it.
"""

import numpy as np

from solvhull.linalg import canon_columns, cluster_scalars, nullspace, rounded_key


class EigenClusterAmbiguity(Exception):
    """A cluster's eigenspace has another dimension than the cluster has eigenvalues.

    The family is then defective or two clusters are too close to
    separate at the clustering width.
    """

    def __init__(self, gap, tolerance):
        self.gap = gap
        self.tolerance = tolerance
        super().__init__(
            f"eigenvalue clusters separated by {gap:.3e} with tolerance {tolerance:.3e}"
        )


def joint_eigenbasis(mats, cluster_scale=1e-7, tol=1e-8, norms=None):
    """Simultaneous eigenbasis of a commuting semisimple family.

    Returns (basis, chars, residual) where basis columns are joint
    eigenvectors, chars[k] is the tuple of eigenvalues of column k under
    each family member, and residual measures how far the family is from
    acting diagonally in that basis. Columns with one character form a
    run, in its canonical basis; runs come in rounded_key order.

    The family must be diagonalizable: eigenvalue noise is then near
    machine epsilon rather than a fractional power of it, so the
    clustering width is the plain tolerance scaled by the matrix norm.
    norms, the spectral norm of each matrix, are computed here when not
    given.
    """
    mats = [np.asarray(m).astype(complex) for m in mats]
    if not mats:
        raise ValueError("joint_eigenbasis needs at least one matrix")
    if norms is None:
        norms = [float(np.linalg.norm(m, 2)) for m in mats]
    n = mats[0].shape[0]
    blocks = [np.eye(n, dtype=complex)]
    charlists = [[]]
    for m, norm in zip(mats, norms):
        width = cluster_scale * max(1.0, norm)
        new_blocks = []
        new_chars = []
        for b, chars in zip(blocks, charlists):
            mb = b.conj().T @ m @ b
            if norm == 0.0:
                new_blocks.append(b)
                new_chars.append(chars + [0.0 + 0.0j])
                continue
            _, means, counts, gap = cluster_scalars(np.linalg.eigvals(mb), width)
            for ci, mean in enumerate(means):
                eig = nullspace(mb - mean * np.eye(mb.shape[0]), max(tol, width))
                if eig.shape[1] != counts[ci]:
                    raise EigenClusterAmbiguity(gap, width)
                new_blocks.append(b @ eig)
                new_chars.append(chars + [mean])
        blocks = new_blocks
        charlists = new_chars

    order = sorted(range(len(blocks)), key=lambda k: rounded_key(charlists[k]))
    cols = []
    chars = []
    for k in order:
        b = canon_columns(blocks[k])
        cols.extend(b.T)
        chars.extend([tuple(charlists[k])] * b.shape[1])
    basis = np.stack(cols, axis=1)

    resid = 0.0
    for mi, (m, norm) in enumerate(zip(mats, norms)):
        lam = np.array([c[mi] for c in chars])
        err = m @ basis - basis * lam[np.newaxis, :]
        resid = max(resid, float(np.max(np.abs(err))) / max(1.0, norm))
    return basis, chars, resid
