"""Numerical linear algebra layer.

The Jordan decomposition tests assemble the semisimple part from the
cluster means and cluster subspaces that eigen_clusters and
cluster_subspace return, and check both parts against a known
semisimple plus nilpotent pair, not just against each other.
"""

import numpy as np
import pytest

from solvhull.linalg import (
    canon_columns,
    cluster_scalars,
    cluster_subspace,
    eigen_clusters,
    nilpotency_residuals,
    nullspace,
    orthonormal_columns,
    real_nullspace,
    subspace_residual,
    subspace_residuals,
)

from conftest import is_nilpotent_matrix, nilpotency_residual
from eigen_oracle import EigenClusterAmbiguity, joint_eigenbasis


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------- kernels


def test_nullspace_of_rank_one_matrix():
    a = np.outer([1.0, 2.0], [3.0, 0.0, 4.0])
    k = nullspace(a)
    assert k.shape == (3, 2)
    assert np.max(np.abs(a @ k)) < 1e-12
    # columns are orthonormal
    assert np.allclose(k.conj().T @ k, np.eye(2), atol=1e-12)


def test_nullspace_of_invertible_matrix_is_empty():
    assert nullspace(np.array([[2.0, 1.0], [0.0, 3.0]])).shape == (2, 0)


def test_real_nullspace_returns_real_basis():
    # kernel of (x, y) -> x + i y over the reals is trivial
    a = np.array([[1.0, 1j]])
    assert real_nullspace(a).shape == (2, 0)
    # but the kernel of (x, y) -> x - y is the diagonal
    b = np.array([[1.0, -1.0]])
    k = real_nullspace(b)
    assert k.shape == (2, 1)
    assert k.dtype.kind == "f"
    assert np.isclose(abs(k[0, 0]), abs(k[1, 0]))


def test_orthonormal_columns_detects_rank():
    v = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [1.0, 2.0, 1.0]])
    q = orthonormal_columns(v)
    assert q.shape[1] == 2
    assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-12)


def test_subspace_residual_contained_and_orthogonal():
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    inside = np.array([[1.0], [2.0], [0.0]])
    outside = np.array([[0.0], [0.0], [3.0]])
    assert subspace_residual(inside, basis) < 1e-14
    assert subspace_residual(outside, basis) == pytest.approx(1.0)
    both = np.hstack([inside, outside])
    assert subspace_residuals(both, basis) == pytest.approx([0.0, 1.0], abs=1e-14)
    assert subspace_residual(both, basis) == subspace_residuals(both, basis).max()
    assert subspace_residuals(both, np.zeros((3, 0))) == pytest.approx([1.0, 1.0])


def test_canon_columns_is_basis_independent():
    rng = np.random.default_rng(11)
    q = random_unitary(rng, 5)[:, :3]
    # same subspace presented through a random invertible recombination
    mix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = canon_columns(q)
    b = canon_columns(q @ mix)
    assert np.max(np.abs(a - b)) < 1e-10


def test_coordinate_subspace_has_one_canonical_basis():
    """Exact pivot ties are broken by index, not by the incoming basis's rounding."""
    rng = np.random.default_rng(23)
    for trial in range(200):
        n = int(rng.integers(3, 7))
        idx = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        coords = np.eye(n, dtype=complex)[:, idx]
        a = canon_columns(coords)
        b = canon_columns(coords @ random_unitary(rng, idx.size))
        assert np.max(np.abs(a - b)) < 1e-10, (trial, n, idx)


# ---------------------------------------------------------------- clustering


def test_cluster_scalars_groups_and_orders():
    labels, means, counts, gap = cluster_scalars([5.0, 1.0, 1.0 + 1e-12], 1e-6)
    assert list(labels) == [1, 0, 0]
    assert counts == [2, 1]
    assert means[0] == pytest.approx(1.0)
    assert means[1] == pytest.approx(5.0)
    assert gap == pytest.approx(4.0)


def test_cluster_scalars_closeness_is_transitive():
    # chain 0 ~ 0.6 ~ 1.2 merges into a single cluster
    labels, means, counts, gap = cluster_scalars([0.0, 0.6, 1.2], 0.7)
    assert counts == [3]
    assert gap == float("inf")


def test_cluster_scalars_complex_ordering():
    _, means, _, _ = cluster_scalars([1j, -1j, 0.0], 1e-9)
    assert means == [-1j, 0.0 + 0.0j, 1j]


def test_cluster_subspace_splits_spectrum():
    rng = np.random.default_rng(3)
    p = random_unitary(rng, 4)
    a = p @ np.diag([1.0, 1.0, 3.0, 3.0]) @ p.conj().T
    q, sdim = cluster_subspace(a, [1.0, 3.0], 0)
    assert sdim == 2
    assert subspace_residual(a @ q, q) < 1e-10


def test_eigen_clusters_snaps_and_orders_complex_means():
    # a rotation block has eigenvalues +-i; rounding noise in the real
    # parts is snapped to zero and the means come out ordered
    a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    means, counts, gap = eigen_clusters(a, 1e-7)
    assert means == [-1j, 0.0 + 0.0j, 1j]
    assert counts == [1, 1, 1]
    assert gap == pytest.approx(1.0)


def test_eigen_clusters_reports_the_gap_between_close_clusters():
    # a gap of 3e-7 sits between the width and ten times the width, so a
    # caller can tell the two clusters apart only unreliably
    means, counts, gap = eigen_clusters(np.diag([1.0, 1.0 + 3e-7]), 1e-7)
    assert counts == [1, 1]
    assert gap == pytest.approx(3e-7, rel=1e-6)


def test_eigen_clusters_marks_only_the_zero_matrix():
    assert eigen_clusters(np.zeros((3, 3)), 1e-7) == (None, [3], float("inf"))
    # a tiny but nonzero matrix is one snapped cluster, not the zero mark
    means, counts, _ = eigen_clusters(1e-300 * np.eye(3), 1e-7)
    assert means == [0.0 + 0.0j]
    assert counts == [3]


def test_cluster_subspace_of_one_cluster_is_a_schur_basis():
    # one cluster still gets its Schur vectors, not the incoming basis
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 4)
    a = u @ (2.0 * np.eye(4) + np.diag([1.0, 1.0, 1.0], 1)) @ u.conj().T
    means, counts, _ = eigen_clusters(a, 1e-7)
    assert counts == [4]
    q, sdim = cluster_subspace(a, means, 0)
    assert sdim == 4
    assert np.max(np.abs(q.conj().T @ q - np.eye(4))) < 1e-12
    assert np.max(np.abs(np.tril(q.conj().T @ a @ q, -1))) < 1e-10
    assert np.max(np.abs(q - np.eye(4))) > 0.1


# ---------------------------------------------------------------- jordan


def jordan_parts(a, cluster_scale=1e-7):
    """Semisimple and nilpotent parts of a from its cluster subspaces.

    Returns (semisimple, nilpotent, means, counts).
    """
    a = np.asarray(a)
    means, counts, _ = eigen_clusters(a, cluster_scale)
    if means is None:
        return np.zeros_like(a), np.zeros_like(a), means, counts
    blocks = []
    for ci in range(len(means)):
        q, sdim = cluster_subspace(a, means, ci)
        assert sdim == counts[ci]
        blocks.append(q)
    p = np.hstack(blocks)
    s = p @ np.diag(np.repeat(means, counts)) @ np.linalg.inv(p)
    return s, a - s, means, counts


def test_jordan_decompose_diagonalizable_matrix():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((4, 4))
    d = np.diag([1.0, 2.0, 2.0, -3.0])
    a = p @ d @ np.linalg.inv(p)
    s, n, _, counts = jordan_parts(a)
    assert np.max(np.abs(n)) < 1e-8
    assert np.allclose(s, a, atol=1e-8)
    assert sorted(counts) == [1, 1, 2]


def test_jordan_decompose_single_defective_block():
    # one Jordan block with eigenvalue 2
    a = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    s, n, means, counts = jordan_parts(a)
    assert np.allclose(s, 2.0 * np.eye(3), atol=1e-7)
    assert np.allclose(n, a - 2.0 * np.eye(3), atol=1e-7)
    assert means == [2.0 + 0.0j]
    assert counts == [3]


@pytest.mark.parametrize("seed", range(6))
def test_jordan_decompose_against_constructed_oracle(seed):
    """Conjugate a known Jordan form and compare both parts exactly."""
    rng = np.random.default_rng(100 + seed)
    j = np.diag([1.0, 1.0, -2.0, -2.0, 4.0])
    nil = np.zeros((5, 5))
    nil[0, 1] = 1.0  # defective inside the eigenvalue 1 block
    # mildly conditioned conjugation keeps the matrix norm moderate
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    p = q @ np.diag(rng.uniform(0.7, 1.4, size=5))
    pinv = np.linalg.inv(p)
    s_true = p @ j @ pinv
    n_true = p @ nil @ pinv
    s, n, _, _ = jordan_parts(s_true + n_true)
    scale = np.linalg.norm(s_true + n_true)
    assert np.max(np.abs(s - s_true)) < 1e-7 * scale
    assert np.max(np.abs(n - n_true)) < 1e-7 * scale


def test_jordan_parts_commute_and_sum():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6))
    s, n, _, _ = jordan_parts(a)
    assert np.max(np.abs(s + n - a)) < 1e-10
    comm = s @ n - n @ s
    assert np.max(np.abs(comm)) < 1e-7 * max(1.0, np.linalg.norm(a)) ** 2
    assert is_nilpotent_matrix(n, tol=1e-6)


def test_jordan_decompose_real_input_with_real_spectrum_stays_real():
    a = np.array([[3.0, 1.0], [0.0, 3.0]])
    s, _, means, _ = jordan_parts(a)
    assert all(m.imag == 0.0 for m in means)
    assert np.max(np.abs(s.imag)) < 1e-12


def test_jordan_decompose_zero_matrix():
    s, n, means, counts = jordan_parts(np.zeros((3, 3)))
    assert np.all(s == 0)
    assert np.all(n == 0)
    assert means is None
    assert counts == [3]


def test_jordan_decompose_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigen_clusters(np.zeros((2, 3)), 1e-7)


def test_jordan_decompose_merges_indistinguishable_eigenvalues():
    _, _, _, counts = jordan_parts(np.diag([1.0, 1.0 + 1e-12]))
    assert counts == [2]


# ---------------------------------------------------------------- nilpotency


@pytest.mark.parametrize(
    "mat,expected",
    [
        (np.zeros((3, 3)), True),
        (np.triu(np.ones((4, 4)), 1), True),
        (np.eye(2), False),
        (np.array([[0.0, 1.0], [1e-30, 0.0]]), True),
        (np.array([[0.0, 1.0], [0.5, 0.0]]), False),
    ],
)
def test_is_nilpotent_matrix(mat, expected):
    assert is_nilpotent_matrix(mat) is expected


def test_is_nilpotent_treats_rounding_residue_as_zero():
    # norm far below the tolerance counts as the zero matrix even though
    # the normalized direction would not be nilpotent
    assert is_nilpotent_matrix(1e-30 * np.eye(3))


@pytest.mark.parametrize("seed", range(20))
def test_stacked_nilpotency_residuals_equal_the_per_matrix_route(seed):
    """Byte for byte, on stacks with nilpotent, general and below-tolerance matrices."""
    rng = np.random.default_rng(seed)
    for trial in range(20):
        k, n = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        a = rng.standard_normal((k, n, n))
        if trial % 2:
            a = a + 1j * rng.standard_normal((k, n, n))
        if trial % 3 == 0:
            a = np.triu(a, 1) + 1e-13 * rng.standard_normal((k, n, n))
        a[0] *= 1e-12 if trial % 5 == 0 else 1.0
        tol = rng.choice([1e-9, 1e-6], k)
        want = np.array([nilpotency_residual(m, t) for m, t in zip(a, tol)])
        assert nilpotency_residuals(a, tol).tobytes() == want.tobytes()


def test_stacked_nilpotency_residuals_of_an_empty_stack():
    assert nilpotency_residuals(np.zeros((0, 3, 3)), 1e-9).shape == (0,)
    with pytest.raises(ValueError):
        nilpotency_residuals(np.zeros((2, 3, 4)))


# ---------------------------------------------------------------- families


def test_joint_eigenbasis_commuting_family():
    rng = np.random.default_rng(9)
    u = random_unitary(rng, 3)
    d1 = np.diag([1.0, 1.0, 2.0])
    d2 = np.diag([3.0, 4.0, 5.0])
    mats = [u @ d1 @ u.conj().T, u @ d2 @ u.conj().T]
    basis, chars, resid = joint_eigenbasis(mats)
    assert resid < 1e-10
    # the second matrix splits the repeated eigenvalue of the first
    got = sorted((round(c[0].real, 6), round(c[1].real, 6)) for c in chars)
    assert got == [(1.0, 3.0), (1.0, 4.0), (2.0, 5.0)]
    for mi, m in enumerate(mats):
        for k in range(3):
            v = basis[:, k]
            assert np.linalg.norm(m @ v - chars[k][mi] * v) < 1e-9


def test_joint_eigenbasis_keeps_close_but_distinct_eigenvalues_apart():
    # a defective-matrix clustering width would merge these two
    d = np.diag([0.19935, 0.20596, 1.0, 1.5, 2.0, 3.0])
    basis, chars, resid = joint_eigenbasis([d])
    assert len({c[0] for c in chars}) == 6
    assert resid < 1e-12


def test_joint_eigenbasis_rejects_defective_matrix():
    with pytest.raises(EigenClusterAmbiguity):
        joint_eigenbasis([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_joint_eigenbasis_order_is_deterministic():
    rng = np.random.default_rng(2)
    u = random_unitary(rng, 4)
    mats = [u @ np.diag([2.0, -1.0, 0.0, 1.0]) @ u.conj().T]
    b1, c1, _ = joint_eigenbasis(mats)
    b2, c2, _ = joint_eigenbasis([m.copy() for m in mats])
    assert c1 == c2
    assert np.max(np.abs(b1 - b2)) < 1e-12
    assert [c[0].real for c in c1] == sorted(c[0].real for c in c1)
