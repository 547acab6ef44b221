"""Numerical linear algebra layer.

The Jordan decomposition tests build matrices from a known semisimple
plus nilpotent pair and check the computed parts against that oracle,
not just against each other.
"""

import numpy as np
import pytest

from solvhull import EigenClusterAmbiguity, jordan_decompose
from solvhull.linalg import (
    canon_columns,
    cluster_scalars,
    invariant_subspace,
    is_nilpotent_matrix,
    joint_eigenbasis,
    nullspace,
    orthonormal_columns,
    real_nullspace,
    subspace_intersection,
    subspace_residual,
)


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


def test_subspace_intersection_of_two_planes():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])  # xy plane
    b = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # yz plane
    inter = subspace_intersection(a, b)
    assert inter.shape[1] == 1
    assert abs(abs(inter[1, 0]) - 1.0) < 1e-12


def test_canon_columns_is_basis_independent():
    rng = np.random.default_rng(11)
    q = random_unitary(rng, 5)[:, :3]
    # same subspace presented through a random invertible recombination
    mix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = canon_columns(q)
    b = canon_columns(q @ mix)
    assert np.max(np.abs(a - b)) < 1e-10


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


def test_invariant_subspace_splits_spectrum():
    rng = np.random.default_rng(3)
    p = random_unitary(rng, 4)
    a = p @ np.diag([1.0, 1.0, 3.0, 3.0]) @ p.conj().T
    q, sdim = invariant_subspace(a, lambda x: x.real < 2.0)
    assert sdim == 2
    assert subspace_residual(a @ q, q) < 1e-10


# ---------------------------------------------------------------- jordan


def test_jordan_decompose_diagonalizable_matrix():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((4, 4))
    d = np.diag([1.0, 2.0, 2.0, -3.0])
    a = p @ d @ np.linalg.inv(p)
    dec = jordan_decompose(a)
    assert np.max(np.abs(dec.nilpotent)) < 1e-8
    assert np.allclose(dec.semisimple, a, atol=1e-8)
    assert sorted(dec.multiplicities) == [1, 1, 2]


def test_jordan_decompose_single_defective_block():
    # one Jordan block with eigenvalue 2
    a = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    dec = jordan_decompose(a)
    assert np.allclose(dec.semisimple, 2.0 * np.eye(3), atol=1e-7)
    assert np.allclose(dec.nilpotent, a - 2.0 * np.eye(3), atol=1e-7)
    assert dec.eigenvalues == (2.0 + 0.0j,)
    assert dec.multiplicities == (3,)


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
    dec = jordan_decompose(s_true + n_true)
    scale = np.linalg.norm(s_true + n_true)
    assert np.max(np.abs(dec.semisimple - s_true)) < 1e-7 * scale
    assert np.max(np.abs(dec.nilpotent - n_true)) < 1e-7 * scale


def test_jordan_parts_commute_and_sum():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6))
    dec = jordan_decompose(a)
    s, n = dec.semisimple, dec.nilpotent
    assert np.max(np.abs(s + n - a)) < 1e-10
    comm = s @ n - n @ s
    assert np.max(np.abs(comm)) < 1e-7 * max(1.0, np.linalg.norm(a)) ** 2
    assert is_nilpotent_matrix(n, tol=1e-6)


def test_jordan_decompose_real_input_with_real_spectrum_stays_real():
    a = np.array([[3.0, 1.0], [0.0, 3.0]])
    dec = jordan_decompose(a)
    assert not np.iscomplexobj(dec.semisimple)


def test_jordan_decompose_zero_matrix():
    dec = jordan_decompose(np.zeros((3, 3)))
    assert np.all(dec.semisimple == 0)
    assert np.all(dec.nilpotent == 0)
    assert dec.multiplicities == (3,)


def test_jordan_decompose_rejects_nonsquare():
    with pytest.raises(ValueError):
        jordan_decompose(np.zeros((2, 3)))


def test_jordan_decompose_flags_ambiguous_clusters():
    # gap of 3e-7 sits between the width and ten times the width
    with pytest.raises(EigenClusterAmbiguity):
        jordan_decompose(np.diag([1.0, 1.0 + 3e-7]))


def test_jordan_decompose_merges_indistinguishable_eigenvalues():
    dec = jordan_decompose(np.diag([1.0, 1.0 + 1e-12]))
    assert dec.multiplicities == (2,)


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
