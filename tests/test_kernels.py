"""The two dense kernels against test-only oracles.

matfuncs.expm is checked against scipy.linalg.expm and, at 40 digits,
mpmath.expm; linalg.cluster_subspace against the definition of an
invariant subspace and the eigenvalue counts of its cluster. Both keep
structure exactly, which the pipeline relies on: rounding noise in a
weight space fills the connection form's sparse stack.
"""

import mpmath
import numpy as np
import pytest
import scipy.linalg

from solvhull.linalg import cluster_subspace, eigen_clusters
from solvhull.matfuncs import expm

EPS = float(np.finfo(float).eps)


def random_input(rng, kind, n, norm):
    """A complex n by n matrix of the given kind scaled to 1-norm norm."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "upper":
        a = np.triu(a)
    elif kind == "lower":
        a = np.tril(a)
    elif kind == "strictly upper":
        a = np.triu(a, 1) if n > 1 else a
    elif kind == "diagonal":
        a = np.diag(np.diag(a))
    return a * (norm / np.abs(a).sum(axis=0).max())


@pytest.mark.parametrize("norm", [1e-3, 0.2, 1.0, 3.0, 8.0, 50.0])
@pytest.mark.parametrize("kind", ["dense", "upper", "lower", "strictly upper", "diagonal"])
def test_expm_agrees_with_scipy(kind, norm):
    for n in range(1, 13):
        rng = np.random.default_rng([n, int(norm * 1000), len(kind)])
        a = random_input(rng, kind, n, norm)
        want = scipy.linalg.expm(a)
        err = np.abs(expm(a) - want).sum(axis=0).max() / np.abs(want).sum(axis=0).max()
        assert err <= 1e-13, n


@pytest.mark.parametrize("n, norm", [(2, 0.5), (3, 4.0), (4, 20.0), (5, 2.0)])
@pytest.mark.parametrize("kind", ["dense", "upper"])
def test_expm_agrees_with_mpmath(kind, n, norm):
    rng = np.random.default_rng([n, int(norm * 10)])
    a = random_input(rng, kind, n, norm)
    with mpmath.workdps(40):
        exact = mpmath.expm(mpmath.matrix(a.tolist()))
        want = np.array(exact.tolist(), dtype=complex)
    err = np.abs(expm(a) - want).sum(axis=0).max() / np.abs(want).sum(axis=0).max()
    assert err <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_expm_of_a_diagonal_is_exp_of_the_diagonal(n):
    d = np.random.default_rng(n).standard_normal(n) * 5 + 1j
    out = expm(np.diag(d))
    assert np.array_equal(out, np.diag(np.exp(d)))


@pytest.mark.parametrize("kind", ["upper", "lower", "strictly upper"])
@pytest.mark.parametrize("norm", [0.1, 3.0, 50.0])
def test_expm_of_a_triangular_input_is_exactly_triangular(kind, norm):
    rng = np.random.default_rng(int(norm * 10))
    a = random_input(rng, kind, 7, norm)
    out = expm(a)
    other = np.tril(out, -1) if kind != "lower" else np.triu(out, 1)
    assert not other.any()
    # The diagonal is exp of the input's, recomputed after each squaring.
    assert np.allclose(out.diagonal(), np.exp(a.diagonal()), rtol=4 * EPS, atol=0)


def invariance_residual(a, q):
    """||A Q - Q Q^H A Q||, the part of A Q outside span(Q)."""
    aq = a @ q
    return float(np.linalg.norm(aq - q @ (q.conj().T @ aq), 2))


def similar(rng, blocks):
    """P J P^-1 for the block diagonal J of blocks and a random P."""
    j = scipy.linalg.block_diag(*blocks).astype(complex)
    n = j.shape[0]
    p = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return p @ j @ np.linalg.inv(p)


def jordan(value, size):
    return value * np.eye(size) + np.eye(size, k=1)


SPECTRA = {
    "simple": [np.diag([1.0, 2.0, 3.0, -1.0])],
    "one of many": [np.diag([1.0, 2.0, 2.0, 2.0, 2.0, 3.0])],
    "defective minority": [jordan(0.0, 2), np.diag([1.0, 1.0, 1.0])],
    "defective majority": [jordan(0.0, 3), jordan(0.0, 2), np.diag([2.0])],
    "complex pairs": [np.array([[0.0, -1.0], [1.0, 0.0]]), jordan(1j, 2), np.diag([-1j])],
    "one cluster": [jordan(2.0, 3), np.diag([2.0])],
}


@pytest.mark.parametrize("name", sorted(SPECTRA))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cluster_subspace_spans_an_invariant_subspace(name, seed):
    a = similar(np.random.default_rng(seed), SPECTRA[name])
    means, counts, _ = eigen_clusters(a, 1e-7)
    norm = float(np.linalg.norm(a, 2))
    for ci, count in enumerate(counts):
        q, sdim = cluster_subspace(a, means, ci)
        assert sdim == count == q.shape[1]
        assert np.max(np.abs(q.conj().T @ q - np.eye(sdim))) <= 10 * EPS * a.shape[0]
        assert invariance_residual(a, q) <= 100 * EPS * norm


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["upper", "lower"])
def test_cluster_subspace_of_a_triangular_input(kind, seed):
    rng = np.random.default_rng(seed)
    d = np.array([1.0, 2.0, 1.0, 3.0, 2.0, 1.0])
    a = random_input(rng, kind, 6, 4.0)
    np.fill_diagonal(a, d)
    means = [1.0, 2.0, 3.0]
    norm = float(np.linalg.norm(a, 2))
    for ci, mean in enumerate(means):
        q, sdim = cluster_subspace(a, means, ci)
        assert sdim == np.count_nonzero(d == mean)
        assert np.max(np.abs(q.conj().T @ q - np.eye(sdim))) <= 10 * EPS * 6
        assert invariance_residual(a, q) <= 100 * EPS * norm


def test_cluster_subspace_of_a_diagonal_input_is_exact():
    d = np.array([3.0, 1.0, 3.0, 2.0, 1.0])
    for ci, picked in enumerate([[1, 4], [3], [0, 2]]):
        q, sdim = cluster_subspace(np.diag(d), [1.0, 2.0, 3.0], ci)
        assert sdim == len(picked)
        assert np.array_equal(q, np.eye(5)[:, picked])


def test_cluster_subspace_of_a_decoupled_triangular_input_is_exact():
    # Entries linking a selected diagonal position to an unselected one
    # are zero, so every swap is a permutation.
    selected = np.array([False, True, False, True, True])
    a = np.triu(np.random.default_rng(4).standard_normal((5, 5)), 1)
    a[np.ix_(selected, ~selected)] = 0.0
    a[np.ix_(~selected, selected)] = 0.0
    np.fill_diagonal(a, np.where(selected, 2.0, -1.0))
    q, sdim = cluster_subspace(a, [-1.0, 2.0], 1)
    assert sdim == 3
    assert np.array_equal(q, np.eye(5)[:, selected])
    q, sdim = cluster_subspace(a, [-1.0, 2.0], 0)
    assert np.array_equal(q, np.eye(5)[:, ~selected])
