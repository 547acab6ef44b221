"""Frozen input generators for the benchmark.

The corpus generator is a copy of ``random_solvable_structure`` in
``tests/conftest.py``; it lives here so that a later edit to the test
fixtures cannot silently change what the benchmark measures.
``test_perfbench.py`` checks that the two still agree.
"""

import numpy as np

CORPUS_SEEDS = tuple(range(25))


def _heisenberg():
    c = np.zeros((3, 3, 3), dtype=complex)
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return c


def _filiform4():
    c = np.zeros((4, 4, 4), dtype=complex)
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    c[0, 2, 3] = 1.0
    c[2, 0, 3] = -1.0
    return c


def _heisenberg5():
    c = np.zeros((5, 5, 5), dtype=complex)
    for i, j in ((0, 1), (2, 3)):
        c[i, j, 4] = 1.0
        c[j, i, 4] = -1.0
    return c


def _conjugate(c, p):
    pinv = np.linalg.inv(p)
    return np.einsum("ai,bj,abm,km->ijk", p, p, c, pinv)


def _upper_matrix(rng, m):
    mat = np.zeros((m, m))
    for i in range(m):
        mat[i, i] = rng.integers(-2, 3)
        for j in range(i + 1, m):
            mat[i, j] = rng.integers(-1, 2)
    return mat


def random_solvable_structure(seed):
    """Seeded random solvable structure table of dimension at most 6."""
    rng = np.random.default_rng(20240000 + seed)
    kind = ("operators", "graded", "nilpotent")[int(rng.integers(0, 3))]

    if kind == "operators":
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, 3))
        m0 = _upper_matrix(rng, m)
        mats = []
        for _ in range(k):
            coeffs = rng.integers(-2, 3, size=3)
            mats.append(coeffs[0] * np.eye(m) + coeffs[1] * m0 + coeffs[2] * (m0 @ m0))
        n = k + m
        c = np.zeros((n, n, n), dtype=complex)
        for a in range(k):
            for i in range(m):
                for j in range(m):
                    c[a, k + i, k + j] = mats[a][j, i]
                    c[k + i, a, k + j] = -mats[a][j, i]
    elif kind == "graded":
        base = (_heisenberg, _filiform4)[int(rng.integers(0, 2))]()
        m = base.shape[0]
        k = int(rng.integers(1, 3))
        if m == 3:
            frees = [(1, 0, 1), (0, 1, 1)]
        else:
            frees = [(1, 0, 1, 2), (0, 1, 1, 1)]
        lams = []
        for _ in range(k):
            a, b = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
            lams.append(a * np.array(frees[0]) + b * np.array(frees[1]))
        n = k + m
        c = np.zeros((n, n, n), dtype=complex)
        c[k:, k:, k:] = base
        for t in range(k):
            for i in range(m):
                c[t, k + i, k + i] = lams[t][i]
                c[k + i, t, k + i] = -lams[t][i]
    else:
        base = (
            np.zeros((4, 4, 4)),
            _heisenberg(),
            _filiform4(),
            _heisenberg5(),
        )[int(rng.integers(0, 4))]
        c = base.copy()

    n = c.shape[0]
    if rng.random() < 0.7:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        c = _conjugate(c, q)
    return 0.5 * (c - np.swapaxes(c, 0, 1))


def filiform_structure(m):
    """Graded filiform algebra of rank m with its grading derivation.

    Basis T, e1, ..., em with [e1, ei] = e(i+1) for 2 <= i < m,
    [T, e1] = e1 and [T, ei] = (i - 1) ei, written in that graded basis.
    """
    n = m + 1
    c = np.zeros((n, n, n))
    for i in range(2, m):
        c[1, i, i + 1] = 1.0
        c[i, 1, i + 1] = -1.0
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = -1.0
    for i in range(2, m + 1):
        c[0, i, i] = i - 1.0
        c[i, 0, i] = -(i - 1.0)
    return c


def random_path(rng, dim, segments, is_complex, growth_cap, psi, path_cls):
    """Seeded piecewise exponential path with capped total growth.

    Same recipe as the verification suite: unit-bounded directions,
    durations in [0.2, 0.8], all durations scaled down together when
    the summed Frobenius norm of the connection exceeds growth_cap.
    """
    dirs = []
    durs = []
    for _ in range(segments):
        v = rng.standard_normal(dim)
        if is_complex:
            v = v + 1j * rng.standard_normal(dim)
        v = v / max(1.0, float(np.linalg.norm(v)))
        dirs.append(v)
        durs.append(float(rng.uniform(0.2, 0.8)))
    growth = sum(float(np.linalg.norm(psi(v), "fro")) * t for v, t in zip(dirs, durs))
    if growth > growth_cap:
        durs = [t * growth_cap / growth for t in durs]
    return path_cls(list(zip(dirs, durs)))
