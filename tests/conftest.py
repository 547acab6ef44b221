"""Shared fixtures: reference algebras and a seeded random solvable corpus."""

import os
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import solvhull
from solvhull import (
    build_connection_form,
    build_enveloping_rep,
    build_splitting,
    builtin_problem,
    lower_central_series,
    validate_algebra,
)
from solvhull.linalg import nilpotency_residuals
from solvhull.verify import build_stages

# The CLI tests run `python -m solvhull` in child processes, which find
# the package where this session imported it.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(solvhull.__file__).parent.parent), os.environ.get("PYTHONPATH")])
)


def abelian_structure(n):
    return np.zeros((n, n, n))


def heisenberg_structure():
    """Basis (X, Y, Z) with [X, Y] = Z."""
    c = np.zeros((3, 3, 3), dtype=complex)
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return c


def filiform4_structure():
    """Basis (e1, e2, e3, e4) with [e1, e2] = e3 and [e1, e3] = e4."""
    c = np.zeros((4, 4, 4), dtype=complex)
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    c[0, 2, 3] = 1.0
    c[2, 0, 3] = -1.0
    return c


def heisenberg5_structure():
    """Basis (X1, Y1, X2, Y2, Z) with [X1, Y1] = [X2, Y2] = Z."""
    c = np.zeros((5, 5, 5), dtype=complex)
    for i, j in ((0, 1), (2, 3)):
        c[i, j, 4] = 1.0
        c[j, i, 4] = -1.0
    return c


def skewed_basis_structure():
    """The algebra [A, B] = C, [A, C] = C written in the basis (A+B, A-B, C).

    Splitting the adjoint of each basis vector separately gives a wrong
    answer here, so this case guards the joint construction.
    """
    c = np.zeros((3, 3, 3), dtype=complex)
    c[0, 1, 2] = -2.0
    c[1, 0, 2] = 2.0
    c[0, 2, 2] = 1.0
    c[2, 0, 2] = -1.0
    c[1, 2, 2] = 1.0
    c[2, 1, 2] = -1.0
    return c


def sl2_structure():
    """Basis (h, e, f) of the split simple algebra, for negative tests."""
    c = np.zeros((3, 3, 3), dtype=complex)
    c[0, 1, 1] = 2.0
    c[1, 0, 1] = -2.0
    c[0, 2, 2] = -2.0
    c[2, 0, 2] = 2.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    return c


def graded_filiform_structure(m):
    """Graded filiform algebra of rank m with its grading derivation.

    Basis (T, e1, ..., em) with [e1, ei] = e(i+1) for 2 <= i < m,
    [T, e1] = e1 and [T, ei] = (i - 1) ei.
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


def torus_heisenberg_structure(k):
    """A rank-k torus acting on the Heisenberg algebra H_{2k+1}.

    Basis (T_0, ..., T_{k-1}, X_0, ..., X_{k-1}, Y_0, ..., Y_{k-1}, Z) with
    [X_i, Y_i] = Z, [T_i, X_i] = (i + 1) X_i and [T_i, Y_i] = -(i + 1) Y_i,
    so the weights are 1, ..., k.
    """
    n = 3 * k + 1
    c = np.zeros((n, n, n))
    for i in range(k):
        t, x, y = i, k + i, 2 * k + i
        for a, b, m, value in ((x, y, n - 1, 1.0), (t, x, x, i + 1.0), (t, y, y, -(i + 1.0))):
            c[a, b, m] = value
            c[b, a, m] = -value
    return c


def conjugate_structure(c, p):
    """Structure constants in the basis f_i whose coordinates are p[:, i]."""
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
    """A seeded random solvable algebra of dimension at most 6.

    Three families: commuting operators acting on an abelian part,
    diagonal scaling derivations of a graded nilpotent part, and plain
    nilpotent algebras. A random orthogonal change of basis hides the
    adapted coordinates from the solver. Seeds 11 and 16 give the same
    table (the abelian algebra of dim 4, which a change of basis leaves
    zero), and so do seeds 20 and 22 (the 4-dim filiform algebra, with no
    change of basis drawn), so the 25 seeds hold 23 distinct algebras.
    """
    rng = np.random.default_rng(20240000 + seed)
    kind = ("operators", "graded", "nilpotent")[int(rng.integers(0, 3))]

    if kind == "operators":
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, 3))
        m0 = _upper_matrix(rng, m)
        mats = []
        for _ in range(k):
            coeffs = rng.integers(-2, 3, size=3)
            mats.append(
                coeffs[0] * np.eye(m) + coeffs[1] * m0 + coeffs[2] * (m0 @ m0)
            )
        n = k + m
        c = np.zeros((n, n, n), dtype=complex)
        for a in range(k):
            for i in range(m):
                for j in range(m):
                    c[a, k + i, k + j] = mats[a][j, i]
                    c[k + i, a, k + j] = -mats[a][j, i]
    elif kind == "graded":
        base = (heisenberg_structure, filiform4_structure)[int(rng.integers(0, 2))]()
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
            abelian_structure(4),
            heisenberg_structure(),
            filiform4_structure(),
            heisenberg5_structure(),
        )[int(rng.integers(0, 4))]
        c = base.copy()

    n = c.shape[0]
    if rng.random() < 0.7:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        c = conjugate_structure(c, q)
    # Rounding in the basis change breaks exact table antisymmetry.
    return 0.5 * (c - np.swapaxes(c, 0, 1))


CORPUS_SEEDS = tuple(range(25))

# The forms the evaluation tests sweep: the corpus, both builtins and filiform ranks 4 to 7.
CHAIN_FORMS = [f"corpus-{seed}" for seed in CORPUS_SEEDS] + [
    "sol", "sect4", "filiform-4", "filiform-5", "filiform-6", "filiform-7",
]


def bracket(alg, x, y):
    """[x, y] of two coordinate vectors of alg."""
    return np.einsum("i,j,ijk->k", np.asarray(x), np.asarray(y), alg.structure)


def nilpotency_residual(a, tol=1e-9):
    """Oracle: the nilpotency residual of one matrix, a spectral norm and a matrix power per call.

    The per-matrix route linalg.nilpotency_residuals replaced.
    """
    a = np.asarray(a).astype(complex)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 2))
    if norm <= tol:
        return 0.0
    scaled = a / norm
    power = np.linalg.matrix_power(scaled, n)
    return float(np.max(np.abs(power)))


def is_nilpotent_matrix(a, tol=1e-9):
    """Check nilpotency by powering the norm-scaled matrix to the dimension."""
    return bool(nilpotency_residuals(np.asarray(a)[None], tol)[0] < tol)


def nilpotency_class(alg):
    """Length of the lower central series, zero for the zero algebra."""
    return len(lower_central_series(alg)) - 1


def letter_matrices(env):
    """Dense (n, r, r) stack: entry a is generator a's action on the module."""
    return env.letter_entries.dense()


def letter_action(env, coords):
    """Left multiplication by sum_a coords[a] * generator a on the module."""
    mats = letter_matrices(env)
    flat = np.asarray(coords, dtype=complex) @ mats.reshape(mats.shape[0], -1)
    return flat.reshape(env.r, env.r)


def shadow_action(env, x):
    """Left multiplication by a shadow element given in shadow coordinates."""
    return letter_action(env, env.generator_inverse @ np.asarray(x, dtype=complex))


def torus_diagonal(env, torus_coeffs):
    """Diagonal of the torus action for the given torus coordinates."""
    return env.word_chars @ np.asarray(torus_coeffs, dtype=complex)


def diagonal_characters(form, x):
    """Diagonal of psi(x), one character value per monomial."""
    return form.omega @ np.asarray(x, dtype=complex)


@pytest.fixture(scope="session")
def sol_problem():
    return builtin_problem("sol")


@pytest.fixture(scope="session")
def sect4_problem():
    return builtin_problem("sect4")


@pytest.fixture(scope="session")
def sol_stages(sol_problem):
    return build_stages(sol_problem)


@pytest.fixture(scope="session")
def sect4_stages(sect4_problem):
    return build_stages(sect4_problem)


@pytest.fixture(scope="session")
def sect4_full_stages(sect4_problem, sect4_stages):
    """sect4's stages with the full truncation in place of its faithful quotient.

    The pipeline evaluates on the quotient (r = 4); this is the module
    build_enveloping_rep builds (r = 7), on the same splitting.
    """
    tol = sect4_problem.tolerances
    env = build_enveloping_rep(sect4_stages["splitting"], tol)
    return {**sect4_stages, "envelope": env, "form": build_connection_form(env, tol)}


@pytest.fixture(scope="session")
def corpus():
    """25 validated random solvable algebras, keyed by seed."""
    return {
        seed: validate_algebra(random_solvable_structure(seed))
        for seed in CORPUS_SEEDS
    }


@pytest.fixture(scope="session")
def filiform_forms():
    """Connection forms of the graded filiform algebras of rank 4 to 6."""
    forms = {}
    for m in (4, 5, 6):
        split = build_splitting(validate_algebra(graded_filiform_structure(m)))
        forms[m] = build_connection_form(build_enveloping_rep(split))
    return forms


@pytest.fixture(scope="session")
def filiform7_form():
    """Connection form of the graded filiform algebra of rank 7."""
    split = build_splitting(validate_algebra(graded_filiform_structure(7)))
    return build_connection_form(build_enveloping_rep(split))


def form_by_name(request, name):
    """Connection form named corpus-<seed>, filiform-<rank> (4 to 7), sol or sect4."""
    kind, _, arg = name.partition("-")
    if kind == "corpus":
        split = request.getfixturevalue("corpus_splittings")[int(arg)]
        return build_connection_form(build_enveloping_rep(split))
    if kind == "filiform":
        forms = request.getfixturevalue("filiform_forms")
        return forms[int(arg)] if int(arg) in forms else request.getfixturevalue("filiform7_form")
    return request.getfixturevalue(f"{name}_stages")["form"]


@pytest.fixture(scope="module")
def named_split(corpus_splittings, sol_stages, sect4_stages):
    """Splitting of a corpus seed, a builtin or a scaling family, built once."""
    builtins = {"sol": sol_stages, "sect4": sect4_stages}
    built = {}

    def get(name):
        if name not in built:
            if name.startswith("corpus"):
                built[name] = corpus_splittings[int(name[len("corpus"):])]
            elif name in builtins:
                built[name] = builtins[name]["splitting"]
            elif name.startswith("filiform"):
                m = int(name[len("filiform"):])
                built[name] = build_splitting(validate_algebra(graded_filiform_structure(m)))
            else:
                k = int(name[len("torus_heisenberg"):])
                built[name] = build_splitting(validate_algebra(torus_heisenberg_structure(k)))
        return built[name]

    return get


class _LazySplittings(Mapping):
    """Splittings keyed by corpus seed, each built on first access.

    A seed whose splitting raises errors only the tests that ask for it.
    """

    def __init__(self, corpus):
        self._corpus = corpus
        self._built = {}

    def __getitem__(self, seed):
        if seed not in self._built:
            self._built[seed] = build_splitting(self._corpus[seed])
        return self._built[seed]

    def __iter__(self):
        return iter(self._corpus)

    def __len__(self):
        return len(self._corpus)


@pytest.fixture(scope="session")
def corpus_splittings(corpus):
    """Semisimple splittings of the corpus, each built once per session."""
    return _LazySplittings(corpus)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS or FAIL line per acceptance criterion at the end of a run."""
    verdicts = {}
    for rep in terminalreporter.stats.get("passed", []):
        nodeid = getattr(rep, "nodeid", "")
        if "test_acceptance.py::test_criterion" in nodeid and rep.when == "call":
            verdicts.setdefault(nodeid.split("::")[-1], "PASS")
    for key in ("failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid:
                verdicts[nodeid.split("::")[-1]] = "FAIL"
    if verdicts:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(verdicts):
            terminalreporter.write_line(f"{verdicts[name]} {name}")
