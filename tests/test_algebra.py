"""Structure table validation, series, nilradical, semisimple adjoint.

The Jacobi check has an independent oracle here: a brute force loop over
basis triples using only the bracket, with no shared code path.
"""

import numpy as np
import pytest

from solvhull import (
    AntisymmetryViolation,
    JacobiViolation,
    NotNilpotent,
    NotSolvable,
    algebra,
    builtin_problem,
    derived_series,
    lower_central_series,
    nilradical,
    semisimple_adjoint,
    validate_algebra,
)
from solvhull.algebra import _associative_span, _derivation_residual, _jacobi_residual, restricted_structure
from solvhull.linalg import (
    cluster_subspace,
    eigen_clusters,
    orthonormal_columns,
    subspace_residual,
)
from solvhull.tolerances import DEFAULT, Tolerances

from conftest import (
    CORPUS_SEEDS,
    abelian_structure,
    bracket,
    conjugate_structure,
    filiform4_structure,
    graded_filiform_structure,
    heisenberg_structure,
    is_nilpotent_matrix,
    nilpotency_class,
    random_solvable_structure,
    skewed_basis_structure,
    sl2_structure,
    torus_heisenberg_structure,
)


def brute_jacobi_defect(alg):
    """Worst Jacobi defect over all basis triples, brackets only."""
    n = alg.dim
    worst = 0.0
    for i in range(n):
        ei = alg.basis_vector(i)
        for j in range(n):
            ej = alg.basis_vector(j)
            for k in range(n):
                ek = alg.basis_vector(k)
                s = (
                    bracket(alg, bracket(alg, ei, ej), ek)
                    + bracket(alg, bracket(alg, ej, ek), ei)
                    + bracket(alg, bracket(alg, ek, ei), ej)
                )
                worst = max(worst, float(np.max(np.abs(s))))
    return worst


# ---------------------------------------------------------------- validation


def test_validate_abelian():
    alg = validate_algebra(abelian_structure(3))
    assert alg.dim == 3
    assert alg.names == ("e0", "e1", "e2")
    assert not alg.is_complex


def test_validate_custom_names():
    alg = validate_algebra(heisenberg_structure(), names=["x", "y", "z"])
    assert alg.names == ("x", "y", "z")


def test_validate_rejects_wrong_name_count():
    with pytest.raises(AntisymmetryViolation):
        validate_algebra(heisenberg_structure(), names=["x", "y"])


def test_validate_rejects_noncubic_table():
    with pytest.raises(AntisymmetryViolation):
        validate_algebra(np.zeros((2, 3, 2)))


def test_validate_rejects_asymmetric_table():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the mirrored negative entry
    with pytest.raises(AntisymmetryViolation) as exc:
        validate_algebra(c)
    assert "antisym" in str(exc.value).lower() or "(0, 1, 2)" in str(exc.value)


def test_validate_rejects_jacobi_violation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0
    with pytest.raises(JacobiViolation):
        validate_algebra(c)


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e160])
def test_jacobi_violation_is_found_at_every_scale(scale):
    # the residual is taken on the table divided by its magnitude, so a
    # huge table neither overflows nor slips through to the solvability check
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0
    with pytest.raises(JacobiViolation) as exc:
        validate_algebra(scale * c)
    assert exc.value.triple == (0, 1, 2)
    assert exc.value.residual == 1.0


EPS = float(np.finfo(float).eps)


def einsum_jacobi_residual(c):
    """Oracle: the Jacobi tensor as three general einsums, the route before one matrix product."""
    t1 = np.einsum("jkl,ilm->ijkm", c, c)
    t2 = np.einsum("kil,jlm->ijkm", c, c)
    t3 = np.einsum("ijl,klm->ijkm", c, c)
    return t1 + t2 + t3


@pytest.mark.parametrize("seed", list(CORPUS_SEEDS) + ["filiform-8", "violation", "complex"])
def test_jacobi_residual_matches_the_einsum_route(seed):
    """Within a few ulps of max |c|^2, on Lie tables and on tables that break Jacobi."""
    rng = np.random.default_rng(31)
    if seed == "filiform-8":
        c = graded_filiform_structure(8)
    elif seed == "violation":
        c = rng.standard_normal((5, 5, 5))
        c = c - np.swapaxes(c, 0, 1)
    elif seed == "complex":
        c = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
        c = c - np.swapaxes(c, 0, 1)
    else:
        c = random_solvable_structure(seed)
    got, want = _jacobi_residual(c), einsum_jacobi_residual(c)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 8 * EPS * np.max(np.abs(c)) ** 2


def einsum_derivation_residual(mats, c):
    """Oracle: three general einsums per matrix, the route before two stacked products."""
    worst = 0.0
    for d in mats:
        left = np.einsum("ab,jkb->jka", d, c)
        term1 = np.einsum("bj,bkm->jkm", d, c)
        term2 = np.einsum("bk,jbm->jkm", d, c)
        worst = max(worst, float(np.max(np.abs(left - term1 - term2))))
    return worst


@pytest.mark.parametrize("seed", list(CORPUS_SEEDS) + ["filiform-8", "violation", "complex", "empty"])
def test_derivation_residual_matches_the_einsum_route(seed, corpus_splittings):
    """Within 8 ulps of max |d| max |c|: semisimple adjoints, tori, random matrices, no matrix."""
    rng = np.random.default_rng(32)
    if seed == "filiform-8":
        alg = validate_algebra(graded_filiform_structure(8))
        cases = [(semisimple_adjoint(alg).tensor, alg.structure)]
    elif seed in ("violation", "complex", "empty"):
        c = rng.standard_normal((5, 5, 5))
        mats = rng.standard_normal((3 if seed != "empty" else 0, 5, 5))
        if seed == "complex":
            c, mats = c + 1j * rng.standard_normal(c.shape), mats + 1j * rng.standard_normal(mats.shape)
        cases = [(mats, c - np.swapaxes(c, 0, 1))]
    else:
        split = corpus_splittings[seed]
        cases = [(split.semisimple.tensor, split.base.structure), (split.torus, split.shadow.structure)]
    for mats, c in cases:
        got, want = _derivation_residual(mats, c), einsum_derivation_residual(mats, c)
        scale = np.max(np.abs(mats), initial=0.0) * np.max(np.abs(c))
        assert abs(got - want) <= 8 * EPS * scale
        if seed in ("violation", "complex"):
            assert want > 1.0


def test_budgets_are_multiples_of_num():
    tol = Tolerances(num=1e-6)
    assert tol.stage_budget == 1e3 * 1e-6
    assert tol.report_limit == 100 * 1e-6
    assert tol.char_match == 100 * 1e-6
    assert tol.char_snap == 1e-6 / 10
    assert (DEFAULT.char_match, DEFAULT.char_snap) == (1e-6, 1e-9)


def test_validate_rejects_nonsolvable():
    with pytest.raises(NotSolvable):
        validate_algebra(sl2_structure())


def test_structure_table_is_frozen():
    alg = validate_algebra(heisenberg_structure())
    with pytest.raises(ValueError):
        alg.structure[0, 1, 2] = 5.0


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_passes_brute_force_jacobi_oracle(seed, corpus):
    alg = corpus[seed]
    scale = max(1.0, float(np.max(np.abs(alg.structure)))) ** 2
    assert brute_jacobi_defect(alg) <= 1e-9 * scale


def test_brute_force_oracle_detects_violation():
    # same corrupted table the validator rejects
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0
    from solvhull.algebra import LieAlgebra

    fake = LieAlgebra(structure=c, names=("a", "b", "c"))
    assert brute_jacobi_defect(fake) > 0.5


# ---------------------------------------------------------------- operations


def test_adjoint_matches_bracket():
    alg = validate_algebra(filiform4_structure())
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert np.allclose(alg.adjoint(x) @ y, bracket(alg, x, y), atol=1e-12)


def test_adjoint_is_linear():
    alg = validate_algebra(heisenberg_structure())
    x, y = np.array([1.0, 2.0, 0.0]), np.array([0.0, -1.0, 3.0])
    assert np.allclose(alg.adjoint(2 * x + y), 2 * alg.adjoint(x) + alg.adjoint(y))


def test_adjoint_basis_agrees_with_adjoint():
    alg = validate_algebra(filiform4_structure())
    for i, m in enumerate(alg.adjoint_basis()):
        assert np.allclose(m, alg.adjoint(alg.basis_vector(i)))


def test_adjoint_respects_brackets_on_corpus(corpus):
    # ad_[x,y] = ad_x ad_y - ad_y ad_x, the defining representation law
    rng = np.random.default_rng(5)
    for seed in list(CORPUS_SEEDS)[:8]:
        alg = corpus[seed]
        x, y = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
        lhs = alg.adjoint(bracket(alg, x, y))
        rhs = alg.adjoint(x) @ alg.adjoint(y) - alg.adjoint(y) @ alg.adjoint(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1.0, np.max(np.abs(rhs)))


# ---------------------------------------------------------------- series


@pytest.mark.parametrize(
    "structure,dims",
    [
        (abelian_structure(3), [3, 0]),
        (heisenberg_structure(), [3, 1, 0]),
        (filiform4_structure(), [4, 2, 0]),
    ],
)
def test_derived_series_dimensions(structure, dims):
    alg = validate_algebra(structure)
    series = derived_series(alg)
    assert [s.shape[1] for s in series] == dims


@pytest.mark.parametrize(
    "structure,cls",
    [
        (abelian_structure(2), 1),
        (heisenberg_structure(), 2),
        (filiform4_structure(), 3),
    ],
)
def test_nilpotency_class(structure, cls):
    assert nilpotency_class(validate_algebra(structure)) == cls


def test_lower_central_series_of_filiform():
    alg = validate_algebra(filiform4_structure())
    series = lower_central_series(alg)
    assert [s.shape[1] for s in series] == [4, 2, 1, 0]


def test_lower_central_series_raises_on_solvable_nonnilpotent(sol_problem):
    with pytest.raises(NotNilpotent):
        lower_central_series(sol_problem.algebra)


# ---------------------------------------------------------------- nilradical


def test_nilradical_of_nilpotent_algebra_is_everything():
    alg = validate_algebra(heisenberg_structure())
    assert nilradical(alg).dim == 3


def test_nilradical_of_sol(sol_problem):
    res = nilradical(sol_problem.algebra)
    assert res.dim == 2
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert subspace_residual(expected, res.basis.astype(complex)) < 1e-8


def test_nilradical_of_sect4(sect4_problem):
    res = nilradical(sect4_problem.algebra)
    assert res.dim == 2
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=complex)
    assert subspace_residual(expected, res.basis) < 1e-8


def test_nilradical_in_a_skewed_basis():
    """Non-nilpotent two step algebra written in a mixed frame."""
    alg = validate_algebra(skewed_basis_structure())
    res = nilradical(alg)
    assert res.dim == 2
    # the nilradical is span(first - second, third) in these coordinates
    expected = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert subspace_residual(expected, res.basis.astype(complex)) < 1e-7


def test_nilradical_basis_is_real_for_real_algebras(sol_problem):
    res = nilradical(sol_problem.algebra)
    assert res.basis.dtype.kind == "f"


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_nilradical_postconditions_on_corpus(seed, corpus):
    alg = corpus[seed]
    res = nilradical(alg)
    basis = res.basis.astype(complex)
    # contains the derived algebra
    derived = derived_series(alg)[1]
    if derived.shape[1]:
        assert subspace_residual(derived.astype(complex), basis) < 1e-7
    # every element has nilpotent adjoint
    rng = np.random.default_rng(seed)
    for _ in range(3):
        coeff = rng.standard_normal(res.dim)
        x = res.basis @ coeff
        assert is_nilpotent_matrix(alg.adjoint(x), tol=1e-6)
    # it is an ideal
    cols = []
    for i in range(alg.dim):
        for j in range(res.dim):
            cols.append(bracket(alg, alg.basis_vector(i), res.basis[:, j]))
    assert subspace_residual(np.stack(cols, axis=1), basis) < 1e-7


def test_nilradical_of_abelian_algebra_is_everything():
    res = nilradical(validate_algebra(abelian_structure(3)))
    assert res.dim == 3
    assert res.trace_residual == 0.0


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_nilradical_follows_a_change_of_basis(seed, corpus):
    """Permuted, rescaled and unipotent frames give the same ideal."""
    alg = corpus[seed]
    res = nilradical(alg)
    assert res.trace_residual < 1e-12
    n = alg.dim
    rng = np.random.default_rng(seed)
    frames = (
        np.eye(n)[:, rng.permutation(n)],
        np.diag(10.0 ** rng.uniform(-2, 2, n)),
        np.eye(n) + np.triu(rng.standard_normal((n, n)), 1),
    )
    for p in frames:
        c = conjugate_structure(alg.structure, p)
        moved = nilradical(validate_algebra(0.5 * (c - np.swapaxes(c, 0, 1))))
        assert moved.dim == res.dim
        expected = orthonormal_columns(np.linalg.solve(p, res.basis.astype(complex)))
        got = moved.basis.astype(complex)
        drift = expected @ expected.conj().T - got @ got.conj().T
        assert float(np.max(np.abs(drift))) < 1e-9


def per_pair_associative_span(mats, tol):
    """Oracle: _associative_span with each round's products formed one pair at a time.

    A round ends the span when its projected products have Frobenius
    norm at most tol, and hands the SVD only the columns above the
    rounding floor, as _associative_span does.
    """
    n = mats[0].shape[0]
    gens = [m / np.linalg.norm(m) for m in mats if np.any(m)]
    start = [np.eye(n, dtype=mats[0].dtype).ravel()] + [g.ravel() for g in gens]
    basis = orthonormal_columns(np.stack(start, axis=1), tol)
    frontier = basis
    while frontier.shape[1] and gens:
        words = [f.reshape(n, n) for f in frontier.T]
        prods = np.stack([(g @ w).ravel() for g in gens for w in words], axis=1)
        for _ in range(2):
            prods = prods - basis @ (basis.conj().T @ prods)
        norms = np.linalg.norm(prods, axis=0)
        if np.linalg.norm(norms) <= tol:
            break
        floor = max(prods.shape) * np.finfo(float).eps * norms.max() / np.sqrt(len(norms))
        frontier = orthonormal_columns(prods[:, norms > floor], tol)
        basis = np.hstack([basis, frontier])
    return basis


def all_columns_associative_span(mats, tol):
    """Oracle: the span with every projected product of every round factored."""
    n = mats[0].shape[0]
    gens = np.array([m / np.linalg.norm(m) for m in mats if np.any(m)])
    start = [np.eye(n, dtype=mats[0].dtype).ravel()] + [g.ravel() for g in gens]
    basis = orthonormal_columns(np.stack(start, axis=1), tol)
    frontier = basis
    while frontier.shape[1] and len(gens):
        words = frontier.T.reshape(-1, n, n)
        prods = (gens[:, None] @ words[None]).reshape(-1, n * n).T
        for _ in range(2):
            prods = prods - basis @ (basis.conj().T @ prods)
        frontier = orthonormal_columns(prods, tol)
        basis = np.hstack([basis, frontier])
    return basis


def named_algebra(name, corpus):
    """Algebra for a test case name: corpusN, filiformM, torus_heisenbergK,
    complex_torus_heisenberg2 (a complex basis change of k = 2) or a builtin."""
    for prefix, make in (
        ("corpus", lambda i: corpus[i]),
        ("filiform", lambda m: validate_algebra(graded_filiform_structure(m))),
        ("torus_heisenberg", lambda k: validate_algebra(torus_heisenberg_structure(k))),
    ):
        if name.startswith(prefix):
            return make(int(name[len(prefix):]))
    if name == "complex_torus_heisenberg2":
        c = torus_heisenberg_structure(2)
        n = c.shape[0]
        rng = np.random.default_rng(7)
        p = np.eye(n) + np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        c = conjugate_structure(c, p)
        return validate_algebra(0.5 * (c - np.swapaxes(c, 0, 1)))
    return builtin_problem(name).algebra


SPAN_CASES = [f"corpus{seed}" for seed in CORPUS_SEEDS] + [f"filiform{m}" for m in range(4, 10)]


@pytest.mark.parametrize("name", SPAN_CASES)
def test_stacked_span_matches_the_per_pair_products(name, corpus):
    mats = named_algebra(name, corpus).adjoint_basis()
    got = _associative_span(mats, DEFAULT.alg)
    want = per_pair_associative_span(mats, DEFAULT.alg)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "name", SPAN_CASES + ["sol", "sect4"] + [f"torus_heisenberg{k}" for k in range(1, 4)]
)
def test_span_matches_the_all_columns_route(name, corpus):
    mats = named_algebra(name, corpus).adjoint_basis()
    got = _associative_span(mats, DEFAULT.alg)
    want = all_columns_associative_span(mats, DEFAULT.alg)
    assert got.shape == want.shape
    drift = got @ got.conj().T - want @ want.conj().T
    assert float(np.max(np.abs(drift))) < 1e-13


def test_span_keeps_a_new_direction_of_relative_size_1e_7():
    """The first round's products are of unit size, and a^2 leaves the span
    of 1, a and b by about 1e-7; without it the diagonal part would stop at
    dimension 2 and the span at 5 of the 6 upper triangular dimensions."""
    a = np.diag([1.0, 1.0 + 1e-7, 0.0])
    b = np.eye(3, k=1)
    span = _associative_span([a, b], DEFAULT.alg)
    assert span.shape[1] == 6
    assert subspace_residual(np.diag([0.0, 1.0, 0.0]).ravel(), span) < 1e-12


# Columns that _associative_span hands to orthonormal_columns on filiform 8:
# 397 in 8 SVDs when every projected product was factored, 95 in 7 since
# only new directions are. 12 of the 95 are rounding-level products just
# above the drop floor, so the bound leaves room for them.
SPAN_SVD_COLUMNS = 107


def test_span_factors_only_new_directions(monkeypatch):
    mats = validate_algebra(graded_filiform_structure(8)).adjoint_basis()
    factor = algebra.linalg.orthonormal_columns
    received = []

    def counted(v, tol=1e-12):
        received.append(v.shape[1])
        return factor(v, tol)

    monkeypatch.setattr(algebra.linalg, "orthonormal_columns", counted)
    span = _associative_span(mats, DEFAULT.alg)
    assert span.shape[1] == 43
    assert 0 < sum(received) <= SPAN_SVD_COLUMNS


# ---------------------------------------------------------------- brackets

BRACKET_CASES = [f"corpus{seed}" for seed in CORPUS_SEEDS] + [
    "sol",
    "sect4",
    "filiform6",
    "torus_heisenberg3",
    "complex_torus_heisenberg2",
]


@pytest.mark.parametrize("name", BRACKET_CASES)
def test_brackets_match_the_per_pair_bracket(name, corpus):
    alg = named_algebra(name, corpus)
    n = alg.dim
    rng = np.random.default_rng(n)
    families = (
        (np.eye(n), rng.standard_normal((n, 3))),
        (rng.standard_normal((n, 2)), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))),
    )
    for x, y in families:
        got = alg.brackets(x, y)
        assert got.shape == (n, x.shape[1], y.shape[1])
        want = np.array([[bracket(alg, xa, yb) for yb in y.T] for xa in x.T])
        assert np.linalg.norm(got - np.moveaxis(want, -1, 0)) <= 1e-14 * np.linalg.norm(want)


def test_brackets_of_an_empty_family(sol_problem):
    alg = sol_problem.algebra
    x = np.ones((alg.dim, 2))
    assert alg.brackets(x, x[:, :0]).shape == (alg.dim, 2, 0)
    assert alg.brackets(x[:, :0], x).shape == (alg.dim, 0, 2)
    assert alg.brackets(x[:, :0], x[:, :0]).shape == (alg.dim, 0, 0)


def test_derived_series_ends_at_an_empty_family():
    series = derived_series(validate_algebra(heisenberg_structure()))
    assert [step.shape for step in series] == [(3, 3), (3, 1), (3, 0)]


def test_restricted_structure_of_the_zero_span(sol_problem):
    alg = sol_problem.algebra
    table, resid = restricted_structure(alg, np.zeros((alg.dim, 0)))
    assert table.shape == (0, 0, 0)
    assert resid == 0.0


# ---------------------------------------------------------------- restriction


def test_restricted_structure_of_nilradical(sol_problem):
    alg = sol_problem.algebra
    res = nilradical(alg)
    table, resid = restricted_structure(alg, res.basis)
    assert resid < 1e-10
    assert np.max(np.abs(table)) < 1e-10  # that nilradical is abelian


# ---------------------------------------------------------------- semisimple


def test_semisimple_adjoint_vanishes_on_nilpotent_algebra():
    alg = validate_algebra(filiform4_structure())
    ads = semisimple_adjoint(alg)
    assert np.max(np.abs(ads.tensor)) < 1e-9


def test_semisimple_adjoint_of_sol(sol_problem):
    alg = sol_problem.algebra
    ads = semisimple_adjoint(alg)
    # on sol the adjoint of the torus direction is already semisimple
    d = ads.apply(alg.basis_vector(0))
    assert np.allclose(d, alg.adjoint(alg.basis_vector(0)), atol=1e-8)
    # and the nilpotent directions contribute nothing
    assert np.max(np.abs(ads.apply(alg.basis_vector(1)))) < 1e-8
    assert np.max(np.abs(ads.apply(alg.basis_vector(2)))) < 1e-8


def test_semisimple_adjoint_residuals_are_small(sect4_problem):
    ads = semisimple_adjoint(sect4_problem.algebra)
    for key, val in ads.residuals.items():
        assert val < 1e-8, key


def test_semisimple_adjoint_parts_are_semisimple(sol_problem):
    # each generalized eigenspace of a semisimple matrix is an eigenspace:
    # (A - lambda) q = 0 on every cluster subspace
    ads = semisimple_adjoint(sol_problem.algebra)
    rng = np.random.default_rng(3)
    for _ in range(4):
        x = rng.standard_normal(3)
        a = ads.apply(x)
        means, counts, _ = eigen_clusters(a, 1e-7)
        assert sum(counts) == 3
        for ci, mean in enumerate(means):
            q, _ = cluster_subspace(a, means, ci)
            defect = np.max(np.abs(a @ q - mean * q))
            assert defect < 1e-7 * max(1.0, np.linalg.norm(x))
