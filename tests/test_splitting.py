"""Semisimple splitting: nilpotent shadow plus abelian torus.

The embedding check is the load bearing one: the original bracket must
be reproduced by the semidirect bracket of torus action and shadow
bracket, which is tested here directly from random samples.
"""

import numpy as np
import pytest

from solvhull import build_splitting, validate_algebra
from solvhull.linalg import subspace_residual

from conftest import (
    CORPUS_SEEDS,
    bracket,
    filiform4_structure,
    heisenberg_structure,
    is_nilpotent_matrix,
    nilpotency_class,
)


def embedding_defect(split, rng, samples=6):
    """Worst mismatch between the base bracket and its split image.

    Under the embedding x -> (torus part of x, x) the base bracket must
    land on (0, D_x y - D_y x + shadow bracket), with D the semisimple
    adjoint action. Both components are checked.
    """
    alg = split.base
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(alg.dim)
        y = rng.standard_normal(alg.dim)
        if alg.is_complex:
            x = x + 1j * rng.standard_normal(alg.dim)
            y = y + 1j * rng.standard_normal(alg.dim)
        base = bracket(alg, x, y)
        semidirect = (
            split.semisimple.apply(x) @ y
            - split.semisimple.apply(y) @ x
            + bracket(split.shadow, x, y)
        )
        worst = max(worst, float(np.max(np.abs(base - semidirect))))
        # the torus is abelian, so brackets carry no torus component
        torus_leak = np.abs(split.torus_coords @ base)
        worst = max(worst, float(np.max(torus_leak, initial=0.0)))
    return worst


def test_sol_splitting_shape(sol_stages):
    split = sol_stages["splitting"]
    assert split.shadow_class == 1
    assert split.torus.shape[0] == 1
    assert split.dim == 3


def test_sect4_splitting_shape(sect4_stages):
    split = sect4_stages["splitting"]
    assert split.shadow_class == 2
    assert split.torus.shape[0] == 1
    assert split.shadow.is_complex


def test_shadow_table_is_exactly_antisymmetric(sol_stages, sect4_stages):
    for stages in (sol_stages, sect4_stages):
        c = stages["splitting"].shadow.structure
        flipped = np.swapaxes(c, 0, 1)
        assert np.all(c + flipped == 0)


def test_shadow_is_nilpotent(sect4_stages):
    split = sect4_stages["splitting"]
    assert nilpotency_class(split.shadow) == split.shadow_class
    for i in range(split.shadow.dim):
        ad = split.shadow.adjoint(split.shadow.basis_vector(i))
        assert is_nilpotent_matrix(ad, tol=1e-8)


def test_embedding_is_a_homomorphism(sol_stages, sect4_stages):
    rng = np.random.default_rng(0)
    assert embedding_defect(sol_stages["splitting"], rng) < 1e-9
    assert embedding_defect(sect4_stages["splitting"], rng) < 1e-9


def test_torus_coordinates_reconstruct_the_action(sol_stages):
    split = sol_stages["splitting"]
    rng = np.random.default_rng(2)
    for _ in range(4):
        x = rng.standard_normal(split.dim)
        t = split.torus_coords @ x
        rebuilt = sum(t[b] * split.torus[b] for b in range(split.torus.shape[0]))
        assert np.max(np.abs(rebuilt - split.semisimple.apply(x))) < 1e-9


def test_torus_matrices_commute(sect4_stages):
    torus = sect4_stages["splitting"].torus
    for a in range(torus.shape[0]):
        for b in range(torus.shape[0]):
            comm = torus[a] @ torus[b] - torus[b] @ torus[a]
            assert np.max(np.abs(comm)) < 1e-9


def test_nilpotent_algebra_splits_trivially():
    for structure in (heisenberg_structure(), filiform4_structure()):
        alg = validate_algebra(structure)
        split = build_splitting(alg)
        assert split.torus.shape[0] == 0
        assert np.max(np.abs(split.shadow.structure - alg.structure)) < 1e-9


def test_splitting_residuals_reported(sol_stages):
    res = sol_stages["splitting"].residuals
    for key in (
        "torus_derivation",
        "torus_preserves_series",
        "torus_coordinates",
        "commuting",
        "kills_brackets",
    ):
        assert key in res
        assert res[key] < 1e-9


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_splitting_postconditions_on_corpus(seed, corpus):
    alg = corpus[seed]
    split = build_splitting(alg)
    # table stays exactly antisymmetric
    c = split.shadow.structure
    assert np.all(c + np.swapaxes(c, 0, 1) == 0)
    # all reported residuals stay inside the working tolerance
    assert max(split.residuals.values()) < 1e-9
    # shadow really is nilpotent of the reported class
    assert nilpotency_class(split.shadow) == split.shadow_class
    # embedding reproduces the original bracket
    rng = np.random.default_rng(1000 + seed)
    scale = max(1.0, float(np.max(np.abs(alg.structure))))
    assert embedding_defect(split, rng, samples=4) < 1e-8 * scale


@pytest.mark.parametrize("seed", CORPUS_SEEDS[:10])
def test_torus_preserves_shadow_series(seed, corpus):
    split = build_splitting(corpus[seed])
    for step in split.shadow_series[1:]:
        if step.shape[1] == 0:
            continue
        for b in range(split.torus.shape[0]):
            image = split.torus[b] @ step
            assert subspace_residual(image, step) < 1e-8
