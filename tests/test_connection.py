"""Flat connection form and the integer character lattice."""

import numpy as np
import pytest

from solvhull import NotInLattice, build_connection_form, build_enveloping_rep
from solvhull.connection import integer_lattice_basis

from conftest import CORPUS_SEEDS, bracket, diagonal_characters


def flatness_defect(form, alg):
    """Direct recomputation of the homomorphism defect of psi."""
    worst = 0.0
    n = alg.dim
    for i in range(n):
        for j in range(n):
            ei, ej = alg.basis_vector(i), alg.basis_vector(j)
            lhs = form.psi(ei) @ form.psi(ej) - form.psi(ej) @ form.psi(ei)
            rhs = form.psi(bracket(alg, ei, ej))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def test_sol_connection_shape(sol_stages):
    form = sol_stages["form"]
    assert form.r == 4
    assert form.dim == 3
    assert form.flatness < 1e-12


def test_sect4_connection_shape(sect4_full_stages):
    form = sect4_full_stages["form"]
    assert form.r == 7
    assert form.flatness < 1e-12


def test_flatness_on_all_basis_pairs(sol_stages, sect4_stages):
    for stages in (sol_stages, sect4_stages):
        form = stages["form"]
        alg = stages["algebra"]
        scale = max(1.0, float(np.max(np.abs(form.psi_tensor))))
        assert flatness_defect(form, alg) < 1e-9 * scale


def test_psi_is_linear(sol_stages):
    form = sol_stages["form"]
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    lhs = form.psi(3.0 * x - y)
    rhs = 3.0 * form.psi(x) - form.psi(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_psi_is_upper_triangular(sect4_stages):
    form = sect4_stages["form"]
    for i in range(form.dim):
        m = form.psi_tensor[i]
        assert np.max(np.abs(np.tril(m, -1))) == 0.0


def test_diagonal_characters_match_psi(sect4_stages):
    form = sect4_stages["form"]
    rng = np.random.default_rng(1)
    x = rng.standard_normal(3)
    assert np.allclose(np.diag(form.psi(x)), diagonal_characters(form, x), atol=1e-12)


def test_entry_functional_matches_entries(sol_stages):
    form = sol_stages["form"]
    rng = np.random.default_rng(2)
    x = rng.standard_normal(3)
    for p in range(form.r):
        for q in range(form.r):
            f = form.entry_functional(p, q)
            assert abs(np.dot(f, x) - form.psi(x)[p, q]) < 1e-12


def test_sol_character_lattice(sol_stages):
    form = sol_stages["form"]
    assert len(form.char_basis) == 1
    # the only nonzero character is the coefficient of the torus direction
    base = form.char_basis[0]
    expected = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert np.max(np.abs(base - expected)) < 1e-8
    assert set(np.unique(form.char_coeffs)) <= {-1, 0, 1}


def test_sect4_character_lattice(sect4_full_stages):
    form = sect4_full_stages["form"]
    assert len(form.char_basis) == 1
    base = form.char_basis[0]
    expected = np.array([1j * np.pi, 0.0, 0.0])
    assert np.max(np.abs(base - expected)) < 1e-8
    assert set(np.unique(form.char_coeffs)) == {0, 1, 2}


def test_char_coeffs_reconstruct_omega(sect4_stages):
    form = sect4_stages["form"]
    rebuilt = np.zeros_like(form.omega)
    for w in range(form.r):
        for b, vec in enumerate(form.char_basis):
            rebuilt[w] += form.char_coeffs[w, b] * vec
    assert np.max(np.abs(rebuilt - form.omega)) < 1e-8


def per_word_coords(form):
    """Integer character coordinates from one least-squares solve per word."""
    if not form.char_basis:
        worst = max(float(np.linalg.norm(f)) for f in form.omega)
        return np.zeros((form.r, 0), dtype=int), worst
    a = np.stack([np.concatenate([v.real, v.imag]) for v in form.char_basis], axis=1)
    coeffs, worst_round = [], 0.0
    for f in form.omega:
        b = np.concatenate([f.real, f.imag])
        alpha, *_ = np.linalg.lstsq(a, b, rcond=None)
        m = np.round(alpha)
        coeffs.append(m.astype(int))
        worst_round = max(worst_round, float(np.linalg.norm(a @ m - b)))
    return np.array(coeffs), worst_round


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_connection_postconditions_on_corpus(seed, corpus, corpus_splittings):
    split = corpus_splittings[seed]
    env = build_enveloping_rep(split)
    form = build_connection_form(env)
    assert form.flatness < 1e-9
    assert form.residuals["character_rounding"] < 1e-6
    # integer coordinates reproduce every diagonal character; the basis
    # is complex, omega real on a real form
    rebuilt = np.zeros(form.omega.shape, dtype=complex)
    for b, vec in enumerate(form.char_basis):
        rebuilt += np.outer(form.char_coeffs[:, b], vec)
    assert np.max(np.abs(rebuilt - form.omega)) < 1e-6
    # the batched solve gives the coordinates of one solve per word
    coeffs, worst_round = per_word_coords(form)
    assert np.array_equal(form.char_coeffs, coeffs)
    # The residual is one gemm over all words and worst_round a gemv per
    # word; the two roundings may differ by a few ulps of |omega|.
    ulps = 4 * np.spacing(np.max(np.abs(form.omega)))
    assert form.residuals["character_rounding"] == pytest.approx(worst_round, abs=ulps)


# ------------------------------------------------------- integer lattices


def test_lattice_basis_collapses_multiples():
    a = np.array([1.0, 0.0])
    basis = integer_lattice_basis([2 * a, 3 * a], 1e-6)
    assert len(basis) == 1
    assert np.max(np.abs(basis[0] - a)) < 1e-9


def test_lattice_basis_keeps_independent_directions():
    basis = integer_lattice_basis(
        [np.array([1.0, 0.0]), np.array([0.0, 2.0])], 1e-6
    )
    assert len(basis) == 2


def test_lattice_basis_refines_to_common_divisor():
    a = np.array([1.0])
    basis = integer_lattice_basis([2 * a, 5 * a], 1e-6)
    # gcd(2, 5) = 1, so the group is all integer multiples of a
    assert len(basis) == 1
    assert np.max(np.abs(basis[0] - a)) < 1e-9


def test_lattice_basis_handles_rational_ratios():
    a = np.array([1.0, 1.0])
    basis = integer_lattice_basis([a, 1.5 * a], 1e-6)
    assert len(basis) == 1
    assert np.max(np.abs(basis[0] - 0.5 * a)) < 1e-9


def test_lattice_basis_sign_canonicalization():
    basis = integer_lattice_basis([np.array([-1.0, 0.5])], 1e-6)
    # leading nonzero entry is made positive
    assert basis[0][0].real > 0


def test_lattice_basis_is_input_order_independent():
    gens = [np.array([2.0, 0.0]), np.array([3.0, 0.0]), np.array([0.0, 1.0])]
    b1 = integer_lattice_basis(gens, 1e-6)
    b2 = integer_lattice_basis(gens[::-1], 1e-6)
    assert len(b1) == len(b2)
    for u, v in zip(b1, b2):
        assert np.max(np.abs(u - v)) < 1e-9


def test_lattice_basis_drops_zero_generators():
    basis = integer_lattice_basis([np.zeros(2), np.array([1.0, 0.0])], 1e-6)
    assert len(basis) == 1


def test_lattice_rejects_unresolvable_ratio():
    # ratio 0.5 + 1e-9 admits no rational approximation with a bounded
    # denominator inside a 1e-12 tolerance, so refinement must give up
    a = np.array([1.0])
    with pytest.raises(NotInLattice):
        integer_lattice_basis([a, (0.5 + 1e-9) * a], 1e-12)


def test_complex_lattice_with_imaginary_generators():
    basis = integer_lattice_basis(
        [np.array([1j * np.pi, 0.0]), np.array([2j * np.pi, 0.0])], 1e-6
    )
    assert len(basis) == 1
    assert np.max(np.abs(basis[0] - np.array([1j * np.pi, 0.0]))) < 1e-9
