"""The sparse Lie homomorphism residual against the dense per-pair loop.

The dense loop below is the reference the sparse routine replaced in the
envelope and connection stages; it stays here as the oracle.
"""

import dataclasses

import numpy as np
import pytest

from solvhull import BudgetExceeded, build_connection_form, build_enveloping_rep
from solvhull.linalg import SparseStack, bracket_residual

from conftest import CORPUS_SEEDS, letter_matrices


def dense_bracket_residual(mats, consts):
    """Max over a < b of |[M_a, M_b] - sum_m consts[a, b, m] M_m|, pair by pair."""
    worst = 0.0
    n = mats.shape[0]
    for a in range(n):
        for b in range(a + 1, n):
            lhs = mats[a] @ mats[b] - mats[b] @ mats[a]
            rhs = np.einsum("m,mij->ij", consts[a, b, :], mats)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def assert_matches_dense(mats, consts):
    scale = max(1.0, float(np.max(np.abs(mats))))
    sparse = bracket_residual(SparseStack.from_dense(mats), consts)
    dense = dense_bracket_residual(mats, consts)
    assert abs(sparse - dense) <= 1e-13 * scale, (sparse, dense, scale)


def structure_of(form):
    return form.envelope.split.base.structure.astype(complex)


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_bracket_residual_matches_dense_loop_on_corpus(seed, corpus_splittings):
    env = build_enveloping_rep(corpus_splittings[seed])
    form = build_connection_form(env)
    assert_matches_dense(letter_matrices(env), env.gamma)
    assert_matches_dense(form.psi_tensor, structure_of(form))


def test_bracket_residual_matches_dense_loop_on_builtins_and_filiform(
    sol_stages, sect4_stages, filiform_forms
):
    forms = [sol_stages["form"], sect4_stages["form"], *filiform_forms.values()]
    for form in forms:
        env = form.envelope
        assert_matches_dense(letter_matrices(env), env.gamma)
        assert_matches_dense(form.psi_tensor, structure_of(form))


def test_bracket_residual_sees_a_small_defect(sol_stages, sect4_stages, filiform_forms):
    delta = 1e-6
    forms = [sol_stages["form"], sect4_stages["form"], *filiform_forms.values()]
    for form in forms:
        psi = form.psi_tensor.copy()
        # The top right corner of the second basis element's matrix is a
        # strictly upper entry that is zero in psi and does not commute
        # with the rest of the stack.
        psi[1, 0, form.r - 1] += delta
        stack = SparseStack.from_dense(psi)
        assert bracket_residual(stack, structure_of(form)) >= delta / 2


def test_bracket_residual_of_trivial_stacks_is_zero():
    rng = np.random.default_rng(5)
    one = SparseStack.from_dense(rng.standard_normal((1, 6, 6)))
    assert bracket_residual(one, rng.standard_normal((1, 1, 1))) == 0.0
    zeros = SparseStack.from_dense(np.zeros((4, 7, 7)))
    assert zeros.rows.size == 0
    assert bracket_residual(zeros, np.zeros((4, 4, 4))) == 0.0
    scalars = rng.standard_normal((5, 1, 1)) + 1j * rng.standard_normal((5, 1, 1))
    assert bracket_residual(SparseStack.from_dense(scalars), np.zeros((5, 5, 5))) == 0.0


def test_bracket_residual_of_non_finite_entry_is_inf(sect4_stages):
    form = sect4_stages["form"]
    psi = form.psi_tensor.copy()
    psi[0, 0, 1] = np.nan
    assert bracket_residual(SparseStack.from_dense(psi), structure_of(form)) == np.inf
    consts = structure_of(form)
    consts[0, 1, -1] = np.inf
    assert bracket_residual(form.psi_entries, consts) == np.inf

    env = form.envelope
    values = env.letter_entries.values.copy()
    values[0, 0] = np.nan
    broken = dataclasses.replace(env.letter_entries, values=values)
    assert bracket_residual(broken, env.gamma) == np.inf
    with pytest.raises(BudgetExceeded) as err:
        build_connection_form(dataclasses.replace(env, letter_entries=broken))
    assert err.value.key == "flatness"
