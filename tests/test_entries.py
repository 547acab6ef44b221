"""The enveloping action and the connection form kept as nonzero entries.

The dense computations below are the ones the entry-based build
replaced: the per-generator triangularity, torus Leibniz and scale
passes over the letter stack, psi assembled from dense letter actions,
and the live pattern read off the dense tensor. They stay here as the
oracles of the entries.
"""

import numpy as np
import pytest

from solvhull import (
    PathWord,
    build_connection_form,
    build_enveloping_rep,
    build_splitting,
    entry_chain_value,
    transport_series,
    validate_algebra,
)
from solvhull import envelope as envelope_module
from solvhull.errors import BudgetExceeded, SolvHullError
from solvhull.integrals import closure_pattern
from solvhull.linalg import SparseStack, bracket_residual
from solvhull.tolerances import DEFAULT

from conftest import CORPUS_SEEDS, graded_filiform_structure, letter_action, letter_matrices


def dense_envelope_residuals(env):
    """Triangularity, homomorphism and torus Leibniz residuals, one generator at a time."""
    mats = letter_matrices(env)
    n = mats.shape[0]
    tri = max(float(np.max(np.abs(np.tril(mats[a])))) for a in range(n))
    leib = 0.0
    for b in range(env.word_chars.shape[1]):
        diag = env.word_chars[:, b]
        for a in range(n):
            lhs = diag[:, None] * mats[a] - mats[a] * diag[None, :]
            leib = max(leib, float(np.max(np.abs(lhs - env.gen_chars[a][b] * mats[a]))))
    scale = max(1.0, float(np.max(np.abs(mats))))
    hom = bracket_residual(SparseStack.from_dense(mats), env.gamma)
    return tri, hom / scale, leib / scale


def dense_psi(form):
    """psi_tensor assembled from the dense letter actions and the diagonal characters."""
    env = form.envelope
    psi = np.zeros((form.dim, form.r, form.r), dtype=complex)
    for i in range(form.dim):
        psi[i] = letter_action(env, env.generator_inverse[:, i])
        psi[i][np.diag_indices(form.r)] += form.omega[:, i]
    return psi


def assert_matches_dense(form):
    env = form.envelope
    tri, hom, leib = dense_envelope_residuals(env)
    assert tri == 0.0
    assert env.residuals["action_homomorphism"] == hom
    assert env.residuals["torus_leibniz"] == leib

    psi = form.psi_tensor
    scale = max(1.0, float(np.max(np.abs(psi))))
    assert np.max(np.abs(psi - dense_psi(form))) <= 1e-15 * scale
    structure = env.split.base.structure.astype(complex)
    assert form.flatness == bracket_residual(SparseStack.from_dense(psi), structure) / scale

    live = np.triu(np.max(np.abs(psi), axis=0) > 0.0, 1)
    assert np.array_equal(form.live, live)
    assert form.chain_steps == [row.nonzero()[0].tolist() for row in live]
    reference = closure_pattern(live)
    assert np.array_equal(form.closure.rows, reference.rows)
    assert np.array_equal(form.closure.cols, reference.cols)
    assert np.array_equal(form.closure_psi, psi[:, reference.rows, reference.cols])
    for stack in (env.letter_entries, form.psi_entries):
        assert np.all(np.any(stack.values != 0, axis=0))
        assert np.all(np.diff(stack.rows * stack.size + stack.cols) > 0)


def filiform_form(m):
    split = build_splitting(validate_algebra(graded_filiform_structure(m)))
    return build_connection_form(build_enveloping_rep(split))


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_entries_match_the_dense_build_on_corpus(seed, corpus_splittings):
    assert_matches_dense(build_connection_form(build_enveloping_rep(corpus_splittings[seed])))


def test_entries_match_the_dense_build_on_builtins(sol_stages, sect4_stages):
    assert_matches_dense(sol_stages["form"])
    assert_matches_dense(sect4_stages["form"])


@pytest.mark.parametrize("m", (4, 5, 6, 7, 8))
def test_entries_match_the_dense_build_on_filiform(m):
    assert_matches_dense(filiform_form(m))


def test_build_and_evaluation_never_form_a_dense_stack():
    form = filiform_form(8)
    env = form.envelope
    rng = np.random.default_rng(8)
    path = PathWord(
        [(0.1 * rng.standard_normal(form.dim), float(rng.uniform(0.2, 0.8))) for _ in range(3)]
    )
    last = form.r - 1
    entry_chain_value(form, path, last - 1, last)
    transport_series(form, path, 4)
    assert "psi_tensor" not in vars(form)
    for obj in (form, env):
        for name, value in vars(obj).items():
            dense = isinstance(value, np.ndarray) and value.shape[1:] == (form.r, form.r)
            assert not dense, name
    assert form.psi_tensor.shape == (9, 291, 291)


def test_below_diagonal_entry_fails_triangularity(sect4_stages, monkeypatch):
    order = envelope_module._order_words
    monkeypatch.setattr(
        envelope_module,
        "_order_words",
        lambda *args: tuple(part[::-1] for part in order(*args)),
    )
    with pytest.raises(SolvHullError, match="strictly triangular"):
        build_enveloping_rep(sect4_stages["splitting"])


def test_shifted_character_puts_torus_leibniz_over_budget(sect4_stages, monkeypatch):
    order = envelope_module._order_words

    def shifted(*args):
        words, word_weights, word_chars = order(*args)
        word_chars[0] += 1e-3
        return words, word_weights, word_chars

    monkeypatch.setattr(envelope_module, "_order_words", shifted)
    with pytest.raises(BudgetExceeded) as err:
        build_enveloping_rep(sect4_stages["splitting"])
    assert err.value.key == "torus_leibniz"
    assert err.value.value > DEFAULT.stage_budget


def test_sparse_stack_round_trip():
    rng = np.random.default_rng(2)
    dense = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    dense[rng.random(dense.shape) < 0.7] = 0.0
    dense[:, 2, 4] = 0.0
    mat, row, col = np.nonzero(dense)
    order = np.random.default_rng(3).permutation(mat.size)
    stack = SparseStack.from_entries(
        3, 5, mat[order], row[order], col[order], dense[mat, row, col][order]
    )
    assert np.array_equal(stack.dense(), dense)
    again = SparseStack.from_dense(dense)
    for field in ("rows", "cols", "values"):
        assert np.array_equal(getattr(again, field), getattr(stack, field))
    assert not np.any((stack.rows == 2) & (stack.cols == 4))
    assert np.all(np.diff(stack.rows * 5 + stack.cols) > 0)
    entries = stack.entries()
    for got, want in zip(entries, (mat, row, col, dense[mat, row, col])):
        assert np.array_equal(got, want)
    x = rng.standard_normal(3)
    assert np.allclose(stack.apply(x), np.einsum("i,irs->rs", x, dense), atol=1e-15)
    assert np.array_equal(stack.entry(2, 4), np.zeros(3))
    assert np.array_equal(stack.entry(int(row[0]), int(col[0])), dense[:, row[0], col[0]])

