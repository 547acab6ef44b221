"""The sparse Lie homomorphism residual against the dense per-pair loop,
and the one memo.

The dense loop below is the reference the sparse routine replaced in the
envelope and connection stages; it stays here as the oracle.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from solvhull import BudgetExceeded, build_connection_form, build_enveloping_rep, linalg
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


# ------------------------------------------------------------ the one memo


def test_memo_holds_the_least_recently_used_values_within_its_entry_bound(monkeypatch):
    monkeypatch.setattr(linalg, "_MEMO_SIZE", 3)
    memo = linalg.Memo()
    made = []

    def make(key):
        made.append(key)
        return (key,)

    for key in "abc":
        memo(key, make, key)
    first = memo("a", make, "a")
    memo("d", make, "d")
    assert made == list("abcd") and len(memo) == 3
    assert memo("a", make, "a") is first
    memo("b", make, "b")
    assert made == list("abcdb") and memo.misses == 5


def test_memo_counts_array_bytes_and_computes_an_oversized_value_each_time(monkeypatch):
    monkeypatch.setattr(linalg, "_MEMO_BYTES", 100)
    memo = linalg.Memo()
    monkeypatch.setattr(linalg, "_MEMO_BYTES", 0)
    assert memo.maxbytes == 100
    memo(1, np.zeros, 5)
    memo(2, np.zeros, 5)
    assert len(memo) == 2 and memo.nbytes == 80
    memo(3, np.zeros, 5)
    assert len(memo) == 2 and memo.nbytes == 80
    assert memo(4, tuple, "ab") == ("a", "b") and memo.nbytes == 80 and len(memo) == 3
    # Eviction runs oldest first, so a value over the bound evicts every
    # other before itself.
    big = [memo(5, np.zeros, 13) for _ in range(2)]
    assert big[0] is not big[1] and memo.misses == 6
    assert memo.nbytes == 0 and len(memo) == 0


def test_a_memo_holds_nothing_when_its_computation_fails():
    memo = linalg.Memo()
    with pytest.raises(ZeroDivisionError):
        memo("x", divmod, 1, 0)
    assert len(memo) == 0 and memo.misses == 1
    assert memo("x", divmod, 7, 2) == (3, 1)


def test_a_copied_or_pickled_memo_starts_empty(sol_problem, sol_stages):
    memo = linalg.Memo()
    memo("a", len, "abc")
    for copied in (copy.deepcopy(memo), pickle.loads(pickle.dumps(memo))):
        assert len(copied) == 0 and copied("a", len, "ab") == 2
    form = sol_stages["form"]
    form.chain_plan(0, form.r - 1)
    for holder in (form, sol_problem.model, sol_problem.lattice):
        assert type(copy.deepcopy(holder)) is type(pickle.loads(pickle.dumps(holder))) is type(holder)
    assert len(copy.deepcopy(form)._chain_plans) == 0
