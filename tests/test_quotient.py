"""The faithful quotient of the truncated enveloping module.

The pipeline evaluates on envelope.faithful_quotient, the quotient by
the span of the words outside the closure S of the empty word and the
letters. The full truncation is the oracle: on every input, no letter
entry leads from S out of S, the quotient is faithful on the shadow, and
its transport is the S x S block of the full transport.
"""

import numpy as np
import pytest

from solvhull import (
    build_connection_form,
    build_enveloping_rep,
    build_monodromy_rep,
    build_splitting,
    linalg,
    transport,
    validate_algebra,
)
from solvhull.envelope import faithful_quotient
from solvhull.verify import _random_path

from conftest import CORPUS_SEEDS, graded_filiform_structure, random_solvable_structure

# (r of the full truncation, r of the quotient); corpus seeds are bounded below.
SIZES = {
    "sol": (4, 4),
    "sect4": (7, 4),
    "torus_heisenberg1": (11, 5),
    "torus_heisenberg2": (29, 8),
    "torus_heisenberg3": (56, 11),
    **{f"filiform{m}": (full, 2 * m - 1) for m, full in zip(range(4, 9), (25, 51, 96, 171, 291))},
}
NAMES = [f"corpus{seed}" for seed in CORPUS_SEEDS] + list(SIZES)


@pytest.fixture(scope="module")
def quotient_of(named_split):
    """(full module, its quotient, S as full word ids) by input name, built once."""
    built = {}

    def get(name):
        if name not in built:
            env = build_enveloping_rep(named_split(name))
            quotient = faithful_quotient(env)
            ids = np.array([env.words.index(word) for word in quotient.words], dtype=int)
            built[name] = env, quotient, ids
        return built[name]

    return get


@pytest.mark.parametrize("name", NAMES)
def test_no_letter_entry_leaves_the_closure(name, quotient_of):
    env, _, ids = quotient_of(name)
    inside = np.isin(np.arange(env.r), ids)
    letters = env.letter_entries
    assert not np.any(inside[letters.rows] & ~inside[letters.cols])
    assert np.all(inside[[w for w, word in enumerate(env.words) if len(word) <= 1]])


@pytest.mark.parametrize("name", NAMES)
def test_quotient_letters_are_the_restricted_letters(name, quotient_of):
    env, quotient, ids = quotient_of(name)
    block = env.letter_entries.dense()[:, ids][:, :, ids]
    assert np.array_equal(quotient.letter_entries.dense(), block)
    assert quotient.words == tuple(env.words[w] for w in ids)
    assert np.array_equal(quotient.word_chars, env.word_chars[ids])
    assert np.array_equal(quotient.word_weights, env.word_weights[ids])


@pytest.mark.parametrize("name", NAMES)
def test_quotient_is_faithful_on_the_shadow(name, quotient_of):
    env, quotient, _ = quotient_of(name)
    n = env.generators.shape[1]
    flat = quotient.letter_entries.dense().reshape(n, -1)
    assert np.linalg.matrix_rank(flat) == n


@pytest.mark.parametrize("name", NAMES)
def test_quotient_transport_is_the_block_of_the_full_one(name, quotient_of):
    env, quotient, ids = quotient_of(name)
    full = build_connection_form(env)
    form = build_connection_form(quotient)
    alg = env.split.base
    path = _random_path(np.random.default_rng(20261019), alg.dim, 4, alg.is_complex, 3.0, full)
    block = transport(full, path)[np.ix_(ids, ids)]
    got = transport(form, path)
    assert np.max(np.abs(got - block)) <= 1e-14 * np.max(np.abs(block))


@pytest.mark.parametrize("name", NAMES)
def test_quotient_sizes(name, quotient_of):
    env, quotient, _ = quotient_of(name)
    if name in SIZES:
        assert (env.r, quotient.r) == SIZES[name]
    else:
        assert quotient.r <= 8


def test_sol_is_its_own_quotient(sol_stages):
    env = build_enveloping_rep(sol_stages["splitting"])
    assert faithful_quotient(env) is env
    assert faithful_quotient(sol_stages["envelope"]) is sol_stages["envelope"]


@pytest.mark.parametrize("name", ["sol", "sect4"])
def test_generator_monodromies_are_the_blocks_of_the_full_ones(name, request, quotient_of):
    problem = request.getfixturevalue(f"{name}_problem")
    stages = request.getfixturevalue(f"{name}_stages")
    env, _, ids = quotient_of(name)
    full = build_monodromy_rep(build_connection_form(env), problem.lattice)
    quotient = build_monodromy_rep(stages["form"], problem.lattice)
    for whole, part in zip(full.matrices, quotient.matrices):
        assert np.array_equal(part, whole[np.ix_(ids, ids)])


def tilted(cluster_subspace, size):
    """cluster_subspace with each basis moved by size out of its span."""

    def wrapped(a, means, idx):
        q, sdim = cluster_subspace(a, means, idx)
        push = np.random.default_rng(a.shape[0] * 100 + idx).standard_normal(q.shape)
        return q + size * (push - q @ (q.conj().T @ push)), sdim

    return wrapped


TILT_INPUTS = {
    **{f"filiform{m}": (graded_filiform_structure, m) for m in range(4, 9)},
    **{f"corpus{seed}": (random_solvable_structure, seed) for seed in CORPUS_SEEDS},
}


@pytest.mark.parametrize("name", sorted(TILT_INPUTS))
def test_quotient_words_ignore_rounding_level_tilts(name, monkeypatch):
    # The weight spaces and Cartan blocks enter the generator basis, so a
    # 1e-15 tilt of every invariant subspace is rounding noise in the
    # bracket table; the quotient, which follows every nonzero letter
    # entry, must not grow with it.
    make, arg = TILT_INPUTS[name]
    structure = make(arg)

    def quotient_words():
        split = build_splitting(validate_algebra(structure))
        return faithful_quotient(build_enveloping_rep(split)).words

    plain = quotient_words()
    monkeypatch.setattr(linalg, "cluster_subspace", tilted(linalg.cluster_subspace, 1e-15))
    assert quotient_words() == plain
