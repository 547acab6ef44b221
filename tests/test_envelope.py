"""Truncated enveloping module: monomial order, triangularity, exactness."""

import gc
from itertools import combinations_with_replacement

import numpy as np
import pytest

from solvhull import (
    TruncationOverflow,
    build_connection_form,
    build_enveloping_rep,
    build_splitting,
    validate_algebra,
)
from solvhull.envelope import _CharRegistry, _enumerate_words
from solvhull.errors import SolvHullError
from solvhull.tolerances import DEFAULT, Tolerances

from conftest import (
    CORPUS_SEEDS,
    filiform4_structure,
    letter_action,
    letter_matrices,
    shadow_action,
    torus_diagonal,
    torus_heisenberg_structure,
)


@pytest.fixture(scope="module")
def filiform_split():
    return build_splitting(validate_algebra(filiform4_structure()))


def test_sol_envelope_shape(sol_stages):
    env = sol_stages["envelope"]
    assert env.mode == "plain"
    assert env.cap == 1
    assert env.r == 4
    assert env.words == ((0,), (1,), (2,), ())


def test_sect4_envelope_shape(sect4_stages):
    env = sect4_stages["envelope"]
    assert env.mode == "plain"
    assert env.cap == 2
    assert env.r == 10
    assert env.words == (
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 1),
        (1, 2),
        (2, 2),
        (0,),
        (1,),
        (2,),
        (),
    )


def test_sect4_generator_weights_and_characters(sect4_stages):
    env = sect4_stages["envelope"]
    assert env.gen_weights == (2, 1, 1)
    # the deep generator and one step generator share the torus character,
    # the remaining step generator is fixed by the torus
    assert env.gen_chars[0] == env.gen_chars[2]
    assert abs(env.gen_chars[0][0]) > 0.1
    assert env.gen_chars[1] == (0j,)


def test_letter_matrices_strictly_upper_triangular(sol_stages, sect4_stages):
    for stages in (sol_stages, sect4_stages):
        mats = letter_matrices(stages["envelope"])
        for a in range(mats.shape[0]):
            assert np.all(np.tril(mats[a]) == 0)


def test_letter_matrices_are_nilpotent(sect4_stages):
    env = sect4_stages["envelope"]
    mats = letter_matrices(env)
    for a in range(mats.shape[0]):
        power = np.linalg.matrix_power(mats[a], env.r)
        assert np.max(np.abs(power)) == 0.0


def test_word_weights_sorted_descending(sect4_stages):
    w = sect4_stages["envelope"].word_weights
    assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def test_action_is_lie_homomorphism(sect4_stages):
    env = sect4_stages["envelope"]
    mats = letter_matrices(env)
    n = mats.shape[0]
    for a in range(n):
        for b in range(n):
            lhs = mats[a] @ mats[b] - mats[b] @ mats[a]
            rhs = np.einsum("m,mij->ij", env.gamma[a, b, :], mats)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_torus_action_is_diagonal_with_word_characters(sect4_stages):
    env = sect4_stages["envelope"]
    split = env.split
    mats = letter_matrices(env)
    # Leibniz: bracketing the diagonal torus action with a letter action
    # shifts it by the letter's character
    for b in range(split.torus.shape[0]):
        diag = env.word_chars[:, b]
        for a in range(mats.shape[0]):
            m = mats[a]
            comm = diag[:, None] * m - m * diag[None, :]
            assert np.max(np.abs(comm - env.gen_chars[a][b] * m)) < 1e-10


def test_letter_action_linearity(sol_stages):
    env = sol_stages["envelope"]
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    lhs = letter_action(env, x + 2.0 * y)
    rhs = letter_action(env, x) + 2.0 * letter_action(env, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_shadow_action_matches_letters_on_generators(sect4_stages):
    env = sect4_stages["envelope"]
    for a in range(env.generators.shape[1]):
        m = shadow_action(env, env.generators[:, a])
        assert np.max(np.abs(m - letter_matrices(env)[a])) < 1e-10


def test_shadow_action_is_a_homomorphism(sect4_stages):
    env = sect4_stages["envelope"]
    shadow = env.split.shadow
    rng = np.random.default_rng(4)
    for _ in range(4):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = shadow_action(env, shadow.bracket(x, y))
        rhs = shadow_action(env, x) @ shadow_action(env, y)
        rhs = rhs - shadow_action(env, y) @ shadow_action(env, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_torus_diagonal_accumulates_characters(sect4_stages):
    env = sect4_stages["envelope"]
    coeffs = np.array([1.5])
    diag = torus_diagonal(env, coeffs)
    for i, word in enumerate(env.words):
        expected = sum(env.gen_chars[a][0] for a in word) * 1.5
        assert abs(diag[i] - expected) < 1e-10


def test_class_three_shadow_uses_weighted_mode(filiform_split):
    env = build_enveloping_rep(filiform_split)
    assert env.mode == "weighted"
    assert env.cap == 3
    assert env.r == 14
    assert env.residuals["action_homomorphism"] < 1e-10
    mats = letter_matrices(env)
    for a in range(4):
        assert np.all(np.tril(mats[a]) == 0)


def test_plain_truncation_fails_beyond_class_two(filiform_split):
    # plain degree truncation is not a homomorphism from class three on,
    # and the residual budget notices
    with pytest.raises(SolvHullError):
        build_enveloping_rep(filiform_split, mode="plain", cap=3)


def test_weighted_mode_override_on_class_one(sol_stages):
    env = build_enveloping_rep(sol_stages["splitting"], mode="weighted", cap=1)
    assert env.r == 4  # all weights are one, so the module is unchanged


def test_unknown_mode_rejected(sol_stages):
    with pytest.raises(ValueError):
        build_enveloping_rep(sol_stages["splitting"], mode="cubic")


def test_truncation_overflow(filiform_split):
    with pytest.raises(TruncationOverflow):
        build_enveloping_rep(filiform_split, max_dim=3)


def exhaustive_words(n, weights, mode, cap, max_dim):
    """Every multiset of length at most cap, filtered by weight afterwards."""
    words = []
    for length in range(cap + 1):
        for combo in combinations_with_replacement(range(n), length):
            if mode == "weighted" and sum(weights[a] for a in combo) > cap:
                continue
            words.append(combo)
            if len(words) > max_dim:
                raise TruncationOverflow(len(words), max_dim)
    return words


def words_or_overflow(enumerate_words, *args):
    try:
        return enumerate_words(*args)
    except TruncationOverflow as exc:
        return str(exc)


def test_pruned_word_enumeration_matches_exhaustive_filter():
    rng = np.random.default_rng(12)
    # The rank 8 graded filiform shadow: 291 of 11440 multisets survive.
    cases = [(9, (7, 6, 5, 4, 3, 2, 1, 1, 1), "weighted", 7, 512)]
    for _ in range(300):
        n = int(rng.integers(0, 7))
        weights = tuple(sorted(rng.integers(1, 4, size=n).tolist(), reverse=True))
        cases.append(
            (n, weights, str(rng.choice(["plain", "weighted"])), int(rng.integers(0, 5)),
             int(rng.choice([0, 1, 6, 30, 512])))
        )
    overflows = 0
    for case in cases:
        expected = words_or_overflow(exhaustive_words, *case)
        assert words_or_overflow(_enumerate_words, *case) == expected, case
        overflows += isinstance(expected, str)
    assert 0 < overflows < len(cases)
    assert len(_enumerate_words(*cases[0])) == 291


def test_build_leaves_no_reference_cycles(filiform_split):
    """The product cache is freed when the build returns, not by the collector."""
    build_enveloping_rep(filiform_split)
    gc.collect()
    gc.disable()
    try:
        build_enveloping_rep(filiform_split)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_raising_the_cap_keeps_exactness(sect4_stages):
    env = build_enveloping_rep(sect4_stages["splitting"], cap=3)
    assert env.r > 10
    assert env.residuals["action_homomorphism"] < 1e-10


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_envelope_postconditions_on_corpus(seed, corpus):
    split = build_splitting(corpus[seed])
    env = build_enveloping_rep(split)
    # strict triangularity holds exactly
    mats = letter_matrices(env)
    for a in range(mats.shape[0]):
        assert np.all(np.tril(mats[a]) == 0)
    # every numerical residual stays small
    for key, val in env.residuals.items():
        assert val < 1e-8, (key, val)


@pytest.mark.parametrize("k, r", [(1, 15), (2, 36), (3, 66)])
def test_torus_heisenberg_builds(k, r):
    """The rank-k torus on H_{2k+1} builds through the connection form."""
    alg = validate_algebra(torus_heisenberg_structure(k))
    assert alg.dim == 3 * k + 1
    env = build_enveloping_rep(build_splitting(alg))
    assert env.r == r
    assert build_connection_form(env).flatness < 1e-12


def test_char_registry_radii_follow_num():
    loose = _CharRegistry(Tolerances(num=1e-5))
    assert loose.canon((1.0,)) == loose.canon((1.0 + 5e-4,))
    assert loose.canon((2e-7 + 1j,)) == (1j,)
    strict = _CharRegistry(DEFAULT)
    assert strict.canon((1.0,)) != strict.canon((1.0 + 5e-4,))
    assert strict.canon((2e-7 + 1j,)) != (1j,)


@pytest.mark.parametrize("num", (1e-10, 1e-6))
def test_build_with_a_non_default_num(num, sol_stages, sect4_stages, filiform_split):
    splits = (sol_stages["splitting"], sect4_stages["splitting"], filiform_split)
    for split in splits:
        default = build_enveloping_rep(split)
        env = build_enveloping_rep(split, Tolerances(num=num))
        assert env.words == default.words
        assert env.gen_chars == default.gen_chars
        assert np.array_equal(env.word_chars, default.word_chars)
        for name, value in default.residuals.items():
            assert env.residuals[name] == value, name
