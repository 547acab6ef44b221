"""Truncated enveloping module: monomial order, triangularity, exactness."""

import dataclasses
import gc
import json
from itertools import combinations_with_replacement

import numpy as np
import pytest

from solvhull import (
    TruncationOverflow,
    build_connection_form,
    build_enveloping_rep,
    build_splitting,
    cli,
    envelope,
    linalg,
    parse_problem,
    validate_algebra,
)
from solvhull.envelope import (
    _build_generators,
    _enumerate_words,
    _order_words,
    _snapped,
    _weight_spaces,
)
from solvhull.errors import SolvHullError, ValidationError
from solvhull.tolerances import DEFAULT, Tolerances
from solvhull.verify import build_stages

from conftest import (
    CORPUS_SEEDS,
    bracket,
    filiform4_structure,
    letter_action,
    letter_matrices,
    shadow_action,
    torus_diagonal,
    torus_heisenberg_structure,
)
from eigen_oracle import joint_eigenbasis


@pytest.fixture(scope="module")
def filiform_split():
    return build_splitting(validate_algebra(filiform4_structure()))


def test_sol_envelope_shape(sol_stages):
    env = sol_stages["envelope"]
    assert env.cap == 1
    assert env.r == 4
    assert env.words == ((0,), (1,), (2,), ())


def test_sect4_envelope_shape(sect4_full_stages):
    env = sect4_full_stages["envelope"]
    assert env.cap == 2
    assert env.r == 7
    # g0 has series weight 2, so it takes no second letter
    assert env.words == (
        (1, 1),
        (1, 2),
        (2, 2),
        (0,),
        (1,),
        (2,),
        (),
    )


def test_sect4_quotient_shape(sect4_stages):
    """The pipeline's module: sect4's letters and the empty word."""
    env = sect4_stages["envelope"]
    assert env.cap == 2
    assert env.r == 4
    assert env.words == ((0,), (1,), (2,), ())


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
        lhs = shadow_action(env, bracket(shadow, x, y))
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
    assert env.cap == 3
    assert env.r == 14
    assert env.residuals["action_homomorphism"] < 1e-10
    mats = letter_matrices(env)
    for a in range(4):
        assert np.all(np.tril(mats[a]) == 0)


def plain_words(n, weights, cap, max_dim):
    """Every multiset of length at most cap: plain degree truncation."""
    return [
        combo
        for length in range(cap + 1)
        for combo in combinations_with_replacement(range(n), length)
    ]


def test_plain_truncation_fails_beyond_class_two(filiform_split, monkeypatch):
    # plain degree truncation is not a homomorphism from class three on,
    # and the residual budget notices
    monkeypatch.setattr(envelope, "_enumerate_words", plain_words)
    with pytest.raises(SolvHullError):
        build_enveloping_rep(filiform_split)


def test_weighted_mode_override_on_class_one(sol_stages):
    env = build_enveloping_rep(sol_stages["splitting"], cap=1)
    assert env.r == 4  # all weights are one, so the module is unchanged


@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_is_rejected(cap, sect4_stages):
    with pytest.raises(ValidationError, match="cap must be at least 1"):
        build_enveloping_rep(sect4_stages["splitting"], cap=cap)


def test_cap_below_the_largest_weight_builds_an_unfaithful_module(sect4_stages):
    # Allowed as a negative control: sect4 has a letter of weight 2,
    # which a cap of 1 drops, so the letters no longer act faithfully.
    env = build_enveloping_rep(sect4_stages["splitting"], cap=1)
    assert (env.cap, env.r, max(env.gen_weights)) == (1, 3, 2)
    quotient = envelope.faithful_quotient(env)
    n = env.generators.shape[1]
    flat = quotient.letter_entries.dense().reshape(n, -1)
    assert np.linalg.matrix_rank(flat) < n


def test_truncation_overflow(filiform_split):
    with pytest.raises(TruncationOverflow):
        build_enveloping_rep(filiform_split, max_dim=3)


def exhaustive_words(n, weights, cap, max_dim):
    """Every multiset of length at most cap, filtered by weight afterwards."""
    words = []
    for length in range(cap + 1):
        for combo in combinations_with_replacement(range(n), length):
            if sum(weights[a] for a in combo) > cap:
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
    cases = [(9, (7, 6, 5, 4, 3, 2, 1, 1, 1), 7, 512)]
    for _ in range(300):
        n = int(rng.integers(0, 7))
        weights = tuple(sorted(rng.integers(1, 4, size=n).tolist(), reverse=True))
        cases.append(
            (n, weights, int(rng.integers(0, 5)), int(rng.choice([0, 1, 6, 30, 512])))
        )
    overflows = 0
    for case in cases:
        expected = words_or_overflow(exhaustive_words, *case)
        assert words_or_overflow(_enumerate_words, *case) == expected, case
        overflows += isinstance(expected, str)
    assert 0 < overflows < len(cases)
    assert len(_enumerate_words(*cases[0])) == 291


def test_build_leaves_no_reference_cycles(filiform_split):
    """The product table is freed when the build returns, not by the collector."""
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


@pytest.mark.parametrize("k, r", [(1, 11), (2, 29), (3, 56)])
def test_torus_heisenberg_builds(k, r):
    """The rank-k torus on H_{2k+1} builds through the connection form."""
    alg = validate_algebra(torus_heisenberg_structure(k))
    assert alg.dim == 3 * k + 1
    env = build_enveloping_rep(build_splitting(alg))
    assert env.r == r
    assert build_connection_form(env).flatness < 1e-12


def test_char_snap_radius_follows_num():
    assert _snapped((2e-7 + 1j,), Tolerances(num=1e-5)) == (1j,)
    assert _snapped((2e-7 + 1j,), DEFAULT) == (2e-7 + 1j,)


# Two torus characters, 0.70693 and 0.70728, closer than char_match at
# num = 1e-5. They are still two weight spaces.
CLOSE_SPEC = {
    "name": "close",
    "basis_names": ["t", "x", "y"],
    "structure": [[0, 1, 1, 1.0, 0.0], [0, 2, 2, 1.0005, 0.0]],
}


def test_close_characters_keep_both_weight_spaces(tmp_path, capsys):
    stages = build_stages(parse_problem(CLOSE_SPEC, tolerances=Tolerances(num=1e-5)))
    env = stages["envelope"]
    assert env.r == 4
    assert len({ch for ch in env.gen_chars if any(ch)}) == 2

    spec = tmp_path / "close.json"
    spec.write_text(json.dumps(CLOSE_SPEC))
    assert cli.main(["hull", "--spec", str(spec), "--tol-num", "1e-5"]) == cli.EXIT_OK
    assert "module dimension: 4 " in capsys.readouterr().out


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


def rotated_series(split, seed):
    """The splitting with every series level in a seeded random unitary basis."""
    rng = np.random.default_rng(seed)
    levels = []
    for q in split.shadow_series:
        d = q.shape[1]
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        levels.append(q @ u)
    return dataclasses.replace(split, shadow_series=tuple(levels))


class CharRegistry:
    """Canonical store of character tuples matched up to a small radius.

    Restricting the torus to different invariant subspaces recomputes the
    same eigenvalues with independent rounding noise; the registry makes
    those recomputations land on identical canonical tuples. Components
    below tolerances.char_snap become zero; tuples within
    tolerances.char_match of a known one in every component become it.
    """

    def __init__(self, tolerances):
        self.tolerances = tolerances
        self.chars = []

    def canon(self, char):
        snapped = _snapped(tuple(complex(z) for z in char), self.tolerances)
        for known in self.chars:
            if all(abs(a - b) <= self.tolerances.char_match for a, b in zip(known, snapped)):
                return known
        self.chars.append(snapped)
        return snapped


def char_key(char):
    return tuple((z.real, z.imag) for z in char)


def grouped_eigencolumns(mats, basis, tolerances):
    """Joint eigenvectors of the torus restricted to span(basis).

    Returns a dict mapping character tuples to canonical column bases
    expressed in ambient coordinates.
    """
    if basis.shape[1] == 0:
        return {}
    if not mats:
        return {(): basis}
    restricted = [basis.conj().T @ m @ basis for m in mats]
    vecs, chars, _ = joint_eigenbasis(restricted, tolerances.cluster_scale, tolerances.num)
    groups = {}
    for j, ch in enumerate(chars):
        groups.setdefault(ch, []).append(basis @ vecs[:, j])
    return {
        ch: linalg.canon_columns(np.stack(cols, axis=1), tolerances.alg)
        for ch, cols in groups.items()
    }


def per_level_generators(split, tolerances):
    """The generator extraction with one joint eigendecomposition per level.

    Each series level gets its own eigendecomposition of the restricted
    torus; the letters of weight k are the complement of level k + 1's
    character group in level k's. Returns (gmat, weights, chars).
    """
    mats = [split.torus[b].astype(complex) for b in range(split.torus.shape[0])]
    registry = CharRegistry(tolerances)
    level_groups = []
    for basis in split.shadow_series:
        groups = grouped_eigencolumns(mats, basis.astype(complex), tolerances)
        level_groups.append({registry.canon(ch): q for ch, q in groups.items()})
    letters = []
    for k in range(split.shadow_class, 0, -1):
        here, deeper = level_groups[k - 1], level_groups[k]
        for ch in sorted(here, key=char_key):
            comp = here[ch]
            small = deeper.get(ch)
            if small is not None and small.shape[1] > 0:
                ker = linalg.nullspace(small.conj().T @ comp, tolerances.alg)
                comp = linalg.canon_columns(comp @ ker, tolerances.alg)
            letters.extend((comp[:, j], k, ch) for j in range(comp.shape[1]))
    gmat = np.stack([vec for vec, _, _ in letters], axis=1)
    return gmat, tuple(w for _, w, _ in letters), tuple(ch for _, _, ch in letters)


def letter_projectors(gmat, weights, chars):
    """Orthogonal projector onto each (weight, character) letter set."""
    out = {}
    for key in dict.fromkeys(zip(weights, chars)):
        cols = [j for j, wc in enumerate(zip(weights, chars)) if wc == key]
        q = gmat[:, cols]
        out[key] = q @ q.conj().T
    return out


ALL_NAMES = (
    [f"corpus{seed}" for seed in CORPUS_SEEDS]
    + ["sol", "sect4"]
    + [f"filiform{m}" for m in range(4, 10)]
    + [f"torus_heisenberg{k}" for k in (1, 2, 3)]
)
ROTATION_NAMES = (
    [f"corpus{seed}" for seed in CORPUS_SEEDS]
    + ["sol", "sect4"]
    + [f"filiform{m}" for m in (4, 6, 8)]
    + [f"torus_heisenberg{k}" for k in (1, 2, 3)]
)


CAP_NAMES = (
    [f"corpus{seed}" for seed in CORPUS_SEEDS]
    + ["sol", "sect4"]
    + [f"torus_heisenberg{k}" for k in (1, 2, 3)]
    + [f"filiform{m}" for m in (4, 5, 6)]
)


def looped_order_words(words, weights, chars, t_dim):
    """Oracle: each word's weight and character summed letter by letter in Python, the route before numpy."""
    summed = []
    for word in words:
        acc = [0.0 + 0.0j] * t_dim
        for a in word:
            for b in range(t_dim):
                acc[b] += chars[a][b]
        summed.append((sum(weights[a] for a in word), acc, word))
    summed.sort(key=lambda item: (-item[0], -len(item[2]), linalg.rounded_key(item[1]), item[2]))
    word_weights = np.array([weight for weight, _, _ in summed], dtype=int)
    word_chars = np.array([acc for _, acc, _ in summed], dtype=complex)
    return [word for _, _, word in summed], word_weights, word_chars


@pytest.mark.parametrize("name", ALL_NAMES)
def test_ordered_words_match_the_letter_loop_bit_for_bit(name, named_split):
    split = named_split(name)
    _, _, weights, chars, _, _ = _build_generators(split, DEFAULT)
    words = _enumerate_words(len(weights), weights, max(1, split.shadow_class), 4096)
    t_dim = split.torus.shape[0]
    got = _order_words(words, weights, chars, t_dim)
    want = looped_order_words(words, weights, chars, t_dim)
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", CAP_NAMES)
def test_every_word_has_series_weight_at_most_the_cap(name, named_split):
    """The module is truncated by series weight, never by plain degree."""
    env = build_enveloping_rep(named_split(name))
    weights = [sum(env.gen_weights[a] for a in word) for word in env.words]
    assert max(weights) <= env.cap
    assert env.word_weights.tolist() == weights
    n = len(env.gen_weights)
    assert sorted(env.words) == sorted(exhaustive_words(n, env.gen_weights, env.cap, 512))


@pytest.mark.parametrize("name", ROTATION_NAMES)
def test_generators_depend_only_on_the_series_subspaces(name, named_split):
    split = named_split(name)
    gmat = _build_generators(split, DEFAULT)[0]
    for seed in (1, 2):
        turned = _build_generators(rotated_series(split, seed), DEFAULT)[0]
        assert np.max(np.abs(turned - gmat)) <= 1e-12, seed


@pytest.mark.parametrize("name", ALL_NAMES)
def test_generators_match_the_per_level_extraction(name, named_split):
    split = named_split(name)
    gmat, _, weights, chars, _, _ = _build_generators(split, DEFAULT)
    oracle, oracle_weights, oracle_chars = per_level_generators(split, DEFAULT)
    assert weights == oracle_weights
    assert np.max(np.abs(np.array(chars) - np.array(oracle_chars)), initial=0.0) <= 1e-12
    ours = letter_projectors(gmat, weights, chars)
    theirs = letter_projectors(oracle, weights, chars)
    for key, proj in ours.items():
        assert np.max(np.abs(proj - theirs[key])) <= 1e-12, key
    # Where the per-level extraction ignores the incoming series bases,
    # its generator matrix is the same one.
    turned = per_level_generators(rotated_series(split, 1), DEFAULT)[0]
    if np.max(np.abs(turned - oracle)) <= 1e-12:
        assert np.max(np.abs(gmat - oracle)) <= 1e-12


@pytest.mark.parametrize("name", ALL_NAMES)
def test_weight_spaces_are_the_torus_joint_eigenspaces(name, named_split):
    """The semisimple adjoint's weight blocks against the joint eigenbasis oracle."""
    split = named_split(name)
    spaces, chars = _weight_spaces(split, DEFAULT)
    mats = list(split.torus)
    if not mats:
        assert chars == [()]
        assert np.array_equal(spaces[0], np.eye(split.dim))
        return
    assert len(spaces) == len(split.semisimple.weight_blocks)
    # The oracle's columns come in runs of one character, in the same order.
    vecs, col_chars, _ = joint_eigenbasis(mats, DEFAULT.cluster_scale, DEFAULT.num)
    runs = {}
    for j, ch in enumerate(col_chars):
        runs.setdefault(ch, []).append(vecs[:, j])
    assert len(runs) == len(spaces)
    for q, ch, (theirs_ch, theirs) in zip(spaces, chars, runs.items()):
        assert np.max(np.abs(np.subtract(ch, theirs_ch))) <= 1e-12, ch
        theirs = np.stack(theirs, axis=1)
        assert np.max(np.abs(q @ q.conj().T - theirs @ theirs.conj().T)) <= 1e-12, ch


@pytest.mark.parametrize("name", ["sect4", "torus_heisenberg3", "filiform6"])
def test_envelope_computes_no_eigenvalues(name, named_split, monkeypatch):
    split = named_split(name)
    assert split.shadow_class >= 2 and split.torus.shape[0]

    def refuse(*args, **kwargs):
        raise AssertionError("the envelope stage computed eigenvalues")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(linalg.lapack, "eigvals", refuse)
    build_enveloping_rep(split)


@pytest.mark.parametrize("name", ["sect4", "torus_heisenberg3"])
def test_each_weight_space_is_canonicalized_once(name, named_split, monkeypatch):
    """One canon_columns call per weight space, and two more for the letters.

    In both algebras one weight space holds a proper part of series level
    2, so its letters of weight 2 and of weight 1 take one call each; every
    other weight space is empty at level 2 or filled by it and takes none.
    """
    split = named_split(name)
    mats = [split.torus[b].astype(complex) for b in range(split.torus.shape[0])]
    _, chars, _ = joint_eigenbasis(mats, DEFAULT.cluster_scale, DEFAULT.num)
    assert len(set(chars)) >= 2
    calls = []
    inside_letters = []
    original = linalg.canon_columns
    original_letters = envelope._letters_within

    def counted(*args, **kwargs):
        calls.append(bool(inside_letters))
        return original(*args, **kwargs)

    def letters(*args):
        inside_letters.append(True)
        try:
            return original_letters(*args)
        finally:
            inside_letters.pop()

    monkeypatch.setattr(linalg, "canon_columns", counted)
    monkeypatch.setattr(envelope, "_letters_within", letters)
    _build_generators(split, DEFAULT)
    assert calls.count(False) == len(set(chars))
    assert calls.count(True) == 2


@pytest.mark.parametrize("name", ["sect4", "torus_heisenberg3", "filiform6"])
def test_each_torus_spectral_norm_is_taken_once(name, named_split, monkeypatch):
    split = named_split(name)
    mats = [split.torus[b].astype(complex) for b in range(split.torus.shape[0])]
    assert mats
    spectral = []
    original = np.linalg.norm

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2:
            spectral.append(np.array(x))
        return original(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    _build_generators(split, DEFAULT)
    assert len(spectral) == len(mats)
    for m, seen in zip(mats, spectral):
        assert np.array_equal(m, seen)


def test_series_level_outside_the_weight_spaces_is_rejected(sect4_stages):
    split = sect4_stages["splitting"]
    levels = list(split.shadow_series)
    # The all-ones direction meets weight spaces of two characters.
    levels[1] = np.ones((3, 1)) / np.sqrt(3.0)
    broken = dataclasses.replace(split, shadow_series=tuple(levels))
    with pytest.raises(SolvHullError, match="series level 2 has 2 of its 1 dimensions"):
        _build_generators(broken, DEFAULT)


def tuple_keyed_products(env):
    """Oracle: the build's products keyed on (letter, word tuple), recursing on demand.

    Recomputes the words, their weights and characters, the letter entries
    and the two residuals that depend on them from env's generator data.
    """
    n = env.gamma.shape[0]
    t_dim = env.split.torus.shape[0]
    words, word_weights, word_chars = _order_words(
        _enumerate_words(n, env.gen_weights, env.cap, 512),
        env.gen_weights, env.gen_chars, t_dim,
    )
    index = {w: i for i, w in enumerate(words)}
    r = len(words)
    gamma = env.gamma
    brackets = [
        [[(int(m), gamma[a, b, m]) for m in np.flatnonzero(gamma[a, b])] for b in range(n)]
        for a in range(n)
    ]
    cache = {}

    def normal_product(a, word):
        key = (a, word)
        hit = cache.get(key)
        if hit is not None:
            return hit
        out = {}
        if not word or a <= word[0]:
            new = (a,) + word
            if new in index:
                out[new] = out.get(new, 0.0) + 1.0
        else:
            b, rest = word[0], word[1:]
            for w2, c2 in normal_product(a, rest).items():
                for w3, c3 in normal_product(b, w2).items():
                    out[w3] = out.get(w3, 0.0) + c2 * c3
            for m, coeff in brackets[a][b]:
                for w2, c2 in normal_product(m, rest).items():
                    out[w2] = out.get(w2, 0.0) + coeff * c2
        out = {w: c for w, c in out.items() if c != 0.0}
        cache[key] = out
        return out

    counts, row, value = [], [], []
    for a in range(n):
        for word in words:
            column = normal_product(a, word)
            counts.append(len(column))
            row.extend(map(index.__getitem__, column))
            value.extend(column.values())
    letter, col = np.divmod(np.repeat(np.arange(n * r), counts), r)
    row = np.array(row, dtype=int)
    value = np.array(value, dtype=complex)
    entries = linalg.SparseStack.from_entries(n, r, letter, row, col, value)

    entry = value[:, None]
    lhs = word_chars[row] * entry - entry * word_chars[col]
    shift = np.array(env.gen_chars, dtype=complex).reshape(n, t_dim)[letter] * entry
    scale = max(1.0, float(np.max(np.abs(value), initial=0.0)))
    return {
        "words": tuple(words),
        "word_weights": word_weights,
        "word_chars": word_chars,
        "rows": entries.rows,
        "cols": entries.cols,
        "values": entries.values,
        "action_homomorphism": linalg.bracket_residual(entries, gamma) / scale,
        "torus_leibniz": float(np.max(np.abs(lhs - shift), initial=0.0)) / scale,
    }


# (name, num, cap); None is the default tolerances or cap.
ORACLE_CASES = [(name, None, None) for name in ALL_NAMES] + [
    ("corpus3", None, 2),
    ("sol", None, 3),
    ("sect4", None, 3),
    ("sect4", None, 4),
    ("sect4", 1e-5, None),
    ("filiform5", None, 3),
    ("filiform6", None, 4),
    ("torus_heisenberg2", None, 3),
]


@pytest.mark.parametrize("name, num, cap", ORACLE_CASES)
def test_word_id_products_match_the_tuple_keyed_recursion(name, num, cap, named_split):
    tolerances = DEFAULT if num is None else Tolerances(num=num)
    env = build_enveloping_rep(named_split(name), tolerances, cap=cap)
    oracle = tuple_keyed_products(env)
    assert env.words == oracle["words"]
    ours = {
        "word_weights": env.word_weights,
        "word_chars": env.word_chars,
        "rows": env.letter_entries.rows,
        "cols": env.letter_entries.cols,
        "values": env.letter_entries.values,
    }
    for key, got in ours.items():
        want = oracle[key]
        assert got.dtype == want.dtype and got.shape == want.shape, key
        assert got.tobytes() == want.tobytes(), key
    for key in ("action_homomorphism", "torus_leibniz"):
        assert env.residuals[key] == oracle[key], key


@pytest.mark.parametrize("name", ["sect4", "filiform8", "torus_heisenberg3"])
def test_each_product_is_commuted_at_most_once(name, named_split, monkeypatch):
    """Prepends come from the word table; every other slot is filled once."""
    calls = []
    original = envelope._commute

    def counted(products, brackets, a, b, rest):
        calls.append((a, b, rest))
        return original(products, brackets, a, b, rest)

    monkeypatch.setattr(envelope, "_commute", counted)
    env = build_enveloping_rep(named_split(name))
    n = env.gamma.shape[0]
    # (a, b, rest) is the slot of letter a and word (b,) + words[rest].
    assert len(set(calls)) == len(calls)
    assert all(a > b for a, b, _ in calls)
    assert len(calls) == sum(n - 1 - word[0] for word in env.words if word)
