"""Shortcuts on the evaluation path leave every value bit for bit the same.

Each oracle below is the longer route the library used to take: the
chain-sum kernel always runs its Newton pass and discards it where the
Taylor value stands, the pattern series starts from a Cauchy product
with the identity, and segment data is filled one segment vector at a
time.
"""

import numpy as np
import pytest

from solvhull import PathWord
from solvhull.integrals import _pattern_series
from solvhull.matfuncs import _TAYLOR_GAP, _taylor_degree, exp_chain_sum
from solvhull.monodromy import _segment_data
from solvhull.verify import _random_path


def newton_always_exp_chain_sum(diag, sup, start):
    """Oracle: exp_chain_sum with the Newton pass run on every input."""
    diag = np.asarray(diag, dtype=complex)
    sup = np.asarray(sup, dtype=complex)
    n = diag.shape[-1]
    w = diag[..., None, :] - diag[..., :, None]
    radius = np.maximum.accumulate(np.triu(np.abs(w)), axis=-1)
    degree = _taylor_degree(np.max(radius, where=np.abs(w) < _TAYLOR_GAP, initial=0.0))
    links = np.zeros(w.shape, dtype=complex)
    links[..., :, 1:] = sup[..., None, :]
    links, flat_w = links.ravel()[1:], w.ravel()
    eye = np.broadcast_to(np.eye(n, dtype=complex), w.shape).ravel()
    acc, step, shifted = eye.copy(), np.empty_like(eye), np.empty_like(links)
    for m in range(degree + n - 1, 0, -1):
        np.multiply(acc, flat_w, out=step)
        step[1:] += np.multiply(acc[:-1], links, out=shifted)
        step *= 1.0 / m
        step += eye
        acc, step = step, acc
    exps = acc.reshape(w.shape) * np.exp(diag)[..., :, None]
    flat = exps.reshape(diag.shape[:-1] + (n * n,))
    prev = flat[..., :: n + 1]
    for k in range(1, n):
        gap = diag[..., k:] - diag[..., :-k]
        taylor = np.abs(gap) < _TAYLOR_GAP
        newton = sup[..., : n - k] * prev[..., 1:] - sup[..., k - 1 :] * prev[..., :-1]
        newton /= np.where(taylor, 1.0, gap)
        prev = np.where(taylor, flat[..., k :: n + 1][..., : n - k], newton)
        flat[..., k :: n + 1][..., : n - k] = prev
    x = np.zeros(diag.shape[:-3] + diag.shape[-2:], dtype=complex)
    x[..., np.arange(len(start)), start] = 1.0
    for s in range(diag.shape[-3]):
        x = (x[..., None, :] @ exps[..., s, :, :, :])[..., 0, :]
    return x[..., n - 1].sum(axis=-1)


def identity_product_series(pattern, matrices, depth):
    """Oracle: the pattern series with the first segment multiplied onto the identity."""
    terms = depth + 1
    coeff = np.zeros((terms, pattern.rows.size), dtype=complex)
    coeff[0] = pattern.rows == pattern.cols
    for a in matrices:
        powers = np.empty_like(coeff)
        powers[0] = pattern.rows == pattern.cols
        for k in range(1, terms):
            prods = powers[k - 1, pattern.left] * a[pattern.right]
            powers[k] = np.add.reduceat(prods, pattern.starts) / k
        lhs = np.take(coeff, pattern.left, axis=1)
        rhs = np.take(powers, pattern.right, axis=1)
        prods = lhs[0] * rhs
        for lo in range(1, terms):
            prods[lo:] += lhs[lo] * rhs[: terms - lo]
        coeff = np.add.reduceat(prods, pattern.starts, axis=-1)
    return coeff.sum(axis=0)


def per_segment_data(form, paths):
    """Oracle: segment data filled from one segment vector at a time."""
    longest = max((len(path) for path in paths), default=0)
    vectors = np.zeros((len(paths), longest, form.dim), dtype=complex)
    durations = np.zeros((len(paths), longest, 1))
    for v, path in enumerate(paths):
        for s, seg in enumerate(path):
            vectors[v, s], durations[v, s] = seg.vector, seg.duration
    return durations * (vectors @ form.omega.T), durations * (vectors @ form.closure_psi)


def _nodes(rng, spread, shape):
    """Seeded chain nodes: near nodes within spread, far ones 1.5 apart per slot."""
    *lead, n = shape
    noise = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    if spread == "near":
        return 0.2 * noise
    if spread == "far":
        return 1.5 * np.arange(n) * rng.choice([-1, 1], lead + [1]) + 0.2 * noise
    return 1.5 * noise


@pytest.mark.parametrize("spread", ["near", "far", "mixed"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_sum_matches_the_newton_always_kernel(spread, seed):
    rng = np.random.default_rng(seed)
    variants, segments, chains, n = 3, 4, 5, 6
    diag = _nodes(rng, spread, (variants, segments, chains, n))
    sup = rng.standard_normal((variants, segments, chains, n - 1)) + 0j
    start = rng.integers(0, n, chains)
    gaps = np.abs(diag[..., None, :] - diag[..., :, None])
    off = ~np.eye(n, dtype=bool)
    if spread == "near":
        assert np.all(gaps < _TAYLOR_GAP)
    elif spread == "far":
        assert np.all(gaps[..., off] >= _TAYLOR_GAP)
    else:
        assert np.any(gaps >= _TAYLOR_GAP) and np.any(gaps[..., off] < _TAYLOR_GAP)
    got = exp_chain_sum(diag, sup, start)
    assert got.tobytes() == newton_always_exp_chain_sum(diag, sup, start).tobytes()


@pytest.mark.parametrize("name", ["sol", "sect4", "filiform6"])
def test_pattern_series_matches_the_identity_product(name, request):
    if name == "filiform6":
        form = request.getfixturevalue("filiform_forms")[6]
    else:
        form = request.getfixturevalue(f"{name}_stages")["form"]
    rng = np.random.default_rng(5)
    pattern = form.closure
    for segments in (0, 1, 4):
        path = _random_path(rng, form.dim, segments, False, 3.0, form)
        mats = [seg.duration * (seg.vector @ form.closure_psi) for seg in path]
        for depth in (0, 1, 20):
            got = _pattern_series(pattern, mats, depth)
            want = identity_product_series(pattern, mats, depth)
            assert got.tobytes() == want.tobytes(), (segments, depth)


def test_segment_data_matches_per_segment_fill(sect4_stages):
    form = sect4_stages["form"]
    rng = np.random.default_rng(9)
    paths = [
        _random_path(rng, form.dim, segments, False, 3.0, form) for segments in (3, 1, 4)
    ]
    paths.insert(1, PathWord([]))
    for got, want in zip(_segment_data(form, paths), per_segment_data(form, paths)):
        assert got.tobytes() == want.tobytes()
