"""Shortcuts on the evaluation path leave every value bit for bit the same.

Each oracle below is the longer route the library used to take: the
chain kernel works on full n by n exponentials, whose lower triangle
stays zero, and can run its Newton pass and discard it where the Taylor
value stands; the pattern series starts from a Cauchy product with the
identity; and a batch of paths is evaluated one path at a time.
"""

import numpy as np
import pytest

from solvhull import PathWord, entry_chain_value, entry_chains, integrals, matfuncs
from solvhull.integrals import _pattern_series, stack_paths
from solvhull.matfuncs import _TAYLOR_GAP, _taylor_degree, exp_chain_values
from solvhull.monodromy import _entry_sums
from solvhull.verify import _random_path

from conftest import CHAIN_FORMS, form_by_name


def dense_exp_chain_values(diag, sup, start, newton_always=False):
    """Oracle: the chain kernel on full n by n segment exponentials.

    With newton_always the Newton pass runs on every input, not only
    when some pair of nodes is _TAYLOR_GAP or more apart. Like the
    kernel, it works and returns each chain's value in the input's
    dtype, at least float64.
    """
    diag, sup = np.asarray(diag), np.asarray(sup)
    dtype = np.result_type(diag, sup, float)
    diag, sup = diag.astype(dtype, copy=False), sup.astype(dtype, copy=False)
    n = diag.shape[-1]
    w = diag[..., None, :] - diag[..., :, None]
    dist = np.abs(w)
    radius = np.maximum.accumulate(np.triu(dist), axis=-1)
    near = dist < _TAYLOR_GAP
    degree = _taylor_degree(np.max(radius, where=near, initial=0.0))
    links = np.zeros(w.shape, dtype=dtype)
    links[..., :, 1:] = sup[..., None, :]
    links, flat_w = links.ravel()[1:], w.ravel()
    eye = np.broadcast_to(np.eye(n, dtype=dtype), w.shape).ravel()
    acc, step, shifted = eye.copy(), np.empty_like(eye), np.empty_like(links)
    for m in range(degree + n - 1, 0, -1):
        np.multiply(acc, flat_w, out=step)
        step[1:] += np.multiply(acc[:-1], links, out=shifted)
        step *= 1.0 / m
        step += eye
        acc, step = step, acc
    exps = acc.reshape(w.shape) * np.exp(diag)[..., :, None]
    flat = exps.reshape(diag.shape[:-1] + (n * n,))
    if newton_always or not near.all():
        prev = flat[..., :: n + 1]
        for k in range(1, n):
            gap = diag[..., k:] - diag[..., :-k]
            taylor = np.abs(gap) < _TAYLOR_GAP
            newton = sup[..., : n - k] * prev[..., 1:] - sup[..., k - 1 :] * prev[..., :-1]
            newton /= np.where(taylor, 1.0, gap)
            prev = np.where(taylor, flat[..., k :: n + 1][..., : n - k], newton)
            flat[..., k :: n + 1][..., : n - k] = prev
    x = np.zeros(diag.shape[:-3] + diag.shape[-2:], dtype=dtype)
    x[..., np.arange(len(start)), start] = 1.0
    for s in range(diag.shape[-3]):
        x = (x[..., None, :] @ exps[..., s, :, :, :])[..., 0, :]
    return x[..., n - 1]


def newton_always_exp_chain_values(diag, sup, start):
    """Oracle: the dense kernel with the Newton pass run on every input."""
    return dense_exp_chain_values(diag, sup, start, newton_always=True)


def identity_product_series(pattern, matrices, depth):
    """Oracle: the pattern series with the first segment multiplied onto the identity.

    The last segment pairs each degree with its partial sums, as in the
    library, so only the identity product differs. Like the library, it
    works in the matrices' dtype, at least float64, and returns complex.
    """
    terms = depth + 1
    dtype = np.result_type(float, *{a.dtype for a in matrices})
    coeff = np.zeros((terms, pattern.rows.size), dtype=dtype)
    coeff[0] = pattern.rows == pattern.cols
    for s, a in enumerate(matrices):
        powers = np.empty_like(coeff)
        powers[0] = pattern.rows == pattern.cols
        for k in range(1, terms):
            prods = powers[k - 1, pattern.left] * a[pattern.right]
            powers[k] = np.add.reduceat(prods, pattern.starts) / k
        lhs = np.take(coeff, pattern.left, axis=1)
        if s == len(matrices) - 1:
            partial = np.take(np.cumsum(powers, axis=0), pattern.right, axis=1)
            prods = lhs[0] * partial[depth]
            for lo in range(1, terms):
                prods += lhs[lo] * partial[depth - lo]
            return np.add.reduceat(prods, pattern.starts).astype(complex, copy=False)
        rhs = np.take(powers, pattern.right, axis=1)
        prods = lhs[0] * rhs
        for lo in range(1, terms):
            prods[lo:] += lhs[lo] * rhs[: terms - lo]
        coeff = np.add.reduceat(prods, pattern.starts, axis=-1)
    return coeff.sum(axis=0).astype(complex, copy=False)


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
    got = exp_chain_values(diag, sup, start)
    assert got.tobytes() == newton_always_exp_chain_values(diag, sup, start).tobytes()


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
        mats = [t * (x @ form.closure_psi) for x, t in path]
        for dtype in (complex, float):
            typed = [m.real.copy() if dtype is float else m for m in mats]
            for depth in (0, 1, 20):
                got = _pattern_series(pattern, typed, depth)
                want = identity_product_series(pattern, typed, depth)
                assert got.tobytes() == want.tobytes(), (segments, dtype, depth)


def test_chain_sums_on_a_batch_match_each_path_alone(request):
    """Paths of 0 to 3 segments, zero padded to the longest, keep each path's value."""
    form = form_by_name(request, "filiform-4")
    rng = np.random.default_rng(2)
    paths = [_random_path(rng, form.dim, segments, False, 3.0, form) for segments in (3, 1, 2, 3)]
    paths.insert(1, PathWord([]))
    assert {len(path) for path in paths} == {0, 1, 2, 3}
    for p in range(form.r):
        for q in range(p, form.r):
            batch = _entry_sums(form, stack_paths(paths, form.dim), p, q)
            for v, path in enumerate(paths):
                alone = _entry_sums(form, stack_paths([path], form.dim), p, q)
                assert batch[v].tobytes() == alone[0].tobytes()
    assert max(len(c) for c in entry_chains(form, 0, form.r - 1)) > 3


def assert_kernel_matches_dense(diag, sup, start):
    got = exp_chain_values(diag, sup, start)
    want = dense_exp_chain_values(diag, sup, start)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


def compared_kernel(monkeypatch):
    """Route the kernel calls of integrals through a bit-for-bit check against the dense oracle."""
    calls = []

    def checked(diag, sup, start):
        calls.append(np.shape(diag))
        return assert_kernel_matches_dense(diag, sup, start)

    monkeypatch.setattr(integrals, "exp_chain_values", checked)
    return calls


@pytest.mark.parametrize("name", CHAIN_FORMS)
def test_packed_kernel_matches_the_dense_kernel_on_forms(name, request, monkeypatch):
    """Every upper-triangle entry of the small forms, the last column of the filiform ones."""
    form = form_by_name(request, name)
    r = form.r
    if name.startswith("filiform"):
        entries = [(p, r - 1) for p in range(r)]
    else:
        entries = [(p, q) for p in range(r) for q in range(p, r)]
    path = _random_path(np.random.default_rng(200 + len(name)), form.dim, 4, False, 3.0, form)
    calls = compared_kernel(monkeypatch)
    for p, q in entries:
        entry_chain_value(form, path, p, q)
    assert len(calls) == len(entries)


def _mixed_batch(rng, variants, segments, chains, n):
    """Seeded kernel input: each chain's nodes near one another, spread out, or far apart."""
    noise = rng.uniform(-1, 1, (variants, segments, chains, n))
    noise = noise + 1j * rng.uniform(-1, 1, noise.shape)
    spread = rng.choice([0.2, 1.5], (variants, segments, chains, 1))
    far = rng.choice([0.0, 1.5], (variants, segments, chains, 1)) * np.arange(n)
    diag = spread * noise + far * rng.choice([-1, 1], (variants, segments, chains, 1))
    sup = rng.standard_normal((variants, segments, chains, n - 1)) + 0j
    sup[rng.uniform(size=sup.shape) < 0.2] = 0.0
    start = rng.integers(0, n, chains)
    return diag, sup, start


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8])
@pytest.mark.parametrize("seed", range(6))
def test_packed_kernel_matches_the_dense_kernel_on_mixed_batches(n, seed):
    rng = np.random.default_rng(1000 * n + seed)
    diag, sup, start = _mixed_batch(rng, 3, 4, 7, n)
    gaps = np.abs(diag[..., None, :] - diag[..., :, None])
    if n > 1:
        assert np.any(gaps >= _TAYLOR_GAP) and np.any(np.all(gaps < _TAYLOR_GAP, axis=(-2, -1)))
    assert_kernel_matches_dense(diag, sup, start)
    assert_kernel_matches_dense(diag[0], sup[0], start)


@pytest.mark.parametrize("n", [1, 4, 6])
def test_packed_kernel_edge_cases(n):
    """Single-node chains, chains that start at the last slot, and the empty path."""
    rng = np.random.default_rng(n)
    diag, sup, start = _mixed_batch(rng, 2, 3, 5, n)
    last = np.full(5, n - 1)
    assert_kernel_matches_dense(diag, sup, last)
    assert_kernel_matches_dense(diag[..., :1, :], sup[..., :1, :], last[:1])
    single = assert_kernel_matches_dense(diag[..., -1:], sup[..., :0], np.zeros(5, dtype=int))
    assert np.allclose(single, np.exp(diag[..., -1].sum(axis=-2)))
    empty = assert_kernel_matches_dense(diag[:, :0], sup[:, :0], start)
    assert np.array_equal(empty, np.broadcast_to(start == n - 1, (2, 5)))


def test_taylor_radius_is_the_running_maximum_over_near_entries(monkeypatch):
    """All near, the largest gap is the largest running maximum; some far, only near entries count."""
    radii = []
    degree = matfuncs._taylor_degree

    def recorded(radius):
        radii.append(radius)
        return degree(radius)

    monkeypatch.setattr(matfuncs, "_taylor_degree", recorded)
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 7):
        for scale in (0.01, 0.1, 0.35, 1.0):
            diag = scale * (rng.uniform(-1, 1, (2, 3, 4, n)) + 1j * rng.uniform(-1, 1, (2, 3, 4, n)))
            dist = np.abs(diag[..., None, :] - diag[..., :, None])
            running = np.maximum.accumulate(np.triu(dist), axis=-1)
            if scale < 0.5:
                assert np.all(dist < _TAYLOR_GAP)
                assert running.max() == dist.max()
            elif n > 1:
                assert np.any(dist >= _TAYLOR_GAP) and np.any(running[dist < _TAYLOR_GAP] > 0.5)
            want = np.max(running, where=dist < _TAYLOR_GAP, initial=0.0)
            sup = rng.standard_normal((2, 3, 4, n - 1)) + 0j
            radii.clear()
            assert_kernel_matches_dense(diag, sup, np.zeros(4, dtype=int))
            assert radii == [want]
