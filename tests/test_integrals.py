"""Iterated integrals, transports, exponential iterated integrals.

Every exact evaluator is checked against at least one independent
route: hand formulas, simplex quadrature, an ODE integration, or the
truncated series with its certified tail bound.
"""

import gc
from math import factorial

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from solvhull import (
    IntegralWord,
    PathWord,
    ValidationError,
    build_connection_form,
    build_enveloping_rep,
    build_splitting,
    connection,
    entry_chain_value,
    exp_iterated_integral,
    exp_iterated_integral_series,
    iterated_integral,
    iterated_integral_quadrature,
    shuffle_identity_residual,
    transport,
    transport_series,
    validate_algebra,
)
from solvhull.integrals import _pattern_series, _shuffle_terms, chain_sums, shuffle_words, stack_paths
from solvhull.verify import _random_path
from solvhull.matfuncs import expm, phi1_apply

from conftest import CORPUS_SEEDS, diagonal_characters, form_by_name, graded_filiform_structure

EPS = float(np.finfo(float).eps)


def random_path(rng, dim, segments, scale=1.0):
    pairs = []
    for _ in range(segments):
        pairs.append((scale * rng.standard_normal(dim), float(rng.uniform(0.1, 1.0))))
    return PathWord(pairs)


# ------------------------------------------------------------- hand values


def test_single_letter_is_plain_line_integral():
    f = np.array([2.0, -1.0])
    path = PathWord([((1.0, 3.0), 0.5), ((0.0, 1.0), 2.0)])
    # f pulled back is constant on each segment
    expected = (2.0 - 3.0) * 0.5 + (-1.0) * 2.0
    assert iterated_integral([f], path) == pytest.approx(expected)


def test_empty_word_integrates_to_one():
    path = PathWord([((1.0,), 1.0)])
    assert iterated_integral([], path) == pytest.approx(1.0)


def test_two_letters_single_segment():
    f = np.array([1.0, 0.0])
    g = np.array([0.0, 1.0])
    v = (2.0, 3.0)
    t = 0.7
    path = PathWord([(v, t)])
    expected = 2.0 * 3.0 * t * t / 2.0
    assert iterated_integral([f, g], path) == pytest.approx(expected)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_repeated_letter_gives_power_over_factorial(k):
    f = np.array([1.5])
    path = PathWord([((2.0,), 0.9)])
    a = 1.5 * 2.0 * 0.9
    assert iterated_integral([f] * k, path) == pytest.approx(a**k / factorial(k))


def test_two_letters_across_two_segments_by_splitting():
    f = np.array([1.0, 0.0])
    g = np.array([0.0, 1.0])
    s1, t1 = (1.0, 2.0), 0.5
    s2, t2 = (3.0, -1.0), 1.2

    def single(h, v, t):
        return float(np.dot(h, v)) * t

    def double(v, t):
        return float(np.dot(f, v)) * float(np.dot(g, v)) * t * t / 2.0

    expected = (
        double(s1, t1) + single(f, s1, t1) * single(g, s2, t2) + double(s2, t2)
    )
    path = PathWord([(s1, t1), (s2, t2)])
    assert iterated_integral([f, g], path) == pytest.approx(expected)


def test_integral_is_additive_under_subdivision():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(3)
    g = rng.standard_normal(3)
    path = random_path(rng, 3, 2)
    coarse = iterated_integral([f, g], path)
    fine = iterated_integral([f, g], path.subdivide(7))
    assert coarse == pytest.approx(fine, abs=1e-12)


def scalar_iterated_integral(functionals, path):
    """The scalar word-splitting loop iterated_integral replaced, kept as its oracle."""
    word = [np.asarray(f, dtype=complex) for f in functionals]
    n = len(word)
    state = np.zeros(n + 1, dtype=complex)
    state[0] = 1.0
    for x, t in path:
        a = [complex(np.dot(f, x)) for f in word]
        new = np.zeros_like(state)
        for k in range(n + 1):
            total = 0.0 + 0.0j
            prod = 1.0 + 0.0j
            # j runs down from k: contribution of the prefix of length j
            # times the last k - j letters evaluated on this segment.
            for j in range(k, -1, -1):
                total += state[j] * prod * t ** (k - j) / factorial(k - j)
                if j > 0:
                    prod *= a[j - 1]
            new[k] = total
        state = new
    return complex(state[n])


def test_integral_matches_the_scalar_loop():
    """200 random words of up to 5 letters over 1 to 4 segments, real and complex."""
    rng = np.random.default_rng(17)
    for trial in range(200):
        dim = int(rng.integers(1, 6))
        letters = int(rng.integers(0, 6))
        word = [rng.standard_normal(dim) for _ in range(letters)]
        pairs = [(rng.standard_normal(dim), float(rng.uniform(0.1, 1.0)))
                 for _ in range(int(rng.integers(1, 5)))]
        if trial % 2:
            word = [f + 1j * rng.standard_normal(dim) for f in word]
            pairs = [(v + 1j * rng.standard_normal(dim), t) for v, t in pairs]
        path = PathWord(pairs)
        want = scalar_iterated_integral(word, path)
        got = iterated_integral(word, path)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (trial, got, want)
    assert iterated_integral(word, PathWord([])) == scalar_iterated_integral(word, PathWord([]))


# ------------------------------------------------------------- quadrature


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_quadrature_converges_to_exact(depth):
    rng = np.random.default_rng(depth)
    word = [rng.standard_normal(2) for _ in range(depth)]
    path = random_path(rng, 2, 3)
    exact = iterated_integral(word, path)
    approx = iterated_integral_quadrature(word, path, points=10000)
    assert abs(exact - approx) < 1e-3 * max(1.0, abs(exact))


def test_quadrature_error_shrinks_linearly():
    rng = np.random.default_rng(5)
    word = [rng.standard_normal(2) for _ in range(2)]
    path = random_path(rng, 2, 2)
    exact = iterated_integral(word, path)
    e1 = abs(exact - iterated_integral_quadrature(word, path, points=500))
    e2 = abs(exact - iterated_integral_quadrature(word, path, points=5000))
    assert e2 < e1 / 3.0


def scalar_quadrature(functionals, path, points):
    """The per-step loop iterated_integral_quadrature replaced, kept as its oracle."""
    word = [np.asarray(f, dtype=complex) for f in functionals]
    n = len(word)
    total_time = path.total_duration
    cum = np.zeros(n + 1, dtype=complex)
    cum[0] = 1.0
    for x, t in path:
        if t == 0.0:
            continue
        steps = max(1, int(round(points * t / max(total_time, 1e-300))))
        h = t / steps
        a = [complex(np.dot(f, x)) for f in word]
        for _ in range(steps):
            for k in range(n, 0, -1):
                cum[k] = cum[k] + a[k - 1] * cum[k - 1] * h
    return complex(cum[n])


def same_bits(x, y):
    return x == y and all(
        np.signbit(u) == np.signbit(v) for u, v in ((x.real, y.real), (x.imag, y.imag))
    )


@pytest.mark.parametrize("seed", range(8))
def test_quadrature_is_bit_identical_to_the_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        dim = int(rng.integers(2, 6))
        complex_word = bool(rng.integers(2))
        word = []
        for _ in range(int(rng.integers(1, 5))):
            f = rng.standard_normal(dim)
            word.append(f + 1j * rng.standard_normal(dim) if complex_word else f)
        pairs = []
        for _ in range(int(rng.integers(1, 5))):
            v = rng.standard_normal(dim)
            if rng.integers(2):
                v = v + 1j * rng.standard_normal(dim)
            duration = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.05, 1.5))
            pairs.append((v, duration))
        path = PathWord(pairs)
        for points in (1, 7, 100, 4000, 10000):
            fast = iterated_integral_quadrature(word, path, points=points)
            assert same_bits(fast, scalar_quadrature(word, path, points)), points


def test_quadrature_of_the_empty_path_and_empty_word():
    rng = np.random.default_rng(3)
    word = [rng.standard_normal(3) for _ in range(2)]
    empty = PathWord([])
    path = random_path(rng, 3, 2)
    for points in (1, 7, 100):
        assert same_bits(
            iterated_integral_quadrature(word, empty, points), scalar_quadrature(word, empty, points)
        )
        assert iterated_integral_quadrature([], path, points) == 1.0
    idle = PathWord([(rng.standard_normal(3), 0.0)] * 2)
    assert same_bits(
        iterated_integral_quadrature(word, idle, 7), scalar_quadrature(word, idle, 7)
    )


# ------------------------------------------------------------- shuffles


def test_shuffle_words_counts():
    assert shuffle_words((0,), (1,)) == {(0, 1): 1, (1, 0): 1}
    assert shuffle_words((), (0, 1)) == {(0, 1): 1}
    out = shuffle_words((0, 1), (2,))
    assert out == {(0, 1, 2): 1, (0, 2, 1): 1, (2, 0, 1): 1}


def test_shuffle_words_total_count_is_binomial():
    out = shuffle_words((0, 1, 2), (3, 4))
    assert sum(out.values()) == 10  # C(5, 2)


def test_shuffle_words_repeated_letters_accumulate():
    out = shuffle_words((0,), (0,))
    assert out == {(0, 0): 2}


@pytest.mark.parametrize("seed", range(8))
def test_shuffle_identity_on_random_words(seed):
    rng = np.random.default_rng(200 + seed)
    functionals = [rng.standard_normal(3) for _ in range(4)]
    la = int(rng.integers(1, 3))
    lb = int(rng.integers(1, 3))
    wa = tuple(int(rng.integers(0, 4)) for _ in range(la))
    wb = tuple(int(rng.integers(0, 4)) for _ in range(lb))
    path = random_path(rng, 3, 3)
    assert shuffle_identity_residual(functionals, wa, wb, path) < 1e-10


def three_call_shuffle_terms(functionals, word_a, word_b, path):
    """Oracle: I(a), I(b) and the shuffle sum from three kernel calls, the route before one batch.

    Each factor is its own iterated_integral call, and the shuffles,
    each repeated by its multiplicity, one chain_sums call.
    """
    table = np.asarray(functionals, dtype=complex)
    shuffles = [w for w, mult in shuffle_words(word_a, word_b).items() for _ in range(mult)]
    words = np.array(shuffles, dtype=int).reshape(len(shuffles), len(word_a) + len(word_b))
    exponents = np.zeros((len(words), words.shape[1] + 1, table.shape[-1]))
    stacked = stack_paths([path], table.shape[-1])
    total = complex(chain_sums(exponents, table[words], stacked, [0] * len(words))[0])
    return iterated_integral(table[list(word_a)], path), iterated_integral(table[list(word_b)], path), total


SHUFFLE_FORMS = ["sol", "sect4", "sect4-full"] + [f"corpus-{seed}" for seed in CORPUS_SEEDS] + [
    "filiform-4", "filiform-5", "filiform-6",
]


@pytest.mark.parametrize("name", SHUFFLE_FORMS)
def test_one_call_shuffle_terms_match_the_three_call_route(name, request):
    """Words of 0 to 3 letters on verify's random paths, within 8 ulps of the scale."""
    if name == "sect4-full":
        form = request.getfixturevalue("sect4_full_stages")["form"]
    else:
        form = form_by_name(request, name)
    rng = np.random.default_rng(900 + len(name))
    n = form.dim
    coords = list(np.eye(n))
    for la, lb in [(2, 1), (2, 2), (0, 2), (3, 1), (1, 0), (0, 0)]:
        path = _random_path(rng, n, 3, name.startswith("sect4"), 3.0, form)
        wa = tuple(int(rng.integers(0, n)) for _ in range(la))
        wb = tuple(int(rng.integers(0, n)) for _ in range(lb))
        got = np.array(_shuffle_terms(coords, wa, wb, path))
        want = np.array(three_call_shuffle_terms(coords, wa, wb, path))
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 8 * EPS * scale, (wa, wb)
        residual = shuffle_identity_residual(coords, wa, wb, path)
        assert residual == abs(got[0] * got[1] - got[2])
        assert abs(residual - abs(want[0] * want[1] - want[2])) <= 8 * EPS * scale**2


# ------------------------------------------------------------- transport


def test_transport_of_empty_path_is_identity(sol_stages):
    form = sol_stages["form"]
    out = transport(form, PathWord([]))
    assert np.allclose(out, np.eye(form.r))


def test_a_path_of_another_dimension_is_rejected_by_every_evaluator(sol_stages):
    """sol's form and words have dim 3; a 2-dim path is a ValidationError naming both, an empty path is valid."""
    form = sol_stages["form"]
    word = IntegralWord(np.ones((2, 3)), np.ones((1, 3)))
    evaluators = [
        lambda path: transport(form, path),
        lambda path: transport_series(form, path, 5),
        lambda path: entry_chain_value(form, path, 0, form.r - 1),
        lambda path: exp_iterated_integral(word, path),
        lambda path: iterated_integral(np.ones((2, 3)), path),
    ]
    for evaluate in evaluators:
        with pytest.raises(ValidationError, match="dimension 2, expected 3"):
            evaluate(PathWord([((1.0, 0.5), 0.3)]))
        evaluate(PathWord([]))


def test_transport_concatenation_law(sol_stages):
    form = sol_stages["form"]
    rng = np.random.default_rng(1)
    p1 = random_path(rng, 3, 2)
    p2 = random_path(rng, 3, 2)
    lhs = transport(form, p1.concat(p2))
    rhs = transport(form, p1) @ transport(form, p2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_transport_inverse_path_inverts_matrix(sol_stages):
    form = sol_stages["form"]
    rng = np.random.default_rng(2)
    p = random_path(rng, 3, 3)
    prod = transport(form, p) @ transport(form, p.inverse())
    assert np.max(np.abs(prod - np.eye(form.r))) < 1e-9


def test_transport_against_ode_oracle(sol_stages, sect4_stages):
    """Independent route: integrate Y' = Y psi(v) numerically."""
    for stages in (sol_stages, sect4_stages):
        form = stages["form"]
        dim = form.dim
        rng = np.random.default_rng(3)
        path = random_path(rng, dim, 3, scale=0.8)
        y = np.eye(form.r, dtype=complex)
        for x, t in path:
            a = form.psi(x)

            def rhs(_, flat):
                return (flat.reshape(form.r, form.r) @ a).ravel()

            sol = solve_ivp(
                rhs,
                (0.0, t),
                y.ravel(),
                rtol=1e-12,
                atol=1e-12,
                method="DOP853",
            )
            y = sol.y[:, -1].reshape(form.r, form.r)
        exact = transport(form, path)
        assert np.max(np.abs(exact - y)) < 1e-7


def test_transport_reads_each_segment_from_the_memo_exactly(sol_stages):
    form = build_connection_form(sol_stages["envelope"])
    path = random_path(np.random.default_rng(5), 3, 3)
    (x, t), *rest = path
    expected = expm(t * form.psi(x))
    assert np.array_equal(transport(form, PathWord([(x, t)])), expected)
    for y, s in rest:
        expected = expected @ expm(s * form.psi(y))
    for _ in range(2):
        assert np.array_equal(transport(form, path), expected)


@pytest.mark.parametrize("segments", [1, 3])
def test_writing_into_a_transport_leaves_the_next_one_unchanged(sol_stages, segments):
    form = sol_stages["form"]
    path = random_path(np.random.default_rng(6), 3, segments)
    first = transport(form, path)
    kept = first.copy()
    assert first.flags.writeable
    first[:] = 7.0
    assert np.array_equal(transport(form, path), kept)


def test_segment_memo_is_bounded_in_entries(sol_stages, monkeypatch):
    monkeypatch.setattr(connection, "_MEMO_SIZE", 3)
    form = build_connection_form(sol_stages["envelope"])
    for i in range(10):
        transport(form, PathWord([((1.0, 0.5, -0.25), 0.1 * (i + 1))]))
        assert form._segment_memo.cache_info().currsize == min(i + 1, 3)


def test_segment_memo_is_bounded_in_bytes_at_rank_8():
    """At r = 291 an entry is 1.35 MB; more distinct segments than fit never hold more."""
    split = build_splitting(validate_algebra(graded_filiform_structure(8)))
    form = build_connection_form(build_enveloping_rep(split))
    assert form.r == 291
    entry = 16 * form.r**2
    fits = connection._MEMO_BYTES // entry
    assert fits < connection._MEMO_SIZE
    rng = np.random.default_rng(8)
    for i in range(fits + 3):
        x = rng.standard_normal(form.dim)
        assert form.segment_exp(x, 0.01).nbytes == entry
        held = form._segment_memo.cache_info().currsize
        assert held == min(i + 1, fits)
        assert held * entry <= connection._MEMO_BYTES


def test_transport_series_matches_transport_within_tail(sol_stages):
    form = sol_stages["form"]
    rng = np.random.default_rng(4)
    for _ in range(5):
        path = random_path(rng, 3, 3)
        exact = transport(form, path)
        res = transport_series(form, path, depth=20)
        observed = float(np.max(np.abs(res.value - exact)))
        assert observed <= res.tail_bound
        assert observed < 1e-8


def test_transport_series_tail_decreases_with_depth(sol_stages):
    form = sol_stages["form"]
    rng = np.random.default_rng(6)
    path = random_path(rng, 3, 2)
    bounds = [transport_series(form, path, depth=d).tail_bound for d in (5, 10, 15)]
    assert bounds[0] > bounds[1] > bounds[2]


def test_transport_series_reports_growth(sol_stages):
    form = sol_stages["form"]
    path = PathWord([((1.0, 0.0, 0.0), 2.0)])
    res = transport_series(form, path, depth=8)
    expected = float(np.linalg.norm(2.0 * form.psi(np.array([1.0, 0.0, 0.0])), "fro"))
    assert res.growth == pytest.approx(expected)
    assert res.depth == 8


def dense_product_series(matrices, depth):
    """Oracle: the graded product series with dense matrix products."""
    r = matrices[0].shape[0]
    coeff = [np.eye(r, dtype=complex)] + [np.zeros((r, r), dtype=complex)] * depth
    for a in matrices:
        powers = [np.eye(r, dtype=complex)]
        for _ in range(depth):
            powers.append(powers[-1] @ a)
        new = [np.zeros((r, r), dtype=complex) for _ in range(depth + 1)]
        for lo in range(depth + 1):
            for k in range(depth + 1 - lo):
                new[lo + k] += coeff[lo] @ powers[k] / factorial(k)
        coeff = new
    return sum(coeff)


SERIES_FORMS = [f"corpus-{seed}" for seed in range(25)] + [
    "sol", "sect4", "filiform-4", "filiform-5", "filiform-6", "filiform-7",
]


@pytest.mark.parametrize("name", SERIES_FORMS)
def test_pattern_series_matches_dense_series(name, request):
    """The closure pattern series is the dense graded product series."""
    kind, _, arg = name.partition("-")
    if kind == "corpus":
        split = request.getfixturevalue("corpus_splittings")[int(arg)]
        form = build_connection_form(build_enveloping_rep(split))
    elif kind == "filiform":
        forms = request.getfixturevalue("filiform_forms")
        form = forms[int(arg)] if int(arg) in forms else request.getfixturevalue("filiform7_form")
    else:
        form = request.getfixturevalue(f"{name}_stages")["form"]
    rng = np.random.default_rng(100 + len(name))
    segments = 2 if form.r > 100 else 4
    pairs = [
        (rng.standard_normal(form.dim), float(rng.uniform(0.2, 0.8))) for _ in range(segments)
    ]
    growth = sum(t * float(np.linalg.norm(form.psi(v), "fro")) for v, t in pairs)
    path = PathWord([(v, t * min(1.0, 3.0 / growth)) for v, t in pairs])
    mats = [t * form.psi(x) for x, t in path]
    for depth in (0, 1, 20):
        dense = dense_product_series(mats, depth)
        value = transport_series(form, path, depth).value
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(value - dense)) <= 1e-14 * scale, depth


@pytest.mark.parametrize("segments", [1, 2])
@pytest.mark.parametrize("name", SERIES_FORMS)
def test_pattern_series_matches_dense_series_on_short_paths(name, segments, request):
    """One segment takes no Cauchy product; with two, the last is the only one."""
    form = form_by_name(request, name)
    rng = np.random.default_rng(300 + 10 * segments + len(name))
    pairs = [
        (rng.standard_normal(form.dim), float(rng.uniform(0.2, 0.8))) for _ in range(segments)
    ]
    growth = sum(t * float(np.linalg.norm(form.psi(v), "fro")) for v, t in pairs)
    path = PathWord([(v, t * min(1.0, 3.0 / growth)) for v, t in pairs])
    mats = [t * form.psi(x) for x, t in path]
    # One generator object on one more segment than the path has: the
    # last segment is the last by position, whatever array it is.
    repeated = [form.closure.gather(mats[0])] * (segments + 1)
    for depth in (0, 1, 20):
        dense = dense_product_series(mats, depth)
        value = transport_series(form, path, depth).value
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(value - dense)) <= 1e-14 * scale, depth
        dense = dense_product_series([mats[0]] * (segments + 1), depth)
        value = form.closure.scatter(_pattern_series(form.closure, repeated, depth))
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(value - dense)) <= 1e-14 * scale, depth


def test_series_on_the_empty_path_is_the_identity(sect4_stages):
    form = sect4_stages["form"]
    empty = PathWord([])
    for depth in (0, 1, 20):
        res = transport_series(form, empty, depth)
        assert np.array_equal(res.value, np.eye(form.r))
        assert res.growth == 0.0
    for size in (1, 3):
        word = IntegralWord(exponents=((1.0,),) * size, factors=((1.0,),) * (size - 1))
        assert exp_iterated_integral_series(word, empty, 5).value == (size == 1)


# ----------------------------------------------------- exponential words


def test_integral_word_validation():
    with pytest.raises(ValueError):
        IntegralWord(exponents=([1.0],), factors=([1.0],))


def test_integral_word_holds_read_only_copies():
    exponents, factors = np.zeros((2, 3)), np.ones((1, 3))
    word = IntegralWord(exponents, factors)
    assert word.exponents.shape == (2, 3)
    assert word.factors.shape == (1, 3)
    for given, held in ((exponents, word.exponents), (factors, word.factors)):
        with pytest.raises(ValueError):
            held[0, 0] = 5.0
        assert given.flags.writeable
        assert not np.shares_memory(given, held)


def test_a_negative_series_depth_is_a_validation_error(sol_stages):
    form = sol_stages["form"]
    path = PathWord([(np.ones(form.dim), 0.5)])
    word = IntegralWord(exponents=(np.ones(form.dim),), factors=())
    with pytest.raises(ValidationError):
        transport_series(form, path, -1)
    with pytest.raises(ValidationError):
        exp_iterated_integral_series(word, path, -1)


def test_integral_word_segment_matrix():
    word = IntegralWord(
        exponents=((1.0, 0.0), (0.0, 1.0)), factors=((2.0, 0.0),)
    )
    m = word.segment_matrix(np.array([3.0, 5.0]))
    assert m.shape == (2, 2)
    assert m[0, 0] == 3.0
    assert m[1, 1] == 5.0
    assert m[0, 1] == 6.0
    assert m[1, 0] == 0.0
    # A real word on a real direction stays real, a tuple included.
    assert word.exponents.dtype == word.factors.dtype == m.dtype == np.float64
    assert np.array_equal(word.segment_matrix((3.0, 5.0)), m)
    assert word.segment_matrix(np.array([3.0, 5.0j])).dtype == np.complex128
    assert IntegralWord(exponents=((1.0, 1j),), factors=()).exponents.dtype == np.complex128


def test_size_one_word_is_pure_exponential():
    word = IntegralWord(exponents=((2.0, -1.0),), factors=())
    path = PathWord([((1.0, 1.0), 0.5), ((0.0, 2.0), 1.5)])
    # integral of the exponent along the path, then exponentiate
    total = (2.0 - 1.0) * 0.5 + (-2.0) * 1.5
    assert exp_iterated_integral(word, path) == pytest.approx(np.exp(total))


def test_size_two_word_single_segment_closed_form():
    a, b, f = 0.8, -0.3, 2.0
    word = IntegralWord(exponents=((a,), (b,)), factors=((f,),))
    t = 1.3
    path = PathWord([((1.0,), t)])
    expected = f * (np.exp(a * t) - np.exp(b * t)) / (a - b)
    assert exp_iterated_integral(word, path) == pytest.approx(expected)


def test_size_two_word_degenerate_exponents():
    a, f, t = 0.6, 1.5, 0.9
    word = IntegralWord(exponents=((a,), (a,)), factors=((f,),))
    path = PathWord([((1.0,), t)])
    # the divided difference collapses to t e^(a t)
    expected = f * t * np.exp(a * t)
    assert exp_iterated_integral(word, path) == pytest.approx(expected)


def test_size_two_word_near_degenerate_is_stable():
    a = 0.6
    b = a + 1e-13
    word = IntegralWord(exponents=((a,), (b,)), factors=((1.0,),))
    path = PathWord([((1.0,), 1.0)])
    exact = exp_iterated_integral(word, path)
    reference = 1.0 * np.exp(a)  # limit value of the divided difference
    assert abs(exact - reference) < 1e-10


def test_zero_exponents_reduce_to_plain_iterated_integral():
    """Cross route: killing the diagonal recovers the Chen integral."""
    rng = np.random.default_rng(7)
    factors = [rng.standard_normal(3) for _ in range(3)]
    zero = np.zeros(3)
    word = IntegralWord(
        exponents=(zero, zero, zero, zero), factors=tuple(factors)
    )
    path = random_path(rng, 3, 3)
    lhs = exp_iterated_integral(word, path)
    rhs = scalar_iterated_integral(factors, path)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_exp_integral_series_converges_to_closed_form(size):
    rng = np.random.default_rng(30 + size)
    exponents = tuple(0.5 * rng.standard_normal(2) for _ in range(size))
    factors = tuple(rng.standard_normal(2) for _ in range(size - 1))
    word = IntegralWord(exponents=exponents, factors=factors)
    path = random_path(rng, 2, 2, scale=0.7)
    exact = exp_iterated_integral(word, path)
    res = exp_iterated_integral_series(word, path, depth=25)
    assert abs(res.value - exact) <= res.tail_bound
    assert abs(res.value - exact) < 1e-8


def test_exp_integral_series_tail_bound_observed():
    rng = np.random.default_rng(50)
    word = IntegralWord(
        exponents=(rng.standard_normal(2), rng.standard_normal(2)),
        factors=(rng.standard_normal(2),),
    )
    path = random_path(rng, 2, 2, scale=0.5)
    exact = exp_iterated_integral(word, path)
    for depth in (3, 6, 10, 16):
        res = exp_iterated_integral_series(word, path, depth=depth)
        assert abs(res.value - exact) <= res.tail_bound


def test_exp_integral_multiplicative_over_concat_for_size_one():
    word = IntegralWord(exponents=((1.0, 2.0),), factors=())
    p1 = PathWord([((0.3, 0.1), 1.0)])
    p2 = PathWord([((0.2, -0.4), 0.5)])
    lhs = exp_iterated_integral(word, p1.concat(p2))
    rhs = exp_iterated_integral(word, p1) * exp_iterated_integral(word, p2)
    assert lhs == pytest.approx(rhs)


# ------------------------------------------------------------- matfuncs


def unit_segment_value(diag, sup):
    """Top right entry of exp of an upper bidiagonal matrix.

    A word over one dimensional functionals, on one unit segment, has
    exactly that matrix as its generator.
    """
    word = IntegralWord(
        exponents=tuple((z,) for z in diag), factors=tuple((s,) for s in sup)
    )
    return exp_iterated_integral(word, PathWord([((1.0,), 1.0)]))


def mp_exp_difference(mpmath, a, b):
    with mpmath.workdps(40):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        if a == b:
            return mpmath.exp(a)
        return (mpmath.exp(a) - mpmath.exp(b)) / (a - b)


def test_length_two_word_far_and_near():
    assert unit_segment_value((1.0, 0.0), (1.0,)) == pytest.approx(np.e - 1.0)
    # series branch agrees with the direct quotient at moderate gap
    direct = (np.exp(0.5) - np.exp(0.5 - 1e-5)) / 1e-5
    assert unit_segment_value((0.5, 0.5 - 1e-5), (1.0,)) == pytest.approx(direct, rel=1e-9)
    assert unit_segment_value((0.7, 0.7), (1.0,)) == pytest.approx(np.exp(0.7))


def test_length_two_word_matches_mpmath_on_a_close_filiform_chain():
    """Chain (93, 95) of the rank 6 graded filiform form at gap 9.3e-5.

    Monomial 93 carries the grading character and monomial 95 (the unit)
    none, so on a segment whose grading coordinate is 9.3e-5 the
    length-2 exponential integral is a divided difference at that gap.
    """
    mpmath = pytest.importorskip("mpmath")
    split = build_splitting(validate_algebra(graded_filiform_structure(6)))
    form = build_connection_form(build_enveloping_rep(split))
    x = np.zeros(form.dim)
    x[0] = 9.265699564788051e-05
    x[1:] = np.random.default_rng(3).standard_normal(form.dim - 1)
    a, b = diagonal_characters(form, x)[[93, 95]]
    assert abs(a - b) == pytest.approx(9.3e-5, rel=1e-2)
    value = unit_segment_value((a, b), (1.0,))
    assert abs(value - mp_exp_difference(mpmath, a, b)) <= 1e-16


def test_length_two_word_is_accurate_at_every_gap():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    for _ in range(400):
        centre = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        gap = 10 ** rng.uniform(-12, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        a, b = centre + gap / 2, centre - gap / 2
        exact = mp_exp_difference(mpmath, a, b)
        value = unit_segment_value((a, b), (1.0,))
        assert abs(value - exact) <= 1e-14 * abs(exact), (a, b)


def test_bidiagonal_words_match_dense_exponential():
    """Every entry (i, j) of exp(B) is the word over slots i to j."""
    import scipy.linalg

    rng = np.random.default_rng(8)
    for n in range(1, 8):
        diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sup = rng.standard_normal(n - 1)
        dense = scipy.linalg.expm(np.diag(diag) + np.diag(sup, 1))
        for i in range(n):
            for j in range(i, n):
                value = unit_segment_value(diag[i : j + 1], sup[i:j])
                assert abs(value - dense[i, j]) < 1e-12, (n, i, j)


def test_phi1_apply_matches_quadrature():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 3))
    z = rng.standard_normal(3)
    out = phi1_apply(m, z)
    s = np.linspace(0.0, 1.0, 20001)
    import scipy.linalg

    vals = np.stack([scipy.linalg.expm(si * m) @ z for si in s[::200]], axis=0)
    crude = np.trapezoid(vals, dx=0.01, axis=0) if hasattr(np, "trapezoid") else np.trapz(vals, dx=0.01, axis=0)
    assert np.max(np.abs(out - crude)) < 1e-3


def test_phi1_apply_singular_matrix():
    # m = 0 integrates to z itself
    z = np.array([1.0, -2.0])
    assert np.allclose(phi1_apply(np.zeros((2, 2)), z), z)


def _recursive_shuffles(a, b):
    """Reference: interleavings in the order of a recursive walk, a first."""
    out = {}

    def rec(x, y, prefix):
        if not x and not y:
            out[prefix] = out.get(prefix, 0) + 1
            return
        if x:
            rec(x[1:], y, prefix + (x[0],))
        if y:
            rec(x, y[1:], prefix + (y[0],))

    rec(tuple(a), tuple(b), ())
    return out


@pytest.mark.parametrize(
    "a,b",
    [((), ()), ((0,), ()), ((), (1, 1)), ((0, 1, 2), (3, 4)), ((0, 1, 0), (1, 0, 1, 1))],
)
def test_shuffle_words_match_recursive_walk(a, b):
    assert list(shuffle_words(a, b).items()) == list(_recursive_shuffles(a, b).items())


def test_shuffle_words_leave_no_reference_cycles():
    """Interleavings are enumerated without a self-referencing closure."""
    gc.collect()
    gc.disable()
    try:
        words = shuffle_words((1, 2), (3,))
        assert list(words.items()) == [((1, 2, 3), 1), ((1, 3, 2), 1), ((3, 1, 2), 1)]
        assert gc.collect() == 0
    finally:
        gc.enable()
