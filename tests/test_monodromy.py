"""Monodromy representation and chain decompositions of its entries."""

import dataclasses
import gc
import importlib

import numpy as np
import pytest

from solvhull import (
    IntegralWord,
    PathWord,
    build_connection_form,
    build_enveloping_rep,
    build_monodromy_rep,
    build_splitting,
    closedness_residual,
    connection,
    entry_chain_value,
    entry_chains,
    exp_iterated_integral,
    integrals,
    monodromy,
    parse_word,
    path_independence_residual,
    path_variants,
    separation_demo,
    transport,
    transport_series,
    validate_algebra,
    word_monodromy,
)
from solvhull.errors import ValidationError
from solvhull.linalg import SparseStack
from solvhull.monodromy import _entry_sums

from conftest import CORPUS_SEEDS, form_by_name, graded_filiform_structure

EPS = float(np.finfo(float).eps)
# The package exports the function monodromy under the module's name.
MONODROMY = importlib.import_module("solvhull.monodromy")


@pytest.fixture(scope="module")
def sol_rep(sol_stages, sol_problem):
    return build_monodromy_rep(sol_stages["form"], sol_problem.lattice)


@pytest.fixture(scope="module")
def sect4_rep(sect4_stages, sect4_problem):
    return build_monodromy_rep(sect4_stages["form"], sect4_problem.lattice)


def random_path(rng, dim, segments):
    pairs = []
    for _ in range(segments):
        pairs.append((rng.standard_normal(dim), float(rng.uniform(0.1, 0.8))))
    return PathWord(pairs)


def capped_path(rng, form, segments, growth_cap=3.0):
    """Random path whose summed generator norms stay below growth_cap."""
    pairs = [
        (rng.standard_normal(form.dim), float(rng.uniform(0.2, 0.8)))
        for _ in range(segments)
    ]
    growth = sum(t * float(np.linalg.norm(form.psi(v), "fro")) for v, t in pairs)
    scale = min(1.0, growth_cap / growth)
    return PathWord([(v, t * scale) for v, t in pairs])


def per_entry_closedness(form, variants, base, entries):
    """Oracle: closedness_residual with one chain_sums call per entry.

    The route taken before the entries of a call were batched: each
    entry's chains are padded only to its own longest chain, and the
    Taylor degree is the entry's own.
    """
    scale = max(1.0, float(np.max(np.abs(base))))
    stacked = integrals.stack_paths(variants, form.dim)
    spread = 0.0
    mismatch = 0.0
    for p, q in entries:
        values = _entry_sums(form, stacked, p, q)
        mismatch = max(mismatch, float(np.max(np.abs(values - base[p, q]))) / scale)
        spread = max(spread, float(np.max(np.abs(values[1:] - values[0]))) / scale)
    return spread, mismatch


def upper_triangle(r):
    """Every entry (p, q) with p <= q of an r by r matrix."""
    return [(p, q) for p in range(r) for q in range(p, r)]


def pairwise_chain_steps(form):
    """Live steps found one entry at a time, the scan the adjacency replaced."""
    steps = [[] for _ in range(form.r)]
    for p in range(form.r):
        for q in range(p + 1, form.r):
            if float(np.max(np.abs(form.psi_tensor[:, p, q]))) > 0.0:
                steps[p].append(q)
    return steps


def per_chain_value(form, path, p, q):
    """Entry (p, q) summed one chain and one segment at a time."""
    total = 0.0 + 0.0j
    for chain in entry_chains(form, p, q):
        word = IntegralWord(
            tuple(form.omega[node, :] for node in chain),
            tuple(form.entry_functional(a, b) for a, b in zip(chain, chain[1:])),
        )
        total += exp_iterated_integral(word, path)
    return total


def assert_matches_per_chain(form, path, entries):
    for p, q in entries:
        ref = per_chain_value(form, path, p, q)
        value = entry_chain_value(form, path, p, q)
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (p, q, value, ref)


# ------------------------------------------------------------ representation


def test_monodromy_of_identity_is_identity(sol_stages, sol_problem):
    form = sol_stages["form"]
    model = sol_problem.model
    out = monodromy(form, model, model.identity())
    assert np.max(np.abs(out - np.eye(form.r))) < 1e-12


def test_monodromy_is_multiplicative(sol_stages, sol_problem):
    """Flatness makes transport depend on the endpoint alone."""
    form = sol_stages["form"]
    model = sol_problem.model
    lat = sol_problem.lattice
    g = lat.generator("a")
    h = lat.generator("b1")
    lhs = monodromy(form, model, model.multiply(g, h))
    rhs = monodromy(form, model, g) @ monodromy(form, model, h)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_generator_matrix_lookup(sol_rep):
    m = sol_rep.generator_matrix("a")
    assert m.shape == (4, 4)
    with pytest.raises(KeyError):
        sol_rep.generator_matrix("zz")


def test_of_word_empty_is_identity(sol_rep):
    assert np.max(np.abs(sol_rep.of_word(()) - np.eye(4))) == 0.0


def test_of_word_inverse_letters(sol_rep):
    m = sol_rep.of_word(parse_word("a a^-1"))
    assert np.max(np.abs(m - np.eye(4))) < 1e-10


@pytest.mark.parametrize("text", ["a b1", "b2 a^-1", "a^2 b1^-1 b2"])
def test_word_monodromy_matches_generator_products(text, sol_rep, sol_stages, sol_problem):
    word = parse_word(text)
    via_path = word_monodromy(sol_stages["form"], sol_problem.lattice, word)
    via_rep = sol_rep.of_word(word)
    assert np.max(np.abs(via_path - via_rep)) < 1e-9


def test_word_monodromy_of_empty_word(sol_stages, sol_problem):
    out = word_monodromy(sol_stages["form"], sol_problem.lattice, ())
    assert np.max(np.abs(out - np.eye(4))) == 0.0


@pytest.mark.parametrize("problem_name", ["sol", "sect4"])
def test_rep_respects_lattice_relations(problem_name, request):
    rep = request.getfixturevalue(f"{problem_name}_rep")
    for lhs, rhs in rep.lattice.relations:
        left = rep.of_word(parse_word(lhs))
        right = rep.of_word(parse_word(rhs))
        assert np.max(np.abs(left - right)) < 1e-8, (lhs, rhs)


def test_sect4_generator_monodromies_are_unipotent(sect4_rep):
    for name in sect4_rep.lattice.names:
        m = sect4_rep.generator_matrix(name)
        assert np.max(np.abs(np.diag(m) - 1.0)) < 1e-9, name


# ------------------------------------------------------------ independence


def test_path_variants_share_the_endpoint(sol_problem):
    model = sol_problem.model
    target = model.multiply(
        sol_problem.lattice.generator("a"), sol_problem.lattice.generator("b1")
    )
    variants = path_variants(model, target, seed=3, trials=4)
    assert len(variants) == 3 + 4
    for path in variants:
        assert model.distance(model.endpoint(path), target) < 1e-8


@pytest.mark.parametrize("problem_name", ["sol", "sect4"])
def test_fewer_trials_give_a_prefix_of_the_variants(problem_name, sol_problem, sect4_problem):
    """verify reuses the trials=4 variants, less the last, for closedness."""
    problem = {"sol": sol_problem, "sect4": sect4_problem}[problem_name]
    target = problem.lattice.element_of(parse_word("a b1" if problem_name == "sol" else "c g1"))
    four = path_variants(problem.model, target, seed=5, trials=4)
    assert four[:-1] == path_variants(problem.model, target, seed=5, trials=3)


@pytest.mark.parametrize("gen", ["a", "b1", "b2"])
def test_path_independence_for_sol_generators(gen, sol_stages, sol_problem):
    form = sol_stages["form"]
    variants = path_variants(
        sol_problem.model, sol_problem.lattice.generator(gen), seed=1, trials=4
    )
    resid = path_independence_residual(form, variants, transport(form, variants[0]))
    assert resid < 1e-8


@pytest.mark.parametrize("gen", ["c", "g1", "g3"])
def test_path_independence_for_sect4_generators(gen, sect4_stages, sect4_problem):
    form = sect4_stages["form"]
    variants = path_variants(
        sect4_problem.model, sect4_problem.lattice.generator(gen), seed=1, trials=4
    )
    resid = path_independence_residual(form, variants, transport(form, variants[0]))
    assert resid < 1e-8


# ------------------------------------------------------------ entry chains


def test_entry_chains_shape(sol_stages):
    form = sol_stages["form"]
    for p in range(form.r):
        assert entry_chains(form, p, p) == [(p,)]
        for q in range(p + 1, form.r):
            for chain in entry_chains(form, p, q):
                assert chain[0] == p and chain[-1] == q
                assert all(chain[i] < chain[i + 1] for i in range(len(chain) - 1))


def test_entry_chain_value_below_diagonal_is_zero(sol_stages):
    form = sol_stages["form"]
    path = PathWord([((1.0, 0.0, 0.0), 1.0)])
    assert entry_chain_value(form, path, 2, 0) == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_chain_decomposition_reproduces_transport(seed, sol_stages, sect4_stages):
    """Each transport entry equals its chain sum on arbitrary paths."""
    from solvhull import transport

    rng = np.random.default_rng(70 + seed)
    for stages in (sol_stages, sect4_stages):
        form = stages["form"]
        path = random_path(rng, form.dim, 3)
        full = transport(form, path)
        for p in range(form.r):
            for q in range(p, form.r):
                chained = entry_chain_value(form, path, p, q)
                assert abs(chained - full[p, q]) < 1e-9 * max(1.0, abs(full[p, q]))


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_chain_steps_match_pairwise_scan_on_corpus(seed, corpus_splittings):
    form = build_connection_form(build_enveloping_rep(corpus_splittings[seed]))
    assert form.chain_steps == pairwise_chain_steps(form)


def test_chain_steps_match_pairwise_scan_on_builtins_and_filiform(
    sol_stages, sect4_stages, filiform_forms
):
    for form in (sol_stages["form"], sect4_stages["form"], *filiform_forms.values()):
        assert form.chain_steps == pairwise_chain_steps(form)


@pytest.mark.parametrize("seed", range(2))
def test_batched_chain_value_matches_per_chain_sum_on_builtins(
    seed, sol_stages, sect4_stages
):
    rng = np.random.default_rng(90 + seed)
    for stages in (sol_stages, sect4_stages):
        form = stages["form"]
        path = random_path(rng, form.dim, 3)
        entries = [(p, q) for p in range(form.r) for q in range(form.r)]
        assert_matches_per_chain(form, path, entries)


def test_batched_chain_value_matches_per_chain_sum_on_filiform(filiform_forms):
    """Last column at rank 6: chains up to length 6, repeated characters."""
    form = filiform_forms[6]
    last = form.r - 1
    assert max(len(c) for c in entry_chains(form, 0, last)) == 6
    path = capped_path(np.random.default_rng(11), form, 4)
    assert_matches_per_chain(form, path, [(p, last) for p in range(form.r)])


def test_batched_chain_value_on_empty_path(sect4_stages):
    form = sect4_stages["form"]
    path = PathWord([])
    for p in range(form.r):
        for q in range(form.r):
            expected = 1.0 if p == q else 0.0
            assert entry_chain_value(form, path, p, q) == expected
            assert per_chain_value(form, path, p, q) == expected


def counting_kernel(monkeypatch):
    """Record the shapes of every bidiagonal kernel call, all of which integrals makes."""
    calls = []
    kernel = integrals.exp_chain_values

    def counted(diag, sup, start):
        calls.append(np.shape(diag))
        return kernel(diag, sup, start)

    monkeypatch.setattr(integrals, "exp_chain_values", counted)
    return calls


def test_chain_value_takes_one_kernel_call_per_entry(filiform_forms, monkeypatch):
    """All chains of an entry, of every length, share one kernel call."""
    form = filiform_forms[6]
    last = form.r - 1
    path = capped_path(np.random.default_rng(12), form, 4)
    p = max(range(form.r), key=lambda p: len(entry_chains(form, p, last)))
    chains = entry_chains(form, p, last)
    assert len({len(c) for c in chains}) > 1

    calls = counting_kernel(monkeypatch)
    entry_chain_value(form, path, p, last)
    assert calls == [(1, len(path), len(chains), max(len(c) for c in chains))]


def test_closedness_takes_one_kernel_call_per_batch(sect4_full_stages, sect4_problem, monkeypatch):
    """Every entry and every path variant go through one kernel call, padded to the longest chain."""
    form = sect4_full_stages["form"]
    model = sect4_problem.model
    target = sect4_problem.lattice.generator("c")
    variants = path_variants(model, target, seed=2, trials=2)
    assert len({len(path) for path in variants}) > 1
    entries = [(0, form.r - 1), (1, 1), (2, 5)]
    chains = [c for p, q in entries for c in entry_chains(form, p, q)]
    assert len({len(c) for c in chains}) > 1
    base = transport(form, variants[0])

    calls = counting_kernel(monkeypatch)
    closedness_residual(form, variants, base, entries=entries)
    assert calls == [(len(variants), max(map(len, variants)), len(chains), max(map(len, chains)))]


def test_closedness_stacks_its_variants_once(sect4_full_stages, sect4_problem, monkeypatch):
    """One closedness call stacks its paths once, however many entries it checks."""
    form = sect4_full_stages["form"]
    target = sect4_problem.lattice.generator("c")
    variants = path_variants(sect4_problem.model, target, seed=2, trials=2)
    base = transport(form, variants[0])
    stacked = []
    stack_paths = integrals.stack_paths

    def counted(paths, dim):
        stacked.append(len(paths))
        return stack_paths(paths, dim)

    monkeypatch.setattr(MONODROMY, "stack_paths", counted)
    calls = counting_kernel(monkeypatch)
    closedness_residual(form, variants, base, upper_triangle(form.r))
    assert stacked == [len(variants)]
    assert len(calls) == 1


def test_closedness_batches_hold_at_most_the_chain_cap(filiform_forms, monkeypatch):
    """Entries fill a call in order up to the cap; an entry over the cap takes a call alone."""
    form = filiform_forms[5]
    entries = [(p, form.r - 1) for p in range(form.r)] + [(1, 1), (3, 2)]
    counts = [len(entry_chains(form, p, q)) for p, q in entries]
    cap = 12
    assert max(counts) > cap and 0 in counts
    rng = np.random.default_rng(4)
    paths = [capped_path(rng, form, segments) for segments in (3, 1)]
    base = transport(form, paths[0])
    want = per_entry_closedness(form, paths, base, entries)

    monkeypatch.setattr(MONODROMY, "_CHAINS_PER_CALL", cap)
    calls = counting_kernel(monkeypatch)
    got = closedness_residual(form, paths, base, entries)
    expected, held = [], 0
    for count in counts:
        if held and held + count > cap:
            expected.append(held)
            held = 0
        held += count
    expected.append(held)
    assert [shape[2] for shape in calls] == expected
    assert np.allclose(got, want, rtol=0, atol=64 * EPS)


def test_live_pattern_is_computed_once_per_form(filiform_forms, monkeypatch):
    """A full last column reduces the form's entries once, however many entries."""
    calls = []
    live = SparseStack.strict_upper_support

    def counted(stack):
        calls.append(stack.values.shape)
        return live(stack)

    monkeypatch.setattr(SparseStack, "strict_upper_support", counted)
    form = dataclasses.replace(filiform_forms[6])
    last = form.r - 1
    path = capped_path(np.random.default_rng(13), form, 4)
    for p in range(form.r):
        entry_chain_value(form, path, p, last)
    transport_series(form, path, 3)
    assert calls == [form.psi_entries.values.shape]
    assert form.chain_steps == pairwise_chain_steps(form)


def mp_last_column(form, path, dps=40):
    """Last column of the transport in mpmath, one sparse Taylor series per segment.

    Products apply right to left: the last segment acts on e_last first.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        column = [mpmath.mpc(0)] * form.r
        column[-1] = mpmath.mpc(1)
        for x, duration in reversed(list(path)):
            m = duration * form.psi(x)
            entries = [
                (i, j, mpmath.mpc(complex(m[i, j]))) for i, j in zip(*np.nonzero(m))
            ]
            term, total, k = column, list(column), 0
            while True:
                k += 1
                nxt = [mpmath.mpc(0)] * form.r
                for i, j, v in entries:
                    nxt[i] += v * term[j]
                term = [t / k for t in nxt]
                total = [a + b for a, b in zip(total, term)]
                if max(abs(t) for t in term) < mpmath.mpf(10) ** (-dps):
                    break
            column = total
        return np.array([complex(z) for z in column])


def test_last_column_matches_mpmath_to_a_few_ulps(filiform_forms):
    """Rank 6 last column, (93, 95) and the 6-step chains included."""
    form = filiform_forms[6]
    last = form.r - 1
    path = capped_path(np.random.default_rng(11), form, 4)
    exact = mp_last_column(form, path)
    values = np.array([entry_chain_value(form, path, p, last) for p in range(form.r)])
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(values - exact)) <= 4 * np.finfo(float).eps * scale
    assert abs(values[93] - exact[93]) <= 4 * np.finfo(float).eps * scale


def test_closedness_residual_on_lattice_targets(sol_stages, sol_problem):
    form = sol_stages["form"]
    model = sol_problem.model
    lat = sol_problem.lattice
    target = model.multiply(lat.generator("a"), lat.generator("b2"))
    variants = path_variants(model, target, seed=0, trials=3)
    spread, mismatch = closedness_residual(
        form, variants, transport(form, variants[0]), upper_triangle(form.r)
    )
    assert spread < 1e-9
    assert mismatch < 1e-9


def test_closedness_residual_subset_of_entries(sect4_stages, sect4_problem):
    form = sect4_stages["form"]
    model = sect4_problem.model
    target = sect4_problem.lattice.generator("c")
    variants = path_variants(model, target, seed=2, trials=2)
    spread, mismatch = closedness_residual(
        form, variants, transport(form, variants[0]), entries=[(0, form.r - 1), (1, 1)]
    )
    assert spread < 1e-9
    assert mismatch < 1e-9


# ------------------------------------------------------------ separation


def test_separation_demo_sol(sol_stages, sol_problem):
    report = separation_demo(sol_stages["form"], sol_problem.lattice)
    assert report["word"] == "a b1 a^-1 b1^-1"
    # zero displacement kills every depth one ordinary iterated integral
    assert report["displacement_norm"] == 0.0
    # yet the monodromy is far from the identity
    assert report["monodromy_distance_from_identity"] > 0.1
    # the fiber commutator is the honest negative control
    assert report["fiber_commutator_distance"] < 1e-10


def test_separation_demo_sol_pinned_distance(sol_stages, sol_problem):
    report = separation_demo(sol_stages["form"], sol_problem.lattice)
    assert report["monodromy_distance_from_identity"] == pytest.approx(
        1.1708203932499366, rel=1e-9
    )


def test_separation_demo_sect4(sect4_stages, sect4_problem):
    report = separation_demo(sect4_stages["form"], sect4_problem.lattice)
    assert report["word"] == "c g3 c^-1 g3^-1"
    assert report["displacement_norm"] == 0.0
    assert report["monodromy_distance_from_identity"] == pytest.approx(2.0, rel=1e-9)


def test_zero_displacement_means_no_depth_one_separation(sol_stages, sol_problem):
    """The commutator loop is invisible to every constant one form."""
    from solvhull import iterated_integral

    path = sol_problem.lattice.path_of(parse_word("a b1 a^-1 b1^-1"))
    rng = np.random.default_rng(9)
    for _ in range(5):
        f = rng.standard_normal(3)
        assert abs(iterated_integral([f], path)) < 1e-12


def _recursive_chains(form, p, q):
    """Reference: the chains in the order of a recursive depth-first walk."""
    steps = form.chain_steps
    chains = []

    def rec(node, acc):
        if node == q:
            chains.append(tuple(acc))
            return
        for nxt in steps[node]:
            if nxt <= q:
                rec(nxt, acc + [nxt])

    rec(p, [p])
    return chains


def test_entry_chains_match_recursive_walk(sect4_stages, filiform_forms):
    form = sect4_stages["form"]
    for p in range(form.r):
        for q in range(form.r):
            assert entry_chains(form, p, q) == _recursive_chains(form, p, q)
    form = filiform_forms[6]
    for p in range(form.r):
        assert entry_chains(form, p, form.r - 1) == _recursive_chains(form, p, form.r - 1)


def test_entry_chains_leave_no_reference_cycles(sect4_stages):
    """Chains are enumerated without a self-referencing closure."""
    form = sect4_stages["form"]
    entry_chains(form, 0, form.r - 1)
    gc.collect()
    gc.disable()
    try:
        assert entry_chains(form, 0, form.r - 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------------ chain plans


PLAN_FORMS = ["sol", "sect4", "sect4-full"] + [f"corpus-{seed}" for seed in CORPUS_SEEDS] + [
    "filiform-4", "filiform-5", "filiform-6",
]


def _unplanned_entry_sums(form, stacked, p, q):
    """Entry (p, q)'s chain sum with the chains walked and gathered on every call.

    The route taken before each form planned its chains; the planned
    route hands the kernel the same arrays, so the values agree bit for bit.
    """
    chains = _recursive_chains(form, p, q)
    size = max((len(c) for c in chains), default=1)
    nodes = np.array([(c[0],) * (size - len(c)) + c for c in chains], dtype=int).reshape(-1, size)
    start = size - np.array([len(c) for c in chains], dtype=int)
    steps = form.closure.index[nodes[:, :-1], nodes[:, 1:]]
    return integrals.chain_sums(form.omega[nodes], form.closure_psi.T[steps], stacked, start)


def _closedness_paths(request, name, form):
    """Endpoint equal path variants on the builtins, three seeded paths elsewhere."""
    if name.startswith(("sol", "sect4")):
        problem = request.getfixturevalue(f"{name.split('-')[0]}_problem")
        target = problem.lattice.element_of(parse_word("a b1" if name == "sol" else "c g1"))
        return path_variants(problem.model, target, seed=3, trials=3)
    rng = np.random.default_rng(800 + len(name))
    return [capped_path(rng, form, segments) for segments in (4, 1, 3)]


@pytest.mark.parametrize("name", PLAN_FORMS)
def test_batched_closedness_matches_the_per_entry_route(name, request):
    """Every upper-triangle entry, batched, within 8 ulps of the scale of each entry alone."""
    if name == "sect4-full":
        form = request.getfixturevalue("sect4_full_stages")["form"]
    else:
        form = form_by_name(request, name)
    paths = _closedness_paths(request, name, form)
    entries = upper_triangle(form.r)
    stacked = integrals.stack_paths(paths, form.dim)
    alone = np.array([_entry_sums(form, stacked, p, q) for p, q in entries]).T
    plans = [form.chain_plan(p, q) for p, q in entries]
    batched = np.hstack([MONODROMY._batch_sums(stacked, plans[b]) for b in MONODROMY._batches(plans)])
    scale = max(1.0, float(np.max(np.abs(alone))))
    assert np.max(np.abs(batched - alone)) <= 8 * EPS * scale

    base = transport(form, paths[0])
    got = closedness_residual(form, paths, base, entries)
    want = per_entry_closedness(form, paths, base, entries)
    base_scale = max(1.0, float(np.max(np.abs(base))))
    assert np.allclose(got, want, rtol=0, atol=16 * EPS * scale / base_scale)


@pytest.mark.parametrize("name", PLAN_FORMS)
def test_chain_plans_walk_once_per_entry_and_keep_every_value(name, request, monkeypatch):
    """Two passes over the last column walk each entry's chains once and match the old route."""
    if name == "sect4-full":
        built = request.getfixturevalue("sect4_full_stages")["form"]
    else:
        built = form_by_name(request, name)
    # A copy starts with no plans, whatever other tests asked of the fixture.
    form = dataclasses.replace(built)
    walks = []
    walk = connection._walk_chains

    def counted(steps, p, q):
        walks.append((p, q))
        return walk(steps, p, q)

    monkeypatch.setattr(connection, "_walk_chains", counted)
    rng = np.random.default_rng(700 + len(name))
    paths = [capped_path(rng, form, segments) for segments in (4, 2)]
    column = [(p, form.r - 1) for p in range(form.r)]
    alone = integrals.stack_paths(paths[:1], form.dim)
    both = integrals.stack_paths(paths, form.dim)
    expected = {
        (p, q): (_unplanned_entry_sums(form, alone, p, q)[0], _unplanned_entry_sums(form, both, p, q))
        for p, q in column
    }
    for _ in range(2):
        for p, q in column:
            value = entry_chain_value(form, paths[0], p, q)
            assert value == expected[p, q][0], (p, q)
            assert np.array_equal(_entry_sums(form, both, p, q), expected[p, q][1])
    assert walks == column
    assert form._chain_plans.misses == len(column)
    for p, q in column:
        assert entry_chains(form, p, q) == _recursive_chains(form, p, q)
        plan = form.chain_plan(p, q)
        for a in (plan.start, plan.nodes, plan.exponents, plan.factors):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.reshape(-1)[:1] = 0


def test_chain_plan_memo_leaves_no_reference_cycles(sect4_full_stages):
    """A form and its plans are freed when the last reference goes, not by the collector."""
    form = sect4_full_stages["form"]
    assert form._chain_plans.maxsize == connection._MEMO_SIZE
    dataclasses.replace(form).chain_plan(0, form.r - 1)
    gc.collect()
    gc.disable()
    try:
        fresh = dataclasses.replace(form)
        for p in range(fresh.r):
            assert fresh.chain_plan(p, fresh.r - 1).nodes.size
        del fresh
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", PLAN_FORMS)
def test_the_closure_diagonal_holds_the_characters(name, request):
    """A repeated node's step table is its character, which _batch_sums pads with."""
    if name == "sect4-full":
        form = request.getfixturevalue("sect4_full_stages")["form"]
    else:
        form = form_by_name(request, name)
    diagonal = form.closure.index[np.arange(form.r), np.arange(form.r)]
    assert form.closure_psi.dtype == form.omega.dtype
    assert np.array_equal(form.closure_psi[:, diagonal].T, form.omega)


def plan_sizes(form):
    """Bytes of every entry's chain plan, from chain counts and lengths, not walks.

    A plan of c chains on n slots holds c start slots, c n node ids and
    c (2n - 1) dim table entries, 8 bytes each on a real form.
    """
    r, live = form.r, form.live
    count = np.zeros((r, r), dtype=np.int64)
    slots = np.zeros((r, r), dtype=np.int64)
    for p in range(r - 1, -1, -1):
        count[p, p], slots[p, p] = 1, 1
        nxt = np.flatnonzero(live[p])
        count[p] += count[nxt].sum(axis=0)
        slots[p] = np.maximum(slots[p], np.where(count[nxt] > 0, slots[nxt] + 1, 0).max(axis=0, initial=0))
    return 8 * count * (1 + slots + (2 * slots - 1) * form.dim)


# The 256 largest plans of a form, the most its plan memo holds by count,
# stay under these bytes: 1.35 MiB at r = 96 and 45.9 MiB at r = 291. The
# memo's byte bound, _MEMO_BYTES, holds the second to 16 MiB.
PLAN_MEMO_BYTES = {6: 2 * 2**20, 8: 48 * 2**20}


@pytest.mark.parametrize("rank", sorted(PLAN_MEMO_BYTES))
def test_a_full_plan_memo_stays_under_its_byte_bound(rank, filiform_forms):
    if rank in filiform_forms:
        form = filiform_forms[rank]
    else:
        split = build_splitting(validate_algebra(graded_filiform_structure(rank)))
        form = build_connection_form(build_enveloping_rep(split))
    assert form.r == {6: 96, 8: 291}[rank] and form.omega.dtype == np.float64
    sizes = plan_sizes(form)
    p, q = np.unravel_index(int(np.argmax(sizes)), sizes.shape)
    plan = dataclasses.replace(form).chain_plan(p, q)
    assert sum(a.nbytes for a in (plan.start, plan.nodes, plan.exponents, plan.factors)) == sizes[p, q]
    assert np.sort(sizes, axis=None)[-connection._MEMO_SIZE:].sum() <= PLAN_MEMO_BYTES[rank]


def test_a_last_column_sweep_keeps_every_plan(filiform_forms):
    """The rank 6 form's 96 last-column plans, 0.76 MiB, stay within both bounds."""
    form = dataclasses.replace(filiform_forms[6])
    for _ in range(2):
        for p in range(form.r):
            form.chain_plan(p, form.r - 1)
    plans = form._chain_plans
    assert len(plans) == form.r == 96 and plans.misses == form.r
    assert plans.nbytes == plan_sizes(form)[:, -1].sum() < 2**20


def test_the_plan_memo_evicts_by_bytes(filiform_forms, monkeypatch):
    """Under a small byte bound plans are evicted and planned again; no value changes."""
    form = filiform_forms[6]
    column = [(p, form.r - 1) for p in range(form.r)]
    rng = np.random.default_rng(77)
    path = capped_path(rng, form, 4)
    want = [entry_chain_value(dataclasses.replace(form), path, p, q) for p, q in column]
    bound = int(np.sort(plan_sizes(form)[:, -1])[-3:].sum())
    monkeypatch.setattr(connection, "_MEMO_BYTES", bound)
    small = dataclasses.replace(form)
    for _ in range(2):
        assert [entry_chain_value(small, path, p, q) for p, q in column] == want
        assert small._chain_plans.nbytes <= bound
    plans = small._chain_plans
    assert plans.maxbytes == bound and 0 < len(plans) < form.r
    assert plans.misses > form.r


@pytest.mark.parametrize("p, q", [(0, 10**6), (-1, 3), (-1, -1), (4, 0), (0, -5)])
def test_entry_indices_outside_the_form_are_rejected(sect4_stages, sect4_problem, p, q):
    form = sect4_stages["form"]
    assert form.r == 4
    variants = path_variants(sect4_problem.model, sect4_problem.lattice.generator("c"), trials=1)
    base = transport(form, variants[0])
    with pytest.raises(ValidationError):
        entry_chain_value(form, variants[0], p, q)
    with pytest.raises(ValidationError):
        entry_chains(form, p, q)
    with pytest.raises(ValidationError):
        closedness_residual(form, variants, base, entries=[(p, q)])


def test_entries_below_the_diagonal_are_zero(sect4_stages, sect4_problem):
    form = sect4_stages["form"]
    variants = path_variants(sect4_problem.model, sect4_problem.lattice.generator("c"), trials=1)
    base = transport(form, variants[0])
    for p in range(1, form.r):
        for q in range(p):
            assert entry_chains(form, p, q) == []
            assert entry_chain_value(form, variants[0], p, q) == 0
            assert base[p, q] == 0
    below = [(p, q) for p in range(form.r) for q in range(p)]
    assert closedness_residual(form, variants, base, entries=below) == (0.0, 0.0)
