"""Semidirect product group model, exponential arcs, lattice words."""

import dataclasses
import sys

import numpy as np
import pytest

from solvhull import (
    EndpointMismatch,
    GroupElement,
    Lattice,
    PathWord,
    SemidirectModel,
    Tolerances,
    ValidationError,
    build_connection_form,
    builtin_problem,
    cli,
    connection,
    groups,
    integrals,
    linalg,
    matfuncs,
    parse_word,
    path_variants,
    word_monodromy,
)


@pytest.fixture()
def sol_model(sol_problem):
    return sol_problem.model


@pytest.fixture()
def sect4_model(sect4_problem):
    return sect4_problem.model


def random_element(model, rng, scale=1.0):
    t = scale * rng.standard_normal(model.k)
    v = scale * (rng.standard_normal(model.m) + 1j * rng.standard_normal(model.m))
    return GroupElement(tuple(t), tuple(v))


# ------------------------------------------------------------ construction


def test_group_element_coerces_types():
    g = GroupElement((1, 2), (3, 4j))
    assert g.t.tolist() == [1.0, 2.0]
    assert g.v.tolist() == [3 + 0j, 4j]
    assert g.t.dtype.kind == "f"
    assert g.v.dtype == complex


def test_group_element_holds_read_only_copies():
    t, v = np.array([1.0, 2.0]), np.array([3.0 + 0j, 4j])
    g = GroupElement(t, v)
    for given, held in ((t, g.t), (v, g.v)):
        with pytest.raises(ValueError):
            held[0] = 9.0
        assert given.flags.writeable
        assert not np.shares_memory(given, held)


def test_exp_results_are_read_only(sol_model):
    x = np.array([1.0, 0.5, -0.5])
    g = sol_model.exp(x, 0.7)
    for held in (g.t, g.v):
        with pytest.raises(ValueError):
            held[0] = 0.0
    assert x.flags.writeable
    assert not np.shares_memory(x, g.v)
    assert sol_model.exp(x, 0.7) is g


def test_model_requires_translation_directions():
    with pytest.raises(ValidationError):
        SemidirectModel([])


def test_model_rejects_mismatched_fiber_shapes():
    with pytest.raises(ValidationError):
        SemidirectModel([np.eye(2), np.eye(3)])


def test_model_rejects_noncommuting_fiber_matrices():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        SemidirectModel([a, b])


def test_model_dimensions(sol_model, sect4_model):
    assert (sol_model.k, sol_model.m, sol_model.dim) == (1, 2, 3)
    assert (sect4_model.k, sect4_model.m, sect4_model.dim) == (1, 2, 3)


# ------------------------------------------------------------ group axioms


def test_identity_is_neutral(sol_model):
    rng = np.random.default_rng(0)
    g = random_element(sol_model, rng)
    e = sol_model.identity()
    assert sol_model.distance(sol_model.multiply(g, e), g) < 1e-12
    assert sol_model.distance(sol_model.multiply(e, g), g) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_multiplication_is_associative(seed, sol_model, sect4_model):
    rng = np.random.default_rng(seed)
    for model in (sol_model, sect4_model):
        g, h, k = (random_element(model, rng) for _ in range(3))
        lhs = model.multiply(model.multiply(g, h), k)
        rhs = model.multiply(g, model.multiply(h, k))
        assert model.distance(lhs, rhs) < 1e-10


def test_inverse_inverts(sect4_model):
    rng = np.random.default_rng(1)
    g = random_element(sect4_model, rng)
    e = sect4_model.identity()
    assert sect4_model.distance(sect4_model.multiply(g, sect4_model.inverse(g)), e) < 1e-10
    assert sect4_model.distance(sect4_model.multiply(sect4_model.inverse(g), g), e) < 1e-10


def test_semidirect_multiplication_formula(sol_model):
    g = GroupElement((0.5,), (1.0, 2.0))
    h = GroupElement((0.25,), (0.0, 1j))
    out = sol_model.multiply(g, h)
    assert np.allclose(out.t, [0.75])
    expected_v = g.v + sol_model.phi(g.t) @ h.v
    assert np.allclose(out.v, expected_v)


def test_power_matches_repeated_multiplication(sol_model):
    rng = np.random.default_rng(2)
    g = random_element(sol_model, rng, scale=0.5)
    g3 = sol_model.multiply(sol_model.multiply(g, g), g)
    assert sol_model.distance(sol_model.power(g, 3), g3) < 1e-10
    gm2 = sol_model.power(g, -2)
    inv = sol_model.inverse(g)
    assert sol_model.distance(gm2, sol_model.multiply(inv, inv)) < 1e-10
    assert sol_model.distance(sol_model.power(g, 0), sol_model.identity()) == 0.0


def test_phi_is_a_one_parameter_group(sol_model):
    t1, t2 = np.array([0.3]), np.array([0.9])
    lhs = sol_model.phi(t1 + t2)
    rhs = sol_model.phi(t1) @ sol_model.phi(t2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_phi_memo_returns_the_exponential_read_only(sect4_model):
    t = np.array([0.3, -1.7])
    first = sect4_model.phi(t)
    assert np.array_equal(first, matfuncs.expm(groups._action_generator(sect4_model.mats, t)))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    assert sect4_model.phi(t.copy()) is first


def test_models_do_not_share_memo_entries(sol_problem):
    other = builtin_problem("sol").model
    t = np.array([0.4])
    mine = sol_problem.model.phi(t)
    assert len(other._phi_memo) == 0
    assert other.phi(t) is not mine
    x = sol_problem.model.direction_of([0.2], [1.0, -1.0])
    sol_problem.model.exp(x, 0.5)
    assert len(other._exp_memo) == 0


def test_memo_stays_within_its_bound(sol_model):
    for i in range(3 * linalg._MEMO_SIZE):
        sol_model.phi(np.array([i / 7.0]))
        sol_model.exp(sol_model.direction_of([0.1], [1.0, 0.0]), i / 11.0)
    assert len(sol_model._phi_memo) == linalg._MEMO_SIZE
    assert len(sol_model._exp_memo) == linalg._MEMO_SIZE
    assert sol_model._phi_memo.maxsize == linalg._MEMO_SIZE


def test_exp_validates_on_a_memo_hit(sol_model):
    x = sol_model.direction_of([0.5], [1.0, 2.0])
    sol_model.exp(x, 1.0)
    bad = x.copy()
    bad[0] += 1e-3j
    with pytest.raises(ValidationError):
        sol_model.exp(bad, 1.0)
    with pytest.raises(ValidationError):
        sol_model.exp(x[:-1], 1.0)


# ------------------------------------------------------------ exponentials


def test_split_direction_validates(sol_model):
    with pytest.raises(ValidationError):
        sol_model.split_direction(np.ones(5))
    with pytest.raises(ValidationError):
        sol_model.split_direction(np.array([1j, 0.0, 0.0]))


def test_exp_of_pure_translation(sol_model):
    g = sol_model.exp(np.array([1.0, 0.0, 0.0]), duration=0.7)
    assert np.allclose(g.t, [0.7])
    assert np.max(np.abs(g.v)) == 0.0


def test_exp_of_pure_fiber_is_linear_motion(sect4_model):
    z = np.array([1.0 + 2j, -1j])
    g = sect4_model.exp(sect4_model.direction_of([0.0], z), duration=1.5)
    assert np.allclose(g.t, [0.0])
    assert np.allclose(g.v, 1.5 * z)


@pytest.mark.parametrize("seed", range(3))
def test_exp_is_a_one_parameter_subgroup(seed, sol_model, sect4_model):
    rng = np.random.default_rng(10 + seed)
    for model in (sol_model, sect4_model):
        x = rng.standard_normal(3) + 1j * np.concatenate([[0.0], rng.standard_normal(2)])
        s, t = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
        whole = model.exp(x, s + t)
        pieces = model.multiply(model.exp(x, s), model.exp(x, t))
        assert model.distance(whole, pieces) < 1e-10


def test_endpoint_folds_segments(sol_model):
    path = PathWord(
        [((1.0, 0.0, 0.0), 0.5), ((0.0, 1.0, 0.0), 1.0), ((0.0, 0.0, 1.0), 2.0)]
    )
    step = sol_model.identity()
    for x, t in path:
        step = sol_model.multiply(step, sol_model.exp(x, t))
    assert sol_model.distance(sol_model.endpoint(path), step) == 0.0


def test_endpoint_of_empty_path_is_identity(sol_model):
    assert sol_model.distance(
        sol_model.endpoint(PathWord([])), sol_model.identity()
    ) == 0.0


# ------------------------------------------------------------ loops


@pytest.mark.parametrize("seed", range(5))
def test_loop_of_reaches_its_element(seed, sol_model, sect4_model):
    rng = np.random.default_rng(20 + seed)
    for model in (sol_model, sect4_model):
        g = random_element(model, rng)
        path = model.loop_of(g)
        assert model.distance(model.endpoint(path), g) < 1e-10


def test_loop_of_pure_translation_is_one_segment(sol_model):
    g = GroupElement((1.25,), (0.0, 0.0))
    assert len(sol_model.loop_of(g)) == 1


def test_loop_of_pure_fiber_is_one_segment(sol_model):
    g = GroupElement((0.0,), (1.0, -2.0))
    assert len(sol_model.loop_of(g)) == 1


def test_loop_of_generic_element_is_two_segments(sol_model):
    g = GroupElement((0.5,), (1.0, 1.0))
    assert len(sol_model.loop_of(g)) == 2


def test_loop_of_endpoint_check_can_fail(sol_problem):
    # an unsatisfiable tolerance forces the endpoint check to fail
    strict = Tolerances(num=-1.0)
    model = SemidirectModel(sol_problem.model.mats, strict)
    with pytest.raises(EndpointMismatch):
        model.loop_of(GroupElement((0.5,), (1.0, 1.0)))


@pytest.mark.parametrize(
    "t, v",
    [((0.5,), (np.nan, 1.0)), ((np.nan,), (0.0, 0.0)), ((np.inf,), (0.0, 0.0)), ((0.0,), (complex(0, np.inf), 1.0))],
)
def test_group_element_rejects_non_finite_entries(t, v):
    """A NaN fiber would give a loop that misses its element, a NaN translation an error inside expm."""
    with pytest.raises(ValidationError, match="finite"):
        GroupElement(t, v)


def test_loop_of_an_element_whose_phi_overflows_is_an_endpoint_mismatch(sol_model):
    """phi(-800) overflows on sol, so no finite fiber arc reaches the element."""
    g = GroupElement([800.0], [1.0, 1.0])
    with np.errstate(all="ignore"):
        for check in (True, False):
            with pytest.raises(EndpointMismatch, match="nan"):
                sol_model.loop_of(g, check=check)
        with pytest.raises(EndpointMismatch, match="nan"):
            path_variants(sol_model, g)


def test_loop_of_keeps_a_translation_whose_norm_underflows(sol_model):
    """np.linalg.norm((1e-200,)) is 0; the loop still runs the translation."""
    g = GroupElement((1e-200,), (0.0, 0.0))
    (x, t), = sol_model.loop_of(g)
    assert x[0] == 1e-200 and t == 1.0


def test_induced_structure_matches_builtin_tables(sol_problem, sect4_problem):
    for problem in (sol_problem, sect4_problem):
        induced = problem.model.induced_structure().astype(complex)
        table = problem.algebra.structure.astype(complex)
        assert np.max(np.abs(induced - table)) < 1e-12


# ------------------------------------------------------------ lattices


def test_lattice_generator_lookup(sol_problem):
    lat = sol_problem.lattice
    assert lat.names == ("a", "b1", "b2")
    g = lat.generator("a")
    assert g.t[0] == pytest.approx(np.log((3.0 + np.sqrt(5.0)) / 2.0))
    with pytest.raises(KeyError):
        lat.generator("nope")


def test_lattice_element_of_word(sol_problem):
    lat = sol_problem.lattice
    model = sol_problem.model
    word = parse_word("a b1^2")
    manual = model.multiply(
        lat.generator("a"),
        model.multiply(lat.generator("b1"), lat.generator("b1")),
    )
    assert model.distance(lat.element_of(word), manual) < 1e-12


@pytest.mark.parametrize("problem_name", ["sol", "sect4"])
def test_lattice_relations_hold(problem_name, sol_problem, sect4_problem):
    problem = {"sol": sol_problem, "sect4": sect4_problem}[problem_name]
    lat = problem.lattice
    model = problem.model
    for lhs, rhs in lat.relations:
        left = lat.element_of(parse_word(lhs))
        right = lat.element_of(parse_word(rhs))
        assert model.distance(left, right) < 1e-9, (lhs, rhs)


@pytest.mark.parametrize("text", ["a", "b1^-1", "a b1 a^-1 b1^-1", "a^2 b2"])
def test_path_of_reaches_element(text, sol_problem):
    lat = sol_problem.lattice
    word = parse_word(text)
    path = lat.path_of(word)
    reached = sol_problem.model.endpoint(path)
    target = lat.element_of(word)
    assert sol_problem.model.distance(reached, target) < 1e-9


def test_path_of_exponent_repeats_loops(sol_problem):
    lat = sol_problem.lattice
    one = lat.path_of(parse_word("a"))
    three = lat.path_of(parse_word("a^3"))
    assert len(three) == 3 * len(one)


@pytest.mark.parametrize("problem_name", ["sol", "sect4"])
def test_path_of_equals_one_loop_per_repetition(problem_name, sol_problem, sect4_problem):
    problem = {"sol": sol_problem, "sect4": sect4_problem}[problem_name]
    lat, model = problem.lattice, problem.model
    names = lat.names
    word = ((names[0], 2), (names[-1], -3), (names[0], 0), (names[0], -1), (names[-1], 1))
    segments = []
    for name, exp in word:
        g = lat.generator(name)
        step = g if exp >= 0 else model.inverse(g)
        for _ in range(abs(exp)):
            segments.extend(model.loop_of(step, check=False).segments)
    assert lat.path_of(word) == PathWord(segments)


def test_path_of_empty_word(sol_problem):
    path = sol_problem.lattice.path_of(())
    assert len(path) == 0


def test_path_of_rejects_an_unknown_letter_at_exponent_zero(sol_problem):
    with pytest.raises(KeyError):
        sol_problem.lattice.path_of((("a", 1), ("nope", 0)))


@pytest.mark.parametrize("problem_name", ["sol", "sect4"])
def test_lattice_builds_each_letter_loop_once(problem_name, sol_problem, sect4_problem, monkeypatch):
    problem = {"sol": sol_problem, "sect4": sect4_problem}[problem_name]
    # A copy starts with no letters, whatever other tests asked of the fixture.
    lat = dataclasses.replace(problem.lattice)
    built = []
    loop_of = groups.SemidirectModel.loop_of

    def counted(model, g, check=True):
        built.append(check)
        return loop_of(model, g, check)

    monkeypatch.setattr(groups.SemidirectModel, "loop_of", counted)
    names = lat.names
    word = ((names[0], 2), (names[-1], -1), (names[0], -3), (names[-1], 1))
    first = lat.path_of(word)
    assert lat.path_of(word) == first
    assert len(lat.path_of(tuple(reversed(word)))) == len(first)
    assert built == [False] * 4


def test_path_of_catches_a_corrupted_letter_loop(sol_problem):
    lat = dataclasses.replace(sol_problem.lattice)
    word = parse_word("a b1")
    lat.path_of(word)
    # b1 is a pure fiber element, so its loop is one segment, whose
    # direction owns its memory and can be made writable again.
    ((x, _),) = lat._loops(("b1", True), groups._loop, lat, "b1", True)
    x.flags.writeable = True
    x[-1] += 0.5
    x.flags.writeable = False
    with pytest.raises(EndpointMismatch):
        lat.path_of(word)
    assert len(lat.path_of(word, check=False)) == 2


def test_path_of_catches_an_endpoint_that_overflows(sol_problem):
    """a^800 overflows phi, so its element's fiber is NaN; a NaN deviation fails the check."""
    with np.errstate(all="ignore"), pytest.raises(EndpointMismatch, match="nan"):
        sol_problem.lattice.path_of((("a", 800),))


def assert_read_only_element(g):
    """g's arrays are read-only, and equal to what the validating constructor makes of them."""
    checked = GroupElement(g.t, g.v)
    for got, want in ((g.t, checked.t), (g.v, checked.v)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[...] = 0


def assert_read_only_path(path):
    """Every segment is read-only and equal to what PathWord's checks make of it."""
    checked = PathWord(path.segments)
    assert path == checked
    for (x, t), (y, s) in zip(path, checked):
        assert x.dtype == y.dtype and x.shape == y.shape and type(t) is type(s)
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0


@pytest.mark.parametrize("problem_name", ["sol", "sect4"])
def test_library_built_elements_are_read_only_and_checked(problem_name, sol_problem, sect4_problem):
    model = {"sol": sol_problem, "sect4": sect4_problem}[problem_name].model
    rng = np.random.default_rng(40)
    g, h = random_element(model, rng), random_element(model, rng)
    x = model.direction_of(rng.standard_normal(model.k), rng.standard_normal(model.m))
    built = [
        model.identity(),
        model.multiply(g, h),
        model.inverse(g),
        model.exp(x, 0.75),
        model.power(g, 3),
        model.power(g, -2),
        model.power(g, 0),
    ]
    for out in built:
        assert_read_only_element(out)
    assert model.identity() is model.identity()
    assert not model.identity().t.any() and not model.identity().v.any()


@pytest.mark.parametrize("problem_name", ["sol", "sect4"])
def test_library_built_paths_are_read_only_and_checked(problem_name, sol_problem, sect4_problem):
    problem = {"sol": sol_problem, "sect4": sect4_problem}[problem_name]
    model, lat = problem.model, problem.lattice
    rng = np.random.default_rng(41)
    loop = model.loop_of(random_element(model, rng))
    word = lat.path_of(((lat.names[0], 2), (lat.names[-1], -1)))
    given = PathWord([(rng.standard_normal(model.dim), 0.5)])
    for path in (loop, word, word.concat(loop), word.concat(list(given)), loop.subdivide(3), word.inverse()):
        assert_read_only_path(path)
    with pytest.raises(ValueError):
        loop.concat(PathWord([((1.0,), 1.0)]))


# perfbench/tracing.py wraps these two methods by name as the spans
# groups.loop_of and groups.path_of; a rename would silently drop those
# per-layer metrics from the benchmark.
def test_the_traced_group_methods_exist():
    assert callable(getattr(groups.SemidirectModel, "loop_of", None))
    assert callable(getattr(groups.Lattice, "path_of", None))


# ------------------------------------------------------------ word parsing


def test_parse_word_basic():
    assert parse_word("a b1^-1 a^2") == (("a", 1), ("b1", -1), ("a", 2))


def test_parse_word_empty():
    assert parse_word("") == ()
    assert parse_word("   ") == ()


def test_parse_word_bad_exponent():
    with pytest.raises(ValidationError):
        parse_word("a^x")


def test_parse_word_missing_name():
    with pytest.raises(ValidationError):
        parse_word("^2")


# ------------------------------------------------------------ memo in verify


def verify_stdout(capsys, example, seed):
    code = cli.main(["verify", "--example", example, "--seed", str(seed)])
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("example", ["sol", "sect4"])
def test_memo_changes_no_verify_output(example, monkeypatch, capsys):
    memoized = {seed: verify_stdout(capsys, example, seed) for seed in (0, 1, 7)}
    # Memos of size zero, every memo of the package, miss on every call.
    monkeypatch.setattr(linalg, "_MEMO_SIZE", 0)
    for seed, text in memoized.items():
        assert verify_stdout(capsys, example, seed) == text


@pytest.mark.parametrize("example", ["sol", "sect4"])
def test_segment_memo_changes_no_verify_output(example, monkeypatch, capsys):
    memoized = {seed: verify_stdout(capsys, example, seed) for seed in (0, 1, 7)}
    # With no room in bytes, every segment exponential, chain plan and
    # phi(t), the memo values that are arrays, is computed.
    monkeypatch.setattr(linalg, "_MEMO_BYTES", 0)
    for seed, text in memoized.items():
        assert verify_stdout(capsys, example, seed) == text


@pytest.mark.parametrize("example", ["sol", "sect4"])
def test_letter_memo_changes_no_verify_output(example, monkeypatch, capsys):
    memoized = {seed: verify_stdout(capsys, example, seed) for seed in (0, 1, 7)}

    init = groups.Lattice.__init__
    made = []

    def unmemoized(lattice, *args, **kwargs):
        # A lattice made with memos of size zero builds every letter's
        # loop and power again each time it is asked for.
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_MEMO_SIZE", 0)
            init(lattice, *args, **kwargs)
        made.append(lattice)

    monkeypatch.setattr(groups.Lattice, "__init__", unmemoized)
    for seed, text in memoized.items():
        assert verify_stdout(capsys, example, seed) == text
    assert made and all(lat._loops.misses and not len(lat._loops) for lat in made)


# Measured on sol and sect4 after each form memoized its segment
# exponentials (121 and 134 before, 372 and 443 before phi and exp were
# memoized); the count does not depend on the seed.
EXPM_CALLS = {"sol": 66, "sect4": 70}


@pytest.mark.parametrize("example", ["sol", "sect4"])
def test_verify_expm_call_count(example, monkeypatch, capsys):
    expm = matfuncs.expm
    calls = []

    def counted(a):
        calls.append(1)
        return expm(a)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("solvhull") and getattr(module, "expm", None) is expm:
            monkeypatch.setattr(module, "expm", counted)
    verify_stdout(capsys, example, 0)
    assert 0 < len(calls) <= EXPM_CALLS[example]


# Measured on sol and sect4 after each lattice memoized its letters' loops
# (49 and 59 when path_of built them once per call); the count does not
# depend on the seed.
LOOP_OF_CALLS = {"sol": 24, "sect4": 28}


@pytest.mark.parametrize("example", ["sol", "sect4"])
def test_verify_loop_of_call_count(example, monkeypatch, capsys):
    loop_of = groups.SemidirectModel.loop_of
    calls = []

    def counted(model, g, check=True):
        calls.append(1)
        return loop_of(model, g, check)

    monkeypatch.setattr(groups.SemidirectModel, "loop_of", counted)
    verify_stdout(capsys, example, 0)
    assert 0 < len(calls) <= LOOP_OF_CALLS[example]


# Misses and hits of each memo, by the function it computes with, in one
# verify at seed 0: segment exponentials, phi(t), arcs, letter loops,
# generator powers and chain plans. Measured when every memo became one
# linalg.Memo, and the same as the six memos before; the counts do not
# depend on the seed.
MEMO_TRAFFIC = {
    "sol": {"_segment_exp": (40, 55), "_phi": (16, 113), "_exp": (10, 37),
            "_loop": (6, 21), "power": (7, 22), "_plan_chains": (9, 0)},
    "sect4": {"_segment_exp": (42, 64), "_phi": (16, 146), "_exp": (12, 46),
              "_loop": (8, 27), "power": (10, 27), "_plan_chains": (9, 0)},
}


@pytest.mark.parametrize("example", ["sol", "sect4"])
def test_verify_memo_traffic(example, monkeypatch, capsys):
    traffic = {}
    call = linalg.Memo.__call__

    def counted(memo, key, compute, *args):
        before = memo.misses
        value = call(memo, key, compute, *args)
        missed = memo.misses - before
        misses, hits = traffic.get(compute.__name__, (0, 0))
        traffic[compute.__name__] = (misses + missed, hits + 1 - missed)
        return value

    monkeypatch.setattr(linalg.Memo, "__call__", counted)
    verify_stdout(capsys, example, 0)
    assert traffic == MEMO_TRAFFIC[example]


# One verify at seed 0: each certificate is one chain-kernel call, so
# closedness takes 1, each of the five shuffle checks 1, and the
# exponential integral and the quadrature's exact value 1 each (31 calls
# when closedness took one per entry and a shuffle check four). The
# nilradical's element checks and verify's membership samples are one
# stacked nilpotency call each (22 single-matrix calls before).
CHAIN_KERNEL_CALLS = {"sol": 8, "sect4": 8}
NILPOTENCY_CALLS = {"sol": 2, "sect4": 2}


@pytest.mark.parametrize("example", ["sol", "sect4"])
def test_verify_runs_each_certificate_as_one_batched_call(example, monkeypatch, capsys):
    calls = {"kernel": 0, "nilpotency": 0}

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(integrals, "exp_chain_values", counting("kernel", integrals.exp_chain_values))
    monkeypatch.setattr(
        linalg, "nilpotency_residuals", counting("nilpotency", linalg.nilpotency_residuals)
    )
    verify_stdout(capsys, example, 0)
    assert 0 < calls["kernel"] <= CHAIN_KERNEL_CALLS[example]
    assert 0 < calls["nilpotency"] <= NILPOTENCY_CALLS[example]


def test_word_monodromy_exponentiates_each_distinct_segment_once(
    sol_problem, sol_stages, monkeypatch
):
    form = build_connection_form(sol_stages["envelope"])
    word = parse_word("a^3 b1 a^-3")
    path = sol_problem.lattice.path_of(word)
    distinct = {(x.tobytes(), np.float64(t).tobytes()) for x, t in path}
    assert len(distinct) < len(path)
    expm = connection.expm
    calls = []

    def counted(a):
        calls.append(1)
        return expm(a)

    monkeypatch.setattr(connection, "expm", counted)
    rho = word_monodromy(form, sol_problem.lattice, word)
    assert len(calls) == len(distinct)
    assert np.array_equal(word_monodromy(form, sol_problem.lattice, word), rho)
    assert len(calls) == len(distinct)
