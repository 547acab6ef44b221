"""End to end acceptance checks with pinned tolerances.

One test per criterion; the terminal summary prints a PASS or FAIL line
for each. Runtime sensitive criteria measure wall time themselves.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.random import default_rng

from solvhull import build_splitting, builtin_problem
from solvhull.algebra import lower_central_series
from solvhull.groups import parse_word
from solvhull.integrals import (
    IntegralWord,
    exp_iterated_integral,
    exp_iterated_integral_series,
    iterated_integral,
    iterated_integral_quadrature,
    shuffle_identity_residual,
    transport,
)
from solvhull.monodromy import (
    build_monodromy_rep,
    path_independence_residual,
    path_variants,
    word_monodromy,
)
from solvhull.paths import PathWord

from conftest import bracket


def embedding_defect(split):
    """Worst defect of [x, y] = T_x y - T_y x + [x, y]_shadow on the basis."""
    alg = split.base
    n = alg.dim
    worst = 0.0
    for i in range(n):
        for j in range(n):
            x = np.eye(n)[i]
            y = np.eye(n)[j]
            lhs = bracket(alg, x, y)
            rhs = (
                split.semisimple.apply(x) @ y.astype(complex)
                - split.semisimple.apply(y) @ x.astype(complex)
                + bracket(split.shadow, x, y).astype(complex)
            )
            worst = max(worst, float(np.max(np.abs(lhs.astype(complex) - rhs))))
    scale = max(1.0, float(np.max(np.abs(alg.structure))))
    return worst / scale


def suite_algebras(corpus):
    algebras = [builtin_problem("sol").algebra, builtin_problem("sect4").algebra]
    algebras.extend(corpus[seed] for seed in sorted(corpus))
    return algebras


def test_criterion_01_splitting_suite(corpus):
    started = time.monotonic()
    worst_resid = 0.0
    worst_embed = 0.0
    for alg in suite_algebras(corpus):
        split = build_splitting(alg)
        series = lower_central_series(split.shadow)
        assert series[-1].shape[1] == 0  # shadow is nilpotent
        assert split.shadow_class == len(series) - 1
        worst_resid = max(worst_resid, max(split.residuals.values()))
        worst_embed = max(worst_embed, embedding_defect(split))
    elapsed = time.monotonic() - started
    assert worst_resid < 1e-9
    assert worst_embed < 1e-9
    assert elapsed < 30.0


def test_criterion_02_semisimple_adjoint_kernel(
    sol_stages, sect4_stages, corpus_splittings
):
    parts = [sol_stages["semisimple"], sect4_stages["semisimple"]]
    parts.extend(corpus_splittings[seed].semisimple for seed in sorted(corpus_splittings))
    for ads in parts:
        hom = max(ads.residuals["kills_brackets"], ads.residuals["commuting"])
        kernel_distance = max(
            ads.residuals["kernel_in_nilradical"],
            ads.residuals["nilradical_in_kernel"],
        )
        assert hom < 1e-9
        assert kernel_distance < 1e-8


def test_criterion_03_flatness(sol_stages, sect4_stages, sect4_full_stages):
    cases = ((sol_stages, 4), (sect4_stages, 4), (sect4_full_stages, 7))
    for stages, expected_r in cases:
        form = stages["form"]
        assert form.r == expected_r
        c = form.envelope.split.base.structure
        n = form.dim
        scale = max(1.0, float(np.max(np.abs(form.psi_tensor))))
        for i in range(n):
            for j in range(n):
                x = np.eye(n)[i]
                y = np.eye(n)[j]
                lhs = form.psi(x) @ form.psi(y) - form.psi(y) @ form.psi(x)
                rhs = form.psi(c[i, j, :])
                assert float(np.max(np.abs(lhs - rhs))) / scale < 1e-9


def test_criterion_04_characters_in_lattice(sol_stages, sect4_stages, sect4_full_stages):
    for stages in (sol_stages, sect4_stages, sect4_full_stages):
        assert stages["form"].residuals["character_rounding"] < 1e-6
    for stages, coeffs in ((sect4_full_stages, {0, 1, 2}), (sect4_stages, {0, 1})):
        form = stages["form"]
        assert len(form.char_basis) == 1
        basis = np.asarray(form.char_basis[0])
        assert abs(basis[0] - 1j * np.pi) < 1e-9
        assert np.max(np.abs(basis[1:])) < 1e-12
        assert set(int(c) for c in form.char_coeffs[:, 0]) == coeffs


def test_criterion_05_series_convergence():
    started = time.monotonic()
    rng = default_rng(20260816)
    dim = 3
    checked = 0
    for _ in range(50):
        size = int(rng.integers(1, 5))
        exponents = rng.standard_normal((size, dim)) + 1j * rng.standard_normal(
            (size, dim)
        )
        factors = rng.standard_normal((size - 1, dim)) + 1j * rng.standard_normal(
            (size - 1, dim)
        )
        word = IntegralWord(tuple(exponents), tuple(factors))
        segments = []
        for _ in range(int(rng.integers(1, 4))):
            direction = rng.standard_normal(dim)
            duration = float(rng.uniform(0.3, 1.0))
            segments.append((direction, duration))
        path = PathWord(segments)
        growth = sum(
            float(np.linalg.norm(word.segment_matrix(x) * t, "fro"))
            for x, t in path
        )
        if growth > 4.0:
            factor = 3.9 / growth
            path = PathWord([(x * factor, t) for x, t in path])
        exact = exp_iterated_integral(word, path)
        series = exp_iterated_integral_series(word, path, 25)
        assert series.growth <= 4.0
        observed = abs(exact - series.value)
        assert observed < 1e-8
        assert observed <= series.tail_bound
        checked += 1
    assert checked == 50
    assert time.monotonic() - started < 20.0


@pytest.mark.parametrize("name", ["sol", "sect4"])
def test_criterion_06_monodromy_path_independence(request, name):
    problem = request.getfixturevalue(f"{name}_problem")
    form = request.getfixturevalue(f"{name}_stages")["form"]
    lattice = problem.lattice
    rep = build_monodromy_rep(form, lattice)
    worst = 0.0
    for name_a in lattice.names:
        for name_b in lattice.names:
            direct = word_monodromy(form, lattice, ((name_a, 1), (name_b, 1)))
            composed = rep.generator_matrix(name_a) @ rep.generator_matrix(name_b)
            scale = max(1.0, float(np.max(np.abs(direct))))
            worst = max(worst, float(np.max(np.abs(direct - composed))) / scale)
    assert worst < 1e-8
    for gen_name in lattice.names:
        variants = path_variants(problem.model, lattice.generator(gen_name), seed=7, trials=20)
        residual = path_independence_residual(form, variants, transport(form, variants[0]))
        assert residual < 1e-8


def test_criterion_07_unipotent_images_and_unit_integral(
    sect4_stages, sect4_problem
):
    form = sect4_stages["form"]
    lattice = sect4_problem.lattice
    rep = build_monodromy_rep(form, lattice)
    letters = [(n, 1) for n in lattice.names] + [(n, -1) for n in lattice.names]
    worst = 0.0
    count = 0
    for length in range(1, 5):
        for combo in itertools.product(letters, repeat=length):
            m = rep.of_word(combo)
            worst = max(worst, float(np.max(np.abs(np.diag(m) - 1.0))))
            count += 1
    assert count == 10 + 100 + 1000 + 10000
    assert worst < 1e-9

    basis = np.asarray(form.char_basis[0])
    word = IntegralWord((basis,), ())
    path = lattice.path_of(parse_word("c"))
    value = exp_iterated_integral(word, path)
    assert abs(value - 1.0) < 1e-12


def test_criterion_08_chen_vs_exponential_separation(sol_stages, sol_problem):
    form = sol_stages["form"]
    lattice = sol_problem.lattice
    commutator = parse_word("a b1 a^-1 b1^-1")
    path = lattice.path_of(commutator)
    dt = np.array([1.0, 0.0, 0.0])
    assert abs(iterated_integral([dt], path)) < 1e-12
    rho = word_monodromy(form, lattice, commutator)
    assert float(np.max(np.abs(rho - np.eye(form.r)))) >= 0.1
    control = word_monodromy(form, lattice, parse_word("b1 b2 b1^-1 b2^-1"))
    assert float(np.max(np.abs(control - np.eye(form.r)))) < 1e-10


def test_criterion_09_quadrature_oracle_and_shuffles():
    f1 = np.array([1.0, 0.0, 0.0])
    f2 = np.array([0.0, 1.0, 0.0])
    f3 = np.array([0.5, -0.3, 0.2])
    path_a = PathWord([((1.0, 0.0, 0.0), 1.0)])
    path_b = PathWord([((0.6, 0.4, -0.2), 0.7), ((-0.3, 0.8, 0.5), 1.1)])
    path_c = PathWord(
        [((1.0, 0.2, 0.0), 0.5), ((0.0, -0.7, 0.4), 0.9), ((0.3, 0.3, 0.3), 0.6)]
    )
    regression = [
        ([f1], path_a),
        ([f1], path_b),
        ([f1, f2], path_b),
        ([f1, f2], path_c),
        ([f1, f2, f3], path_b),
        ([f1, f2, f3], path_c),
    ]
    for functionals, path in regression:
        exact = iterated_integral(functionals, path)
        quad = iterated_integral_quadrature(functionals, path, points=10**4)
        assert abs(exact - quad) < 1e-3

    rng = default_rng(52)
    functionals = [rng.standard_normal(3) for _ in range(3)]
    for _ in range(100):
        word_a = tuple(int(i) for i in rng.integers(0, 3, size=rng.integers(1, 4)))
        word_b = tuple(int(i) for i in rng.integers(0, 3, size=rng.integers(1, 4)))
        segments = [
            (rng.standard_normal(3), float(rng.uniform(0.2, 1.0)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        residual = shuffle_identity_residual(
            functionals, word_a, word_b, PathWord(segments)
        )
        assert residual < 1e-10


def test_criterion_10_cli_verify_deterministic():
    for name in ("sol", "sect4"):
        started = time.monotonic()
        first = subprocess.run(
            [sys.executable, "-m", "solvhull", "verify", "--example", name],
            capture_output=True,
            text=True,
            timeout=120,
        )
        elapsed = time.monotonic() - started
        second = subprocess.run(
            [sys.executable, "-m", "solvhull", "verify", "--example", name],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert first.returncode == 0
        assert second.returncode == 0
        assert elapsed < 60.0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["ok"] is True
