"""Every residual check of the build goes through Tolerances.check.

Each case pushes one residual over its budget with a monkeypatch and
checks that the build raises BudgetExceeded naming the stage, the
residual and the budget, and that the CLI reports it as an invariant or
internal failure (exit 1), not as bad input.
"""

import dataclasses

import numpy as np
import pytest

from solvhull import BudgetExceeded, builtin_problem, cli
from solvhull import algebra, envelope, linalg, splitting, verify
from solvhull.tolerances import DEFAULT, Tolerances


def _wrap(monkeypatch, module, name, change):
    """Replace module.name by a wrapper that passes its result through change."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: change(original(*a, **k)))


def imaginary_basis(monkeypatch):
    _wrap(monkeypatch, linalg, "canon_columns", lambda q: q + 1e-3j)


def non_nilpotent_kernel(monkeypatch):
    monkeypatch.setattr(linalg, "nilpotency_residuals", lambda mats, tol: np.ones(len(mats)))


def kernel_not_an_ideal(monkeypatch):
    monkeypatch.setattr(linalg, "subspace_residual", lambda *a: 1.0)


def complex_weights(monkeypatch):
    def shift(out):
        blocks, weights = out
        return blocks, [tuple(z + 1e-3j for z in w) for w in weights]

    _wrap(monkeypatch, algebra, "_weight_blocks", shift)


def non_commuting_adjoints(monkeypatch):
    _wrap(monkeypatch, algebra, "_semisimple_residuals", lambda res: {**res, "commuting": 1.0})


def perturbed_shadow(monkeypatch):
    def perturb(table):
        noise = 1e-6 * np.random.default_rng(0).standard_normal(table.shape)
        return table + (noise - np.swapaxes(noise, 0, 1)) / 2.0

    _wrap(monkeypatch, splitting, "_shadow_table", perturb)


def torus_not_a_derivation(monkeypatch):
    monkeypatch.setattr(splitting, "_derivation_residual", lambda *a: 1.0)


def flat_generator_weights(monkeypatch):
    def flatten(out):
        gmat, ginv, weights, chars, resid, cond = out
        return gmat, ginv, (1,) * len(weights), chars, resid, cond

    _wrap(monkeypatch, envelope, "_build_generators", flatten)


def shifted_word_character(monkeypatch):
    def shift(out):
        words, word_weights, word_chars = out
        word_chars[0] += 1e-3
        return words, word_weights, word_chars

    _wrap(monkeypatch, envelope, "_order_words", shift)


def non_flat_letters(monkeypatch):
    def perturb(env):
        values = env.letter_entries.values.copy()
        values[0] += 1e-3
        letters = dataclasses.replace(env.letter_entries, values=values)
        return dataclasses.replace(env, letter_entries=letters)

    _wrap(monkeypatch, verify, "build_enveloping_rep", perturb)


# (example, patch, stage, key, name of the budget on Tolerances). Two
# budgets are scaled by the size of what they check, which is close to 1
# on these examples.
CASES = [
    ("sol", imaginary_basis, "nilradical", "imaginary_part", "num"),
    ("sol", non_nilpotent_kernel, "nilradical", "nilpotency[0]", "num"),
    ("sol", kernel_not_an_ideal, "nilradical", "ideal", "num"),
    ("sol", complex_weights, "semisimple_adjoint", "imaginary_part", "num"),
    ("sol", non_commuting_adjoints, "semisimple_adjoint", "commuting", "stage_budget"),
    ("sect4", perturbed_shadow, "splitting", "shadow_jacobi", "alg"),
    ("sol", torus_not_a_derivation, "splitting", "torus_derivation", "stage_budget"),
    ("sect4", flat_generator_weights, "envelope", "forbidden_bracket_components", "num"),
    ("sect4", shifted_word_character, "envelope", "torus_leibniz", "stage_budget"),
    ("sect4", non_flat_letters, "connection", "flatness", "stage_budget"),
]


@pytest.mark.parametrize(
    "example, patch, stage, key, budget",
    CASES,
    ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in CASES],
)
def test_residual_over_budget_names_stage_key_and_budget(
    example, patch, stage, key, budget, monkeypatch, capsys
):
    patch(monkeypatch)
    with pytest.raises(BudgetExceeded) as err:
        verify.build_stages(builtin_problem(example))
    assert (err.value.stage, err.value.key) == (stage, key)
    assert err.value.budget == pytest.approx(getattr(DEFAULT, budget), rel=1e-3)
    assert not err.value.value <= err.value.budget
    for text in (stage, key, f"{err.value.budget:.3e}"):
        assert text in str(err.value)

    # analyze stops at the splitting; hull runs the later stages.
    command = "hull" if stage in ("envelope", "connection") else "analyze"
    assert cli.main([command, "--example", example]) == cli.EXIT_INVARIANT
    stderr = capsys.readouterr().err
    assert stage in stderr and key in stderr


@pytest.mark.parametrize("example", ("sol", "sect4"))
def test_shadow_rounding_is_an_internal_failure_of_the_splitting(
    example, monkeypatch, capsys
):
    perturbed_shadow(monkeypatch)
    assert cli.main(["analyze", "--example", example]) == cli.EXIT_INVARIANT
    assert "splitting" in capsys.readouterr().err


@pytest.mark.parametrize("value", (2e-3, float("nan"), float("inf")))
def test_check_fails_a_residual_not_within_budget(value):
    with pytest.raises(BudgetExceeded) as err:
        DEFAULT.check("stage", {"fine": 0.0, "broken": value, "later": value})
    assert (err.value.key, err.value.budget) == ("broken", DEFAULT.stage_budget)
    assert err.value.value is value


def test_check_passes_residuals_within_budget():
    tol = Tolerances(num=1e-6)
    tol.check("stage", {"a": 0.0, "b": tol.stage_budget})
    tol.check("stage", {"a": 1e-3}, budget=1e-3)
    tol.check("stage", {})
