"""Problem file parsing: validation, whitelists, digests."""

import copy
import json

import numpy as np
import pytest

from solvhull import SpecFileError, canonical_json, parse_problem
from solvhull.builtin_models import sect4_spec, sol_spec


def sol_raw():
    return copy.deepcopy(sol_spec())


def minimal_raw():
    return {
        "name": "heis",
        "basis_names": ["x", "y", "z"],
        "structure": [[0, 1, 2, 1.0, 0.0]],
    }


# ------------------------------------------------------------- happy path


def test_parse_minimal_problem():
    p = parse_problem(minimal_raw())
    assert p.name == "heis"
    assert p.algebra.names == ("x", "y", "z")
    assert p.model is None
    assert p.lattice is None
    assert p.algebra.structure[1, 0, 2] == -1.0  # mirrored automatically


def test_parse_from_json_text():
    p = parse_problem(json.dumps(minimal_raw()))
    assert p.algebra.dim == 3


def test_parse_from_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(minimal_raw()))
    p = parse_problem(path)
    assert p.name == "heis"
    assert parse_problem(str(path)).spec_digest == p.spec_digest


def test_parse_builtin_sol():
    p = parse_problem(sol_raw())
    assert p.name == "sol"
    assert p.model is not None
    assert p.lattice.names == ("a", "b1", "b2")
    assert not p.algebra.is_complex


def test_parse_builtin_sect4():
    p = parse_problem(sect4_spec())
    assert p.algebra.is_complex
    assert p.lattice.names == ("c", "g1", "g2", "g3", "g4")


def test_explicit_antisymmetric_pair_is_accepted():
    raw = minimal_raw()
    raw["structure"] = [[0, 1, 2, 1.0, 0.0], [1, 0, 2, -1.0, 0.0]]
    p = parse_problem(raw)
    assert p.algebra.structure[0, 1, 2] == 1.0


def test_digest_is_stable_and_content_sensitive():
    a = parse_problem(sol_raw())
    b = parse_problem(sol_raw())
    assert a.spec_digest == b.spec_digest
    raw = sol_raw()
    raw["name"] = "other"
    assert parse_problem(raw).spec_digest != a.spec_digest


def test_serialize_problem_round_trips():
    raw = sol_raw()
    text = canonical_json(raw)
    again = parse_problem(json.loads(text))
    assert again.spec_digest == parse_problem(raw).spec_digest


def test_tolerance_override():
    raw = minimal_raw()
    raw["tolerances"] = {"alg": 1e-7, "num": 1e-6}
    p = parse_problem(raw)
    assert p.tolerances.alg == 1e-7
    assert p.tolerances.num == 1e-6


# ------------------------------------------------------------- whitelists


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.update({"extra": 1}),
        lambda raw: raw["model"].update({"bogus": 1}),
        lambda raw: raw["model"]["lattice"].update({"bogus": 1}),
        lambda raw: raw["model"]["lattice"]["generators"]["a"].update({"x": 1}),
        lambda raw: raw.update({"tolerances": {"algx": 1e-9}}),
    ],
)
def test_unknown_keys_are_rejected(mutate):
    raw = sol_raw()
    mutate(raw)
    with pytest.raises(SpecFileError):
        parse_problem(raw)


# ------------------------------------------------------------- bad input


def test_rejects_non_dict_source():
    with pytest.raises(SpecFileError):
        parse_problem(12345)


def test_rejects_invalid_json_text():
    with pytest.raises(SpecFileError):
        parse_problem("{not json")


def test_rejects_missing_basis_names():
    raw = minimal_raw()
    del raw["basis_names"]
    with pytest.raises(SpecFileError):
        parse_problem(raw)


def test_rejects_non_string_basis_names():
    raw = minimal_raw()
    raw["basis_names"] = ["x", 2, "z"]
    with pytest.raises(SpecFileError):
        parse_problem(raw)


def test_rejects_missing_structure():
    raw = minimal_raw()
    del raw["structure"]
    with pytest.raises(SpecFileError):
        parse_problem(raw)


@pytest.mark.parametrize(
    "entry",
    [
        [0, 1, 1.0, 0.0],  # wrong arity
        [0.5, 1, 2, 1.0, 0.0],  # float index
        [True, 1, 2, 1.0, 0.0],  # bool index
        [0, 1, 7, 1.0, 0.0],  # out of range
        [1, 1, 2, 1.0, 0.0],  # self bracket
        [0, 1, 2, "x", 0.0],  # non numeric value
    ],
)
def test_rejects_bad_structure_entries(entry):
    raw = minimal_raw()
    raw["structure"] = [entry]
    with pytest.raises(SpecFileError):
        parse_problem(raw)


def test_rejects_duplicate_structure_entries():
    raw = minimal_raw()
    raw["structure"] = [[0, 1, 2, 1.0, 0.0], [0, 1, 2, 1.0, 0.0]]
    with pytest.raises(SpecFileError):
        parse_problem(raw)


def test_rejects_conflicting_mirror_entries():
    raw = minimal_raw()
    raw["structure"] = [[0, 1, 2, 1.0, 0.0], [1, 0, 2, 1.0, 0.0]]
    with pytest.raises(SpecFileError):
        parse_problem(raw)


# ------------------------------------------------------------- model rules


def test_rejects_model_structure_mismatch():
    raw = sol_raw()
    raw["structure"][0] = [0, 1, 1, 2.0, 0.0]  # table no longer matches phi
    with pytest.raises(SpecFileError):
        parse_problem(raw)


@pytest.mark.parametrize("bad_dim", [0, -1, True, 3])
def test_rejects_bad_translation_dim(bad_dim):
    raw = sol_raw()
    raw["model"]["translation_dim"] = bad_dim
    with pytest.raises(SpecFileError):
        parse_problem(raw)


def test_rejects_wrong_fiber_matrix_count():
    raw = sol_raw()
    raw["model"]["fiber_mats"] = []
    with pytest.raises(SpecFileError):
        parse_problem(raw)


def test_rejects_ragged_fiber_matrix():
    raw = sol_raw()
    raw["model"]["fiber_mats"][0] = [[[1.0, 0.0]]]
    with pytest.raises(SpecFileError):
        parse_problem(raw)


def test_rejects_bad_complex_pair():
    raw = sol_raw()
    raw["model"]["fiber_mats"][0][0][0] = [1.0]
    with pytest.raises(SpecFileError):
        parse_problem(raw)


# ------------------------------------------------------------- lattice rules


def test_rejects_empty_generators():
    raw = sol_raw()
    raw["model"]["lattice"]["generators"] = {}
    with pytest.raises(SpecFileError):
        parse_problem(raw)


def test_rejects_wrong_generator_arity():
    raw = sol_raw()
    raw["model"]["lattice"]["generators"]["a"]["translation"] = [1.0, 2.0]
    with pytest.raises(SpecFileError):
        parse_problem(raw)


def test_rejects_relation_with_unknown_generator():
    raw = sol_raw()
    raw["model"]["lattice"]["relations"].append(["a zz", ""])
    with pytest.raises(SpecFileError):
        parse_problem(raw)


def test_rejects_malformed_relation():
    raw = sol_raw()
    raw["model"]["lattice"]["relations"].append(["just one side"])
    with pytest.raises(SpecFileError):
        parse_problem(raw)


def test_builtin_problem_unknown_name():
    from solvhull import builtin_problem

    with pytest.raises(KeyError):
        builtin_problem("nosuch")


def test_builtin_tables_match_models(sol_problem, sect4_problem):
    for p in (sol_problem, sect4_problem):
        induced = p.model.induced_structure().astype(complex)
        assert np.max(np.abs(induced - p.algebra.structure.astype(complex))) < 1e-12
