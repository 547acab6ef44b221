"""Canonical JSON emitter: determinism, sorting, number handling."""

import json

import numpy as np
import pytest

from solvhull import canonical_json, digest


def test_keys_are_sorted():
    text = canonical_json({"b": 1, "a": 2, "c": 3})
    assert text == '{"a":2,"b":1,"c":3}'


def test_nested_structures_round_trip_through_json():
    obj = {"x": [1, 2.5, "s", None, True], "y": {"z": [0.0]}}
    text = canonical_json(obj)
    assert json.loads(text) == {"x": [1, 2.5, "s", None, True], "y": {"z": [0.0]}}


def test_bool_is_not_emitted_as_int():
    # bool is a subclass of int, the emitter must check it first
    assert canonical_json(True) == "true"
    assert canonical_json(False) == "false"
    assert canonical_json(1) == "1"


def test_complex_becomes_two_element_array():
    assert canonical_json(1 + 2j) == "[1,2]"
    assert json.loads(canonical_json(np.complex128(0.5 - 1.5j))) == [0.5, -1.5]


def test_numpy_scalars_and_arrays():
    assert canonical_json(np.int64(7)) == "7"
    assert canonical_json(np.float64(0.5)) == "0.5"
    assert canonical_json(np.array([[1.0, 2.0]])) == "[[1,2]]"


def test_zero_is_normalized():
    # negative zero collapses to the same byte string as zero
    assert canonical_json(0.0) == "0"
    assert canonical_json(-0.0) == "0"


def test_floats_round_trip_exactly():
    values = [0.1, 1.0 / 3.0, 1e-300, 12345.6789, np.pi]
    for v in values:
        assert float(json.loads(canonical_json(v))) == v


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_floats_are_rejected(bad):
    with pytest.raises(ValueError):
        canonical_json(bad)


def test_non_finite_complex_is_rejected():
    with pytest.raises(ValueError):
        canonical_json(complex(float("nan"), 0.0))


def test_non_string_keys_are_rejected():
    with pytest.raises(TypeError):
        canonical_json({1: "x"})


def test_unserializable_type_is_rejected():
    with pytest.raises(TypeError):
        canonical_json(object())


def test_output_is_deterministic():
    obj = {"m": np.arange(6, dtype=float).reshape(2, 3), "k": [1 + 1j, 2]}
    assert canonical_json(obj) == canonical_json(obj)


def test_digest_is_stable_sha256():
    text = canonical_json({"a": 1})
    assert digest(text) == digest(text)
    assert len(digest(text)) == 64
    assert digest(text) != digest(text + " ")


def test_numpy_bool_is_emitted_as_bool():
    assert canonical_json({"ok": np.False_}) == '{"ok":false}'
    assert canonical_json([np.True_, np.bool_(False)]) == "[true,false]"
