"""Path words: construction, algebra, reduction, displacement."""

import numpy as np
import pytest

from solvhull import PathWord, entry_chain_value
from solvhull.errors import ValidationError
from solvhull.monodromy import _entry_sums
from solvhull.paths import _stack, stack_paths


def reduced(path):
    """Drop null segments and merge adjacent parallel ones.

    Two adjacent segments along the same one-parameter subgroup
    compose to a single arc, including exact backtracking which
    cancels entirely. Parallelism is detected up to rounding.
    """
    out = []
    for vec, duration in path:
        norm = float(np.linalg.norm(vec))
        if duration == 0.0 or norm == 0.0:
            continue
        if out:
            pvec, pduration = out[-1]
            pnorm = float(np.linalg.norm(pvec))
            # vec = lam * pvec for a real lam
            lam = float(np.real(np.vdot(pvec, vec))) / (pnorm * pnorm)
            if np.linalg.norm(vec - lam * pvec) <= 1e-12 * max(norm, pnorm):
                total = pduration + lam * duration
                out.pop()
                if abs(total) > 1e-15 * max(1.0, pduration):
                    if total > 0:
                        out.append((pvec, total))
                    else:
                        out.append((-pvec, -total))
                continue
        out.append((vec, duration))
    return PathWord(out)


def test_segment_coerces_direction_to_read_only_complex_array():
    ((x, t),) = PathWord([((1, 0, -2), 1.5)])
    assert x.tolist() == [1 + 0j, 0j, -2 + 0j]
    assert t == 1.5
    assert x.dtype == complex
    with pytest.raises(ValueError):
        x[0] = 5.0


def test_segment_direction_is_a_copy_of_the_callers_array():
    given = np.array([1.0, 2.0])
    ((x, _),) = PathWord([(given, 1.0)])
    given[0] = 7.0
    assert given.flags.writeable
    assert x.tolist() == [1 + 0j, 2 + 0j]
    assert not np.shares_memory(x, given)


def test_segment_rejects_negative_duration():
    with pytest.raises(ValueError):
        PathWord([((1.0, 0.0), -0.25)])


@pytest.mark.parametrize(
    "direction, duration",
    [
        ((1.0, 0.0, 0.0), float("nan")),
        ((1.0, 0.0, 0.0), float("inf")),
        ((float("inf"), 0.0, 0.0), 1.0),
        ((0.0, float("nan"), 0.0), 1.0),
        ((0.0, 0.0, complex(0.0, float("-inf"))), 1.0),
    ],
)
def test_segment_rejects_non_finite_values(direction, duration):
    with pytest.raises(ValueError):
        PathWord([(direction, duration)])


def test_pathword_rejects_directions_of_different_lengths():
    with pytest.raises(ValueError):
        PathWord([((1, 0, 0), 0.5), ((1, 0), 0.5)])


def test_segment_reversed():
    ((rev, t),) = PathWord([((2.0, -1.0), 0.5)]).inverse()
    assert rev.tolist() == [-2 + 0j, 1 + 0j]
    assert t == 0.5


def test_pathword_accepts_pairs_and_segments():
    a = PathWord([((1.0, 0.0), 1.0), *PathWord([((0.0, 1.0), 2.0)])])
    assert len(a) == 2
    assert a.dim == 2
    assert a.total_duration == 3.0


def test_pathword_is_immutable_and_compares_by_value():
    a = PathWord([((1.0,), 1.0)])
    b = PathWord([((1.0,), 1.0)])
    assert a == b
    assert a != PathWord([((1.0,), 2.0)])
    assert a != PathWord([((2.0,), 1.0)])
    with pytest.raises(AttributeError):
        a.segments = ()


def test_concat_and_inverse():
    a = PathWord([((1.0, 0.0), 1.0), ((0.0, 1.0), 2.0)])
    b = PathWord([((1.0, 1.0), 0.5)])
    ab = a.concat(b)
    assert len(ab) == 3
    assert ab.segments[2][0].tolist() == [1 + 0j, 1 + 0j]
    inv = a.inverse()
    # time reversal runs the segments backwards with flipped directions
    assert inv.segments[0][0].tolist() == [0j, -1 + 0j]
    assert inv.segments[0][1] == 2.0
    assert inv.segments[1][0].tolist() == [-1 + 0j, 0j]


@pytest.mark.parametrize("parts", [1, 2, 5])
def test_subdivide_preserves_duration_and_displacement(parts):
    a = PathWord([((1.0, 2.0), 1.0), ((0.0, -1.0), 3.0)])
    fine = a.subdivide(parts)
    assert len(fine) == parts * len(a)
    assert np.isclose(fine.total_duration, a.total_duration)
    assert np.allclose(fine.displacement(), a.displacement())


def test_subdivide_rejects_zero_parts():
    a = PathWord([((1.0,), 1.0)])
    with pytest.raises(ValueError):
        a.subdivide(0)


def test_reduced_drops_null_segments():
    a = PathWord(
        [
            ((1.0, 0.0), 1.0),
            ((0.0, 0.0), 2.0),
            ((5.0, 5.0), 0.0),
            ((0.0, 1.0), 1.0),
        ]
    )
    r = reduced(a)
    assert len(r) == 2
    assert r.segments[0][0].tolist() == [1 + 0j, 0j]
    assert r.segments[1][0].tolist() == [0j, 1 + 0j]


def test_reduced_merges_adjacent_parallel_segments():
    a = PathWord([((1.0, 0.0), 1.0), ((1.0, 0.0), 2.0)])
    r = reduced(a)
    assert len(r) == 1
    assert np.isclose(r.total_duration, 3.0)


def test_reduced_merges_scaled_parallel_segments():
    # second segment runs twice as fast for half the time
    a = PathWord([((1.0, 0.0), 1.0), ((2.0, 0.0), 0.5)])
    r = reduced(a)
    assert len(r) == 1
    assert np.allclose(r.displacement(), a.displacement())


def test_reduced_cancels_exact_backtracking():
    a = PathWord([((1.0, 2.0), 1.5), ((-1.0, -2.0), 1.5)])
    assert len(reduced(a)) == 0


def test_reduced_keeps_net_motion_after_overshoot():
    # forward for 1, backward for 3: net is backward for 2
    a = PathWord([((1.0, 0.0), 1.0), ((-1.0, 0.0), 3.0)])
    r = reduced(a)
    assert len(r) == 1
    assert r.segments[0][0].tolist() == [-1 + 0j, 0j]
    assert np.isclose(r.segments[0][1], 2.0)


def test_reduced_leaves_nonparallel_segments_alone():
    a = PathWord([((1.0, 0.0), 1.0), ((1.0, 0.1), 1.0)])
    assert len(reduced(a)) == 2


def test_displacement_is_signed_time_integral():
    a = PathWord([((1.0, 0.0), 2.0), ((0.0, 1.0), 0.5), ((-1.0, 0.0), 1.0)])
    assert np.allclose(a.displacement(), np.array([1.0, 0.5]))


def test_displacement_of_commutator_word_vanishes():
    """Concatenating a loop with its inverse integrates to zero."""
    x = PathWord([((1.0, 0.0, 0.0), 1.0)])
    y = PathWord([((0.0, 1.0, 0.0), 1.0)])
    word = x.concat(y).concat(x.inverse()).concat(y.inverse())
    assert np.linalg.norm(word.displacement()) == 0.0


def test_empty_pathword():
    a = PathWord([])
    assert len(a) == 0
    assert a.dim == 0
    assert a.total_duration == 0
    assert a.displacement().shape == (0,)


@pytest.mark.parametrize("imag", [0.0, 1.0])
def test_a_path_keeps_its_stack_read_only(imag):
    rng = np.random.default_rng(3)
    path = PathWord([(rng.standard_normal(4) + imag * 1j * rng.standard_normal(4), t) for t in (0.5, 1.0, 0.25)])
    stacked = stack_paths([path], 4)
    fresh = _stack([path], 4)
    assert stack_paths([path], 4) is stacked
    assert stacked[0].dtype == (complex if imag else float)
    for got, want in zip(stacked, fresh):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    # Several paths, or another dim, are stacked anew; another dim does not fit.
    assert stack_paths([path, path], 4)[0].flags.writeable
    with pytest.raises(ValidationError, match="dimension 4, expected 5"):
        stack_paths([path], 5)


def test_an_empty_path_stacks_on_the_dim_it_is_given():
    empty = PathWord([])
    for dim in (0, 2, 5):
        vectors, durations = stack_paths([empty], dim)
        assert vectors.shape == (1, 0, dim) and durations.shape == (1, 0, 1, 1)
    assert stack_paths([empty], 0) is empty.stacked


def test_entry_chain_values_stack_their_path_once(filiform_forms, monkeypatch):
    form = filiform_forms[6]
    rng = np.random.default_rng(5)
    path = PathWord([(rng.standard_normal(form.dim), 0.3) for _ in range(4)])
    column = [(p, form.r - 1) for p in range(0, form.r, 7)]
    want = [complex(_entry_sums(form, _stack([path], form.dim), p, q)[0]) for p, q in column]
    stacks = []

    def counted(paths, dim):
        stacks.append(len(paths))
        return _stack(paths, dim)

    monkeypatch.setattr("solvhull.paths._stack", counted)
    for _ in range(2):
        assert [entry_chain_value(form, path, p, q) for p, q in column] == want
    assert stacks == [1]
