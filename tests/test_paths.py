"""Path words: construction, algebra, reduction, displacement."""

import numpy as np
import pytest

from solvhull import PathWord, Segment


def reduced(path):
    """Drop null segments and merge adjacent parallel ones.

    Two adjacent segments along the same one-parameter subgroup
    compose to a single arc, including exact backtracking which
    cancels entirely. Parallelism is detected up to rounding.
    """
    out = []
    for seg in path.segments:
        vec = seg.vector
        norm = float(np.linalg.norm(vec))
        if seg.duration == 0.0 or norm == 0.0:
            continue
        if out:
            prev = out[-1]
            pvec = prev.vector
            pnorm = float(np.linalg.norm(pvec))
            # seg.direction = lam * prev.direction for a real lam
            lam = float(np.real(np.vdot(pvec, vec))) / (pnorm * pnorm)
            if np.linalg.norm(vec - lam * pvec) <= 1e-12 * max(norm, pnorm):
                total = prev.duration + lam * seg.duration
                out.pop()
                if abs(total) > 1e-15 * max(1.0, prev.duration):
                    if total > 0:
                        out.append(Segment(prev.direction, total))
                    else:
                        out.append(Segment(prev.reversed().direction, -total))
                continue
        out.append(seg)
    return PathWord(out)


def test_segment_coerces_direction_to_complex_tuple():
    seg = Segment((1, 0, -2), 1.5)
    assert seg.direction == (1 + 0j, 0j, -2 + 0j)
    assert seg.duration == 1.5
    assert seg.vector.dtype == complex


def test_segment_rejects_negative_duration():
    with pytest.raises(ValueError):
        Segment((1.0, 0.0), -0.25)


def test_segment_reversed():
    seg = Segment((2.0, -1.0), 0.5)
    rev = seg.reversed()
    assert rev.direction == (-2 + 0j, 1 + 0j)
    assert rev.duration == 0.5


def test_pathword_accepts_pairs_and_segments():
    a = PathWord([((1.0, 0.0), 1.0), Segment((0.0, 1.0), 2.0)])
    assert len(a) == 2
    assert a.dim == 2
    assert a.total_duration == 3.0


def test_pathword_is_immutable_and_hashable():
    a = PathWord([((1.0,), 1.0)])
    b = PathWord([((1.0,), 1.0)])
    assert a == b
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.segments = ()


def test_concat_and_inverse():
    a = PathWord([((1.0, 0.0), 1.0), ((0.0, 1.0), 2.0)])
    b = PathWord([((1.0, 1.0), 0.5)])
    ab = a.concat(b)
    assert len(ab) == 3
    assert ab.segments[2].direction == (1 + 0j, 1 + 0j)
    inv = a.inverse()
    # time reversal runs the segments backwards with flipped directions
    assert inv.segments[0].direction == (0j, -1 + 0j)
    assert inv.segments[0].duration == 2.0
    assert inv.segments[1].direction == (-1 + 0j, 0j)


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
    assert r.segments[0].direction == (1 + 0j, 0j)
    assert r.segments[1].direction == (0j, 1 + 0j)


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
    assert r.segments[0].direction == (-1 + 0j, 0j)
    assert np.isclose(r.segments[0].duration, 2.0)


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
