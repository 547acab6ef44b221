"""Piecewise one-parameter paths described by direction and duration.

A segment is the exponential of a fixed algebra element run for a given
time, held as a (direction, duration) pair: a read-only finite complex
array and a finite nonnegative float. A path word is a finite
concatenation of segments. All integral and transport routines consume
these words: only the direction vectors and durations matter to them,
base points never enter.

PathWord(segments) copies and checks every segment it is given. The
path algebra (concat, inverse, subdivide) and the group model's loops
build their paths from segments that are already checked, or from
directions they have just computed, so they freeze those in place
instead of copying and checking them again. A path stacks
itself for the chain kernels once, on first use (PathWord.stacked).
"""

import math

import numpy as np

from .errors import ValidationError
from .linalg import frozen_array, real_if_exact


def _segment(direction, duration):
    """Checked pair: a read-only complex copy of the direction, a float duration.

    Both must be finite, and the duration nonnegative: a NaN or an
    infinity would make every transport along the path non-finite.
    """
    duration = float(duration)
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"segment duration must be finite and nonnegative, got {duration}")
    return _fresh_direction(frozen_array(direction, complex).ravel()), duration


def _read_only(x):
    """x, an array nothing else holds, made read-only in place."""
    x.flags.writeable = False
    return x


def _fresh_direction(x):
    """x, a complex vector nothing else holds, checked finite and made read-only in place."""
    if not np.isfinite(x).all():
        raise ValueError("segment direction entries must be finite")
    return _read_only(x)


def check_dim(path, dim):
    """Raise a ValidationError unless the path is empty or has the given dimension."""
    if len(path) and path.dim != dim:
        raise ValidationError(f"path has dimension {path.dim}, expected {dim}")


def stack_paths(paths, dim):
    """The paths as one zero padded stack, the input chain_sums reads.

    Returns vectors (paths, longest, dim), each path's directions in
    order, float64 when every direction is exactly real, and durations
    (paths, longest, 1, 1); padding segments have duration zero. A
    caller that sums many batches of chains over the same paths stacks
    them once, and a single PathWord of that dim hands back the
    read-only stack it keeps; a path of another dim fails check_dim.
    """
    if len(paths) == 1 and isinstance(paths[0], PathWord) and paths[0].dim == dim:
        return paths[0].stacked
    return _stack(paths, dim)


def _stack(paths, dim):
    longest = max((len(path) for path in paths), default=0)
    vectors = np.zeros((len(paths), longest, dim), dtype=complex)
    durations = np.zeros((len(paths), longest, 1, 1))
    for v, path in enumerate(paths):
        check_dim(path, dim)
        if len(path):
            vectors[v, : len(path)] = [x for x, _ in path]
            durations[v, : len(path), 0, 0] = [t for _, t in path]
    return real_if_exact(vectors), durations


class PathWord:
    """Immutable sequence of (direction, duration) pairs with path algebra helpers."""

    __slots__ = ("segments", "_stacked")

    def __init__(self, segments):
        segs = tuple(_segment(x, t) for x, t in segments)
        if len({x.size for x, _ in segs}) > 1:
            raise ValueError("segment directions must all have one length")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_stacked", None)

    @classmethod
    def _of_checked(cls, segments):
        """A path of segments that are checked pairs of one length, as _segment makes them; nothing is copied."""
        path = object.__new__(cls)
        object.__setattr__(path, "segments", tuple(segments))
        object.__setattr__(path, "_stacked", None)
        return path

    def __setattr__(self, name, value):
        raise AttributeError("PathWord is immutable")

    def __iter__(self):
        return iter(self.segments)

    def __len__(self):
        return len(self.segments)

    def __eq__(self, other):
        return isinstance(other, PathWord) and len(self) == len(other) and all(
            s == t and np.array_equal(x, y) for (x, s), (y, t) in zip(self, other)
        )

    def __repr__(self):
        return f"PathWord({len(self.segments)} segments, duration {self.total_duration:.6g})"

    @property
    def total_duration(self):
        return sum(t for _, t in self.segments)

    @property
    def dim(self):
        return self.segments[0][0].size if self.segments else 0

    @property
    def stacked(self):
        """stack_paths([self], self.dim), built on first use, read-only.

        An empty path's dim is 0, so stack_paths stacks it anew for any
        other dim.
        """
        if self._stacked is None:
            stacked = tuple(_read_only(a) for a in _stack([self], self.dim))
            object.__setattr__(self, "_stacked", stacked)
        return self._stacked

    def concat(self, other):
        if not isinstance(other, PathWord):
            other = PathWord(other)
        if self.segments and other.segments and self.dim != other.dim:
            raise ValueError("segment directions must all have one length")
        return PathWord._of_checked(self.segments + other.segments)

    def inverse(self):
        """Time reversal: segments reversed in order and direction."""
        return PathWord._of_checked((_read_only(-x), t) for x, t in reversed(self.segments))

    def subdivide(self, parts):
        """Split every segment into the given number of equal pieces."""
        parts = int(parts)
        if parts < 1:
            raise ValueError("parts must be at least 1")
        out = []
        for x, t in self.segments:
            out.extend([(x, t / parts)] * parts)
        return PathWord._of_checked(out)

    def displacement(self):
        """Signed time integral of the direction, the abelianized endpoint."""
        if not self.segments:
            return np.zeros(0, dtype=complex)
        acc = np.zeros(self.dim, dtype=complex)
        for x, t in self.segments:
            acc = acc + t * x
        return acc
