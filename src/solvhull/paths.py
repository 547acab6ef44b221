"""Piecewise one-parameter paths described by direction and duration.

A segment is the exponential of a fixed algebra element run for a given
time, held as a (direction, duration) pair: a read-only finite complex
array and a finite nonnegative float. A path word is a finite
concatenation of segments. All integral and transport routines consume
these words: only the direction vectors and durations matter to them,
base points never enter.
"""

import math

import numpy as np

from .linalg import frozen_array


def _segment(direction, duration):
    """Checked pair: a read-only complex copy of the direction, a float duration.

    Both must be finite, and the duration nonnegative: a NaN or an
    infinity would make every transport along the path non-finite.
    """
    duration = float(duration)
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"segment duration must be finite and nonnegative, got {duration}")
    x = frozen_array(direction, complex).ravel()
    if not np.isfinite(x).all():
        raise ValueError("segment direction entries must be finite")
    return x, duration


class PathWord:
    """Immutable sequence of (direction, duration) pairs with path algebra helpers."""

    __slots__ = ("segments",)

    def __init__(self, segments):
        segs = tuple(_segment(x, t) for x, t in segments)
        if len({x.size for x, _ in segs}) > 1:
            raise ValueError("segment directions must all have one length")
        object.__setattr__(self, "segments", segs)

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

    def concat(self, other):
        return PathWord(self.segments + tuple(other))

    def inverse(self):
        """Time reversal: segments reversed in order and direction."""
        return PathWord((-x, t) for x, t in reversed(self.segments))

    def subdivide(self, parts):
        """Split every segment into the given number of equal pieces."""
        parts = int(parts)
        if parts < 1:
            raise ValueError("parts must be at least 1")
        out = []
        for x, t in self.segments:
            out.extend([(x, t / parts)] * parts)
        return PathWord(out)

    def displacement(self):
        """Signed time integral of the direction, the abelianized endpoint."""
        if not self.segments:
            return np.zeros(0, dtype=complex)
        acc = np.zeros(self.dim, dtype=complex)
        for x, t in self.segments:
            acc = acc + t * x
        return acc
