"""Piecewise one-parameter paths described by direction and duration.

A segment is the exponential of a fixed algebra element run for a given
time; a path word is a finite concatenation of segments. All integral
and transport routines consume these words: only the direction vectors
and durations matter to them, base points never enter.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Segment:
    """One exponential arc: direction in algebra coordinates, time length."""

    direction: tuple
    duration: float

    def __post_init__(self):
        vec = tuple(complex(z) for z in self.direction)
        object.__setattr__(self, "direction", vec)
        object.__setattr__(self, "duration", float(self.duration))
        if self.duration < 0:
            raise ValueError("segment duration must be nonnegative")

    @property
    def vector(self):
        return np.array(self.direction, dtype=complex)

    def reversed(self):
        return Segment(tuple(-z for z in self.direction), self.duration)


class PathWord:
    """Immutable sequence of segments with path algebra helpers."""

    __slots__ = ("segments",)

    def __init__(self, segments):
        segs = []
        for s in segments:
            if isinstance(s, Segment):
                segs.append(s)
            else:
                direction, duration = s
                segs.append(Segment(tuple(np.asarray(direction).ravel()), duration))
        object.__setattr__(self, "segments", tuple(segs))

    def __setattr__(self, name, value):
        raise AttributeError("PathWord is immutable")

    def __iter__(self):
        return iter(self.segments)

    def __len__(self):
        return len(self.segments)

    def __eq__(self, other):
        return isinstance(other, PathWord) and self.segments == other.segments

    def __hash__(self):
        return hash(self.segments)

    def __repr__(self):
        return f"PathWord({len(self.segments)} segments, duration {self.total_duration:.6g})"

    @property
    def total_duration(self):
        return sum(s.duration for s in self.segments)

    @property
    def dim(self):
        return len(self.segments[0].direction) if self.segments else 0

    def concat(self, other):
        return PathWord(self.segments + tuple(other))

    def inverse(self):
        """Time reversal: segments reversed in order and direction."""
        return PathWord(tuple(s.reversed() for s in reversed(self.segments)))

    def subdivide(self, parts):
        """Split every segment into the given number of equal pieces."""
        parts = int(parts)
        if parts < 1:
            raise ValueError("parts must be at least 1")
        out = []
        for s in self.segments:
            piece = Segment(s.direction, s.duration / parts)
            out.extend([piece] * parts)
        return PathWord(out)

    def displacement(self):
        """Signed time integral of the direction, the abelianized endpoint."""
        if not self.segments:
            return np.zeros(0, dtype=complex)
        acc = np.zeros(self.dim, dtype=complex)
        for s in self.segments:
            acc = acc + s.duration * s.vector
        return acc
