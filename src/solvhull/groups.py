"""Semidirect product groups, their exponentials, and lattice words.

The model is a translation group acting on a complex fiber through
commuting matrices: (t1, v1)(t2, v2) = (t1 + t2, v1 + phi(t1) v2) with
phi(t) the exponential of the t-weighted sum of the action matrices.
Algebra coordinates list the translation directions first and the fiber
directions after them, matching the structure tables of the builtins.

Lattice words revisit a few translation vectors and arcs many times
(verify at seed 0 makes 129 phi calls on 16 distinct vectors on sol, and
162 on 16 on sect4), so each model memoizes phi(t) on the bytes of t and
exp(x, duration) on the bytes of x and of the duration, each in its own
least recently used memo of _MEMO_SIZE = 256 entries. The memo is exact:
a hit returns the result a miss would compute, since the key holds every
bit the computation reads and the result cannot be changed in place:
phi's array and the t and v arrays of exp's GroupElement are read-only,
and GroupElement is frozen. exp still validates its direction on every
call, and every endpoint check still runs.

A word is made of a few letters, each a generator to a power, so each
lattice memoizes the segments of every letter's loop per name and sign,
and every generator power per name and exponent, in memos of the same
size: path_of and element_of build a letter once per lattice, not once
per word. The elements and paths the library computes itself freeze
their fresh arrays in place (GroupElement._of_fresh,
PathWord._of_checked) instead of copying and checking them again; the
public constructors still copy and check what they are given, and the
identity is one shared read-only element per model.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EndpointMismatch, UnknownName, ValidationError
from .linalg import SparseStack, bracket_residual, frozen_array
from .matfuncs import expm, phi1_apply
from .paths import PathWord, _fresh_direction, _read_only
from .tolerances import DEFAULT

_MEMO_SIZE = 256


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Point of the semidirect product: real translation t, complex fiber v, read-only and finite."""

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t, v = frozen_array(self.t, float), frozen_array(self.v, complex)
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ValidationError("group element entries must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)

    @classmethod
    def _of_fresh(cls, t, v):
        """An element of arrays the library has just computed and nothing else holds.

        They are made read-only in place, not copied; one that is not
        contiguous or not of the element's dtype is copied once.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "t", _read_only(np.ascontiguousarray(t, dtype=float)))
        object.__setattr__(g, "v", _read_only(np.ascontiguousarray(v, dtype=complex)))
        return g


class SemidirectModel:
    """Concrete group model behind an algebra's structure table."""

    def __init__(self, fiber_mats, tolerances=DEFAULT):
        mats = [np.asarray(m, dtype=complex) for m in fiber_mats]
        if not mats:
            raise ValidationError("at least one translation direction is required")
        m_dim = mats[0].shape[0]
        for m in mats:
            if m.shape != (m_dim, m_dim):
                raise ValidationError("fiber matrices must share one square shape")
        k = len(mats)
        worst = bracket_residual(
            SparseStack.from_dense(np.stack(mats)), np.zeros((k, k, k))
        )
        if worst > tolerances.alg:
            raise ValidationError(
                f"fiber matrices must commute, commutator size {worst:.3e}"
            )
        self.mats = mats
        self.k = k
        self.m = m_dim
        self.tolerances = tolerances
        # The memos close over the matrices, not the model, so a model
        # holds no reference cycle.
        self._phi_memo = functools.lru_cache(maxsize=_MEMO_SIZE)(
            functools.partial(_phi_of_bytes, mats)
        )
        self._exp_memo = functools.lru_cache(maxsize=_MEMO_SIZE)(
            functools.partial(_exp_of_bytes, mats)
        )
        self._identity = GroupElement._of_fresh(np.zeros(k), np.zeros(m_dim, dtype=complex))

    @property
    def dim(self):
        return self.k + self.m

    def identity(self):
        """The identity, one shared read-only element per model."""
        return self._identity

    def phi(self, t):
        """Holonomy of the translation part on the fiber, read-only."""
        return self._phi_memo(np.asarray(t, dtype=float).tobytes())

    def multiply(self, g, h):
        return GroupElement._of_fresh(g.t + h.t, g.v + self.phi(g.t) @ h.v)

    def inverse(self, g):
        return GroupElement._of_fresh(-g.t, -(self.phi(-g.t) @ g.v))

    def power(self, g, n):
        n = int(n)
        base = g if n >= 0 else self.inverse(g)
        out = self.identity()
        for _ in range(abs(n)):
            out = self.multiply(out, base)
        return out

    def distance(self, g, h):
        return float(np.linalg.norm(g.t - h.t) + np.linalg.norm(g.v - h.v))

    def split_direction(self, x):
        """Translation and fiber components of an algebra coordinate vector."""
        x = np.asarray(x, dtype=complex).ravel()
        if x.size != self.dim:
            raise ValidationError(
                f"direction has {x.size} coordinates, model expects {self.dim}"
            )
        t = x[: self.k]
        imag = float(np.max(np.abs(t.imag))) if self.k else 0.0
        if imag > self.tolerances.exact:
            raise ValidationError("translation components must be real")
        return t.real, x[self.k :]

    def exp(self, x, duration=1.0):
        """Endpoint of the exponential arc of x run for the given time."""
        self.split_direction(x)
        key = np.asarray(x, dtype=complex).tobytes()
        return self._exp_memo(key, np.float64(duration).tobytes())

    def endpoint(self, path):
        """Fold a path word into its group endpoint from the identity."""
        out = self.identity()
        for x, t in path:
            out = self.multiply(out, self.exp(x, t))
        return out

    def direction_of(self, t_part, fiber_part):
        """Algebra coordinates from translation and fiber components."""
        vec = np.zeros(self.dim, dtype=complex)
        vec[: self.k] = np.asarray(t_part, dtype=float)
        vec[self.k :] = np.asarray(fiber_part, dtype=complex)
        return vec

    def loop_of(self, g, check=True):
        """Canonical two segment word from the identity to g.

        First the pure translation arc, then the fiber arc conjugated
        back to time zero. The endpoint is verified against g.
        """
        segments = []
        if g.t.any():
            segments.append((_fresh_direction(self.direction_of(g.t, np.zeros(self.m))), 1.0))
        w = self.phi(-g.t) @ g.v
        if w.any():
            segments.append((_fresh_direction(self.direction_of(np.zeros(self.k), w)), 1.0))
        path = PathWord._of_checked(segments)
        if check:
            reached = self.endpoint(path)
            dev = self.distance(reached, g)
            if not dev <= self.tolerances.num * max(1.0, self.distance(g, self.identity())):
                raise EndpointMismatch(dev, self.tolerances.num)
        return path

    def induced_structure(self):
        """Structure table of the algebra this model exponentiates.

        Translations commute with each other, the fiber is abelian, and
        a translation direction brackets a fiber direction through its
        action matrix.
        """
        n = self.dim
        real = all(float(np.max(np.abs(m.imag))) == 0.0 for m in self.mats)
        c = np.zeros((n, n, n), dtype=float if real else complex)
        for a in range(self.k):
            mat = self.mats[a].real if real else self.mats[a]
            for j in range(self.m):
                for i in range(self.m):
                    c[a, self.k + j, self.k + i] = mat[i, j]
                    c[self.k + j, a, self.k + i] = -mat[i, j]
        return c


def _action_generator(mats, t):
    out = np.zeros(mats[0].shape, dtype=complex)
    for a in range(len(mats)):
        out += t[a] * mats[a]
    return out


def _phi_of_bytes(mats, key):
    out = expm(_action_generator(mats, np.frombuffer(key, dtype=float)))
    out.flags.writeable = False
    return out


def _exp_of_bytes(mats, key, duration):
    x = np.frombuffer(key, dtype=complex)
    s = float(np.frombuffer(duration, dtype=float)[0])
    t, z = x[: len(mats)].real, x[len(mats) :]
    fiber = phi1_apply(s * _action_generator(mats, t), s * z)
    return GroupElement._of_fresh(s * t, fiber)


@dataclass(frozen=True)
class Lattice:
    """Named lattice generators in a semidirect model, plus word helpers."""

    model: SemidirectModel
    generators: tuple  # pairs (name, GroupElement)
    relations: tuple = ()

    def generator(self, name):
        return _generator(self.generators, name)

    @property
    def names(self):
        return tuple(k for k, _ in self.generators)

    @functools.cached_property
    def _letters(self):
        return _letter_memos(self.model, self.generators)

    def element_of(self, word):
        _, power = self._letters
        out = self.model.identity()
        for name, exp in word:
            out = self.model.multiply(out, power(name, int(exp)))
        return out

    def path_of(self, word, check=True):
        """Concatenated canonical loops for a lattice word.

        Each letter contributes the loop of its generator (or inverse),
        repeated for the exponent and built once per lattice for each
        name and sign; the whole path runs from the identity to the
        word's group element.
        """
        loop, _ = self._letters
        segments = []
        for name, exp in word:
            reps = abs(int(exp))
            if reps:
                segments.extend(loop(name, exp >= 0) * reps)
            else:
                # An unknown name is an error at exponent 0 too.
                self.generator(name)
        path = PathWord._of_checked(segments)
        if check and segments:
            reached = self.model.endpoint(path)
            target = self.element_of(word)
            dev = self.model.distance(reached, target)
            scale = max(1.0, self.model.distance(target, self.model.identity()))
            if not dev <= self.model.tolerances.num * scale * max(1, len(segments)):
                raise EndpointMismatch(dev, self.model.tolerances.num)
        return path


def _generator(generators, name):
    for key, g in generators:
        if key == name:
            return g
    raise UnknownName(f"unknown generator {name!r}")


def _letter_memos(model, generators):
    """A lattice's letter memos: loop segments per (name, sign), powers per (name, exponent).

    They close over the model and the generators, not the lattice, so a
    lattice holds no reference cycle.
    """

    def loop(name, positive):
        g = _generator(generators, name)
        return model.loop_of(g if positive else model.inverse(g), check=False).segments

    def power(name, exp):
        return model.power(_generator(generators, name), exp)

    memo = functools.lru_cache(maxsize=_MEMO_SIZE)
    return memo(loop), memo(power)


def parse_word(text):
    """Parse a lattice word like "a b1^-1 a^2" into (name, exponent) pairs.

    Letters are whitespace separated; an optional caret suffix carries an
    integer exponent.
    """
    word = []
    for token in str(text).split():
        if "^" in token:
            name, _, expo = token.partition("^")
            try:
                exp = int(expo)
            except ValueError as err:
                raise ValidationError(f"bad exponent in token {token!r}") from err
        else:
            name, exp = token, 1
        if not name:
            raise ValidationError(f"bad token {token!r}")
        word.append((name, exp))
    return tuple(word)
