"""Flat triangular connection form attached to the enveloping module.

Each algebra element is sent to an upper triangular matrix: the diagonal
carries the accumulated torus characters of the monomials, the strictly
upper part is left multiplication in the module. The assignment is a Lie
homomorphism by construction, which is exactly flatness of the induced
connection, so parallel transport along loops is path independent.

The form is stored as its nonzero entries (a linalg.SparseStack): the
entries of the letter action recombined into the algebra's basis, plus the
diagonal characters. Flatness is checked on them, and the live pattern,
its product closure and psi restricted to that closure are read off them;
the dense (dim, r, r) tensor is assembled only when asked for.

The diagonal entries, viewed as linear functionals on the algebra, span
a finitely generated additive group. A basis of that group is computed
over the integers so every diagonal character gets integer coordinates.

Every lattice word's path concatenates the same few generator loops (one
verify of sol and sect4 exponentiates 201 segments, 82 of them
distinct), so each form memoizes the segment exponential exp(t psi(x))
on the bytes of x and of t in a least recently used memo of at most
_MEMO_SIZE entries and _MEMO_BYTES bytes (an entry is 16 r^2 bytes, 1.35
MB at r = 291). The memo is exact: a hit returns the result a miss
would compute, since the key holds every bit the exponential reads and
the entries are read-only. expm is looked up when a miss runs.

The strictly increasing chains of live steps from p to q, over which
entry (p, q) of a transport expands, depend on the live pattern alone.
Each form plans an entry's chains once, on first use, as the integer ids
of their nodes and of the closure entries of their steps, in a least
recently used memo of at most _MEMO_SIZE entries.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import gcd

import numpy as np

from . import linalg
from .errors import NotInLattice, ValidationError
from .integrals import closure_pattern
from .matfuncs import expm
from .tolerances import DEFAULT

_MEMO_SIZE = 256
_MEMO_BYTES = 16 * 2**20


def _real_stack(vectors):
    """Stack complex vectors into one real matrix, columns per vector."""
    cols = [np.concatenate([v.real, v.imag]) for v in vectors]
    return np.stack(cols, axis=1)


def _row_hnf(rows):
    """Hermite-style row basis of the integer lattice spanned by rows.

    Plain integer row reduction with exact Python ints; returns the
    nonzero reduced rows. Quadratic in the input size, which is tiny.
    """
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    top = 0
    for col in range(ncols):
        while True:
            pivots = [i for i in range(top, len(mat)) if mat[i][col] != 0]
            if not pivots:
                break
            best = min(pivots, key=lambda i: abs(mat[i][col]))
            mat[top], mat[best] = mat[best], mat[top]
            done = True
            for i in range(top + 1, len(mat)):
                if mat[i][col] != 0:
                    q = mat[i][col] // mat[top][col]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                    if mat[i][col] != 0:
                        done = False
            if done:
                break
        if any(mat[i][col] != 0 for i in range(top, len(mat))) and mat[top][col] != 0:
            if mat[top][col] < 0:
                mat[top] = [-a for a in mat[top]]
            top += 1
            if top == len(mat):
                break
    return [r for r in mat[:top] if any(r)]


def _integer_coords(basis, fs):
    """Integer coordinates of each row of fs in the lattice spanned by basis.

    One least-squares solve serves all rows. Returns (coords,
    in_span_residuals, rounding_residuals), one row or entry per row of
    fs; the first residual measures distance to the real span, the
    second distance to the nearest integer point.
    """
    fs = np.atleast_2d(fs)
    if not basis:
        norms = np.linalg.norm(fs, axis=1)
        return np.zeros((fs.shape[0], 0), dtype=int), norms, norms
    a = _real_stack(basis)
    b = np.concatenate([fs.real, fs.imag], axis=1).T
    alpha, *_ = np.linalg.lstsq(a, b, rcond=None)
    span_resid = np.linalg.norm(a @ alpha - b, axis=0)
    m = np.round(alpha)
    round_resid = np.linalg.norm(a @ m - b, axis=0)
    return m.T.astype(int), span_resid, round_resid


def _refine_lattice(basis, alpha, tol):
    """Shrink the lattice so a rational in-span vector becomes integral.

    alpha are the real coordinates of the new vector in the current
    basis. Coordinates are snapped to nearby rationals; the refined
    lattice is generated by the old basis plus the new vector, computed
    through an integer Hermite reduction of the scaled generators.
    """
    fracs = []
    for a in alpha:
        fr = Fraction(float(a)).limit_denominator(10 ** 6)
        if abs(float(fr) - float(a)) > tol:
            raise NotInLattice(abs(float(fr) - float(a)), tol)
        fracs.append(fr)
    q = 1
    for fr in fracs:
        q = q * fr.denominator // gcd(q, fr.denominator)
    rows = [[q if i == j else 0 for j in range(len(basis))] for i in range(len(basis))]
    rows.append([int(fr * q) for fr in fracs])
    hnf = _row_hnf(rows)
    if len(hnf) != len(basis):
        raise NotInLattice(float(len(hnf)), float(len(basis)))
    new_basis = []
    for row in hnf:
        vec = sum((row[i] / q) * basis[i] for i in range(len(basis)))
        new_basis.append(vec)
    return new_basis


def integer_lattice_basis(generators, tol):
    """Basis of the additive group generated by the given vectors.

    Vectors are inserted smallest first; each is either already an
    integer combination, a new independent direction, or triggers a
    rational refinement of the existing basis.
    """
    gens = [np.asarray(g, dtype=complex).ravel() for g in generators]
    gens = [g for g in gens if np.linalg.norm(g) > tol]
    gens.sort(key=lambda g: (float(np.linalg.norm(g)), linalg.rounded_key(g)))
    basis = []
    for f in gens:
        if not basis:
            basis = [f.copy()]
            continue
        a = _real_stack(basis)
        b = np.concatenate([f.real, f.imag])
        alpha, *_ = np.linalg.lstsq(a, b, rcond=None)
        span_resid = float(np.linalg.norm(a @ alpha - b))
        if span_resid > tol:
            basis.append(f.copy())
            continue
        m = np.round(alpha)
        if float(np.linalg.norm(a @ m - b)) <= tol:
            continue
        basis = _refine_lattice(basis, alpha, tol)
        _, _, round_resid = _integer_coords(basis, f)
        if round_resid[0] > tol:
            raise NotInLattice(float(round_resid[0]), tol)
    return _canonical_basis(basis, tol)


def _canonical_basis(basis, tol):
    """Fix signs and order so the basis is reproducible."""
    out = []
    for v in basis:
        flip = False
        for z in v:
            if abs(z) > tol:
                if z.real < -tol:
                    flip = True
                elif abs(z.real) <= tol and z.imag < 0:
                    flip = True
                break
        out.append(-v if flip else v)
    out.sort(key=lambda g: (float(np.linalg.norm(g)), linalg.rounded_key(g)))
    return out


def _segment_exp_of_bytes(psi_entries, key, duration):
    x = np.frombuffer(key, dtype=complex)
    out = expm(np.frombuffer(duration, dtype=float)[0] * psi_entries.apply(x))
    out.flags.writeable = False
    return out


def _walk_chains(steps, p, q):
    """Strictly increasing chains from p to q along steps, in lexicographic order."""
    chains = []
    # Depth first with an explicit stack; successors are pushed in
    # reverse so chains come out in lexicographic order.
    stack = [(p,)]
    while stack:
        chain = stack.pop()
        node = chain[-1]
        if node == q:
            chains.append(chain)
            continue
        for nxt in reversed(steps[node]):
            if nxt <= q:
                stack.append(chain + (nxt,))
    return chains


@dataclass(frozen=True, eq=False)
class ChainPlan:
    """Everything about entry (p, q)'s chains that no path changes.

    nodes holds the chains in lexicographic order, right aligned, one row
    each, the slots in front of a chain repeating its first node; chain c
    starts at slot start[c]. steps holds the closure pattern's index of
    each step between consecutive slots. The arrays are read-only.
    """

    start: np.ndarray
    nodes: np.ndarray
    steps: np.ndarray


def _plan_chains(steps, index, p, q):
    chains = _walk_chains(steps, p, q)
    size = max((len(c) for c in chains), default=1)
    nodes = np.array([(c[0],) * (size - len(c)) + c for c in chains], dtype=int).reshape(-1, size)
    start = size - np.array([len(c) for c in chains], dtype=int)
    plan = ChainPlan(start, nodes, index[nodes[:, :-1], nodes[:, 1:]])
    for a in (plan.start, plan.nodes, plan.steps):
        a.flags.writeable = False
    return plan


@dataclass(frozen=True)
class ConnectionForm:
    """Upper triangular matrix-valued one form with diagonal characters.

    psi_entries holds the matrix attached to each basis vector as the
    nonzero entries of a stack; psi_tensor[i] is that matrix written out
    densely. omega[w, i] is the diagonal character of monomial w
    evaluated at basis vector i. char_basis generates the additive group
    of all diagonal characters and char_coeffs gives each monomial's
    integer coordinates in it.
    """

    envelope: object
    psi_entries: linalg.SparseStack = field(repr=False)
    omega: np.ndarray = field(repr=False)
    char_basis: tuple
    char_coeffs: np.ndarray = field(repr=False)
    flatness: float
    residuals: dict

    @property
    def r(self):
        return self.psi_entries.size

    @property
    def dim(self):
        return self.psi_entries.n

    @cached_property
    def psi_tensor(self):
        """Dense (dim, r, r) stack: psi_tensor[i] is basis vector i's matrix."""
        return self.psi_entries.dense()

    @cached_property
    def live(self):
        """Boolean r by r mask of the strictly upper entries ever nonzero."""
        return self.psi_entries.strict_upper_support()

    @cached_property
    def chain_steps(self):
        """steps[p] lists, in increasing order, every live q > p."""
        return [row.nonzero()[0].tolist() for row in self.live]

    @cached_property
    def closure(self):
        """Closure of live under products; every product of psi(x) lies on it."""
        return closure_pattern(self.live)

    @cached_property
    def closure_psi(self):
        """psi on the closure pattern: psi(x) has values x @ closure_psi there."""
        stack, pattern = self.psi_entries, self.closure
        out = np.zeros((self.dim, pattern.rows.size), dtype=complex)
        out[:, pattern.index[stack.rows, stack.cols]] = stack.values
        return out

    def psi(self, x):
        """Connection matrix of an algebra element."""
        return self.psi_entries.apply(x)

    @cached_property
    def _segment_memo(self):
        # Every entry is an r by r complex matrix, so the byte bound is an
        # entry count. The memo closes over the entries, not the form, so
        # a form holds no reference cycle.
        size = min(_MEMO_SIZE, _MEMO_BYTES // (16 * self.r**2))
        return lru_cache(maxsize=size)(partial(_segment_exp_of_bytes, self.psi_entries))

    def segment_exp(self, x, t):
        """exp(t psi(x)), the transport along one segment, read-only."""
        key = np.asarray(x, dtype=complex).tobytes()
        return self._segment_memo(key, np.float64(t).tobytes())

    @cached_property
    def _chain_plans(self):
        # Closes over the steps and the closure's index, not the form, so
        # a form holds no reference cycle.
        return lru_cache(maxsize=_MEMO_SIZE)(partial(_plan_chains, self.chain_steps, self.closure.index))

    def chain_plan(self, p, q):
        """The ChainPlan of entry (p, q), planned on first use.

        Below the diagonal an entry has no chain; an index outside 0 to
        r - 1 is a ValidationError.
        """
        r = self.r
        if not (0 <= p < r and 0 <= q < r):
            raise ValidationError(f"entry ({p}, {q}) outside a {r} by {r} form")
        return self._chain_plans(p, q)

    def entry_functional(self, p, q):
        """The (p, q) matrix entry of psi as a functional on the algebra."""
        return self.psi_entries.entry(p, q)


def build_connection_form(env, tolerances=DEFAULT):
    """Assemble the connection form from a truncated enveloping module."""
    split = env.split
    alg = split.base
    r = env.r

    omega = env.word_chars @ split.torus_coords.astype(complex)

    # Basis vector i acts as sum_a ginv[a, i] (letter a) plus its diagonal
    # characters; the letters are strictly upper, so the two parts sit on
    # disjoint positions.
    letters = env.letter_entries
    psi = linalg.SparseStack.from_values(
        r,
        np.concatenate([letters.rows, np.arange(r)]),
        np.concatenate([letters.cols, np.arange(r)]),
        np.concatenate([env.generator_inverse.T @ letters.values, omega.T], axis=1),
    )

    scale = max(1.0, float(np.max(np.abs(psi.values), initial=0.0)))
    flat = linalg.bracket_residual(psi, alg.structure.astype(complex)) / scale
    tolerances.check("connection", {"flatness": flat})

    # Character lattice: monomial characters are nonnegative integer sums
    # of generator characters, so the generator level characters generate
    # the same additive group and seed the basis computation.
    gen_functionals = [
        np.asarray(env.gen_chars[a], dtype=complex) @ split.torus_coords.astype(complex)
        for a in range(env.generators.shape[1])
    ]
    basis = integer_lattice_basis(gen_functionals, tolerances.integer)

    coeffs, span_resid, round_resid = _integer_coords(basis, omega)
    miss = np.maximum(span_resid, round_resid)
    over = np.flatnonzero(miss > tolerances.integer)
    if over.size:
        raise NotInLattice(float(miss[over[0]]), tolerances.integer)
    worst_round = float(np.max(round_resid, initial=0.0))

    residuals = dict(env.residuals)
    residuals["flatness"] = flat
    residuals["character_rounding"] = worst_round

    return ConnectionForm(
        envelope=env,
        psi_entries=psi,
        omega=omega,
        char_basis=tuple(basis),
        char_coeffs=coeffs,
        flatness=flat,
        residuals=residuals,
    )
