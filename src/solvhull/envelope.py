"""Truncated enveloping module of the nilpotent shadow.

The module is spanned by normally ordered monomials in a generator basis
chosen as joint eigenvectors of the torus, adapted to the lower central
series. The torus is the span of the semisimple parts of ad, so its
weight spaces are the weight blocks that semisimple_adjoint already
found: each is taken in its canonical basis, with the torus's Rayleigh
quotient on it as its character, and this stage computes no
eigenvalues. Each series level is torus invariant, so its part in a
weight space is read off in weight space coordinates. The generators of
weight k are the canonical basis of the complement of level k + 1 in
level k within each weight space. They depend only on the series
subspaces, not on the bases those come in. Left multiplication by a
generator strictly raises the total series weight of a monomial, so
ordering monomials by descending weight makes every action matrix
strictly upper triangular, while the torus acts diagonally with the
monomial's accumulated character.

Truncation drops the monomials whose series weight exceeds a cap, the
shadow's nilpotency class unless given. The series weight filters the
enveloping algebra, commutator corrections included, so the span of the
monomials above any cap is a two sided ideal and the quotient action is
an exact Lie homomorphism for every class. Plain total degree is no
substitute: from class three on its truncation is not a homomorphism.

Products are computed on integer word ids, the positions of the words
in that order. A letter a <= the first letter of a word prepends to it,
so those products are read off a table of prepended words. Every other
product commutes a past the first letter, a (b w) = b (a w) + [a, b] w,
and is filled once, words by increasing length, from products already
in the table.

The action is kept as the nonzero entries of the letter matrices (a
linalg.SparseStack, well under one percent of n r^2 at r in the hundreds),
and the triangularity, homomorphism and torus Leibniz checks run on those
entries alone; the dense stack is never formed.

The pipeline evaluates on faithful_quotient, the quotient by the span of
the words outside S, the least set of word ids that holds the empty word
and the letters and every column k of a nonzero letter entry (j, k) with
j in S. No entry leads from a row in S to a column outside it, so that
span is a submodule and the quotient action is the S x S block of every
letter matrix: the quotient is exact, its transport is the S x S block
of the full transport, and its homomorphism and Leibniz residuals are
restrictions of the full module's. It is faithful on the shadow when
the cap is at least the largest generator weight, as the default is: x
times the empty word has x's letter coordinates, and those rows are in
S. The torus still acts diagonally on the kept words.
"""

from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from . import linalg
from .errors import SolvHullError, TruncationOverflow, ValidationError
from .tolerances import DEFAULT


def _snapped(char, tolerances):
    """The character with real and imaginary parts below char_snap set to zero."""
    return tuple(linalg.snap_to_zero(z, tolerances.char_snap) for z in char)


def _letters_within(space, here, deeper, tol):
    """Canonical basis of the complement of span(deeper) in span(here).

    space has orthonormal columns; here and deeper are orthonormal
    coordinates in that basis, with span(deeper) inside span(here). The
    result is in ambient coordinates: empty when the two spans have one
    dimension, space itself when here fills it and deeper is empty, and
    otherwise linalg.canon_columns, whose tie rule keeps rounding from
    reordering letters whose pivot norms tie.
    """
    if here.shape[1] == deeper.shape[1]:
        return space[:, :0]
    if deeper.shape[1] == 0 and here.shape[1] == space.shape[1]:
        return space
    if deeper.shape[1] > 0:
        here = here @ linalg.nullspace(deeper.conj().T @ here, tol)
    return linalg.canon_columns(space @ here, tol)


@dataclass(frozen=True)
class EnvelopingTruncation:
    """Truncated enveloping module with the generator action matrices.

    words are normally ordered letter tuples sorted by descending weight.
    letter_entries holds left multiplication by each generator on the
    module as the nonzero entries of a stack of r by r matrices.
    word_chars[w, b] is the accumulated character of word w under torus
    element b, which is exactly how the torus acts diagonally. condition
    is the condition number of the generator basis; it is reported, not
    checked against a budget.
    """

    split: object
    generators: np.ndarray = field(repr=False)
    generator_inverse: np.ndarray = field(repr=False)
    gen_weights: tuple
    gen_chars: tuple
    gamma: np.ndarray = field(repr=False)
    cap: int
    words: tuple
    word_weights: np.ndarray = field(repr=False)
    word_chars: np.ndarray = field(repr=False)
    letter_entries: linalg.SparseStack = field(repr=False)
    condition: float
    residuals: dict

    @property
    def r(self):
        return len(self.words)


def _weight_spaces(split, tolerances):
    """The torus weight spaces of the shadow and their characters, in character order.

    They are the semisimple adjoint's weight blocks, each as its
    canonical orthonormal basis. A block's character is the torus's
    Rayleigh quotient on it, trace(q^H T_b q) / dim for each torus
    element T_b, with components below tolerances.char_snap set to zero.
    Without a torus the shadow is one weight space of character ().
    """
    torus = split.torus
    if not torus.shape[0]:
        return [np.eye(split.shadow.dim, dtype=complex)], [()]
    spaces = [linalg.canon_columns(b) for b in split.semisimple.weight_blocks]
    chars = [
        _snapped(np.trace(q.conj().T @ torus @ q, axis1=1, axis2=2) / q.shape[1], tolerances)
        for q in spaces
    ]
    order = sorted(range(len(spaces)), key=lambda s: linalg.rounded_key(chars[s]))
    return [spaces[s] for s in order], [chars[s] for s in order]


def _build_generators(split, tolerances):
    """LCS adapted joint eigenbasis of the torus on shadow coordinates.

    The weight spaces are _weight_spaces's, so the semisimple adjoint's
    weight decomposition is the only eigendecomposition of the build.
    Every series level is torus invariant, so its part in a weight space
    is the weight space rows of its coordinates in the dual basis. The
    letters of weight k in a weight space are the canonical basis of the
    complement of level k + 1 in level k there, which depends only on
    the series subspaces, not on the bases they come in.
    """
    n = split.shadow.dim
    series = split.shadow_series
    cls = split.shadow_class
    mats = [split.torus[b].astype(complex) for b in range(split.torus.shape[0])]
    norms = [float(np.linalg.norm(m, 2)) for m in mats]
    tol = tolerances.alg

    spaces, space_chars = _weight_spaces(split, tolerances)
    dual = np.linalg.inv(np.hstack(spaces))
    starts = np.cumsum([q.shape[1] for q in spaces])[:-1]

    # parts[k - 1][s]: orthonormal coordinates, in the basis spaces[s],
    # of series level k's part in weight space s. The levels are nested,
    # so a weight space that level k misses, deeper levels miss.
    parts = [[np.eye(q.shape[1]) for q in spaces]]
    for k, level in enumerate(series[1:], start=2):
        coords = np.split(dual @ level, starts)
        parts.append([
            linalg.orthonormal_columns(c, tol) if above.shape[1] else above
            for c, above in zip(coords, parts[-1])
        ])
        found = sum(q.shape[1] for q in parts[-1])
        if found != level.shape[1]:
            raise SolvHullError(
                f"series level {k} has {found} of its {level.shape[1]} "
                "dimensions in the torus weight spaces"
            )

    letters = []
    for k in range(cls, 0, -1):
        for space, ch, here, deeper in zip(spaces, space_chars, parts[k - 1], parts[k]):
            comp = _letters_within(space, here, deeper, tol)
            for j in range(comp.shape[1]):
                letters.append((comp[:, j], k, ch))

    if len(letters) != n:
        raise SolvHullError(
            f"generator extraction produced {len(letters)} letters for dimension {n}"
        )
    gmat = np.stack([vec for vec, _, _ in letters], axis=1)
    weights = tuple(w for _, w, _ in letters)
    chars = tuple(ch for _, _, ch in letters)

    # Each letter must be an eigenvector of every torus element.
    lam = np.array(chars, dtype=complex).reshape(n, len(mats))
    worst = 0.0
    for b, (m, norm) in enumerate(zip(mats, norms)):
        err = float(np.max(np.abs(m @ gmat - gmat * lam[:, b])))
        worst = max(worst, err / max(1.0, norm))
    cond = float(np.linalg.cond(gmat))
    ginv = np.linalg.inv(gmat)
    return gmat, ginv, weights, chars, worst, cond


def _generator_table(split, gmat, ginv, weights, chars, tolerances):
    """Shadow bracket in the generator basis, with forbidden entries zeroed.

    A bracket of weight-j and weight-k generators lies in series step
    j + k and carries the summed character; components violating either
    rule are rounding noise and are removed after being measured. So are
    components at most tolerances.char_snap times the largest: the
    faithful quotient follows every nonzero letter entry, so without
    this its size would depend on the rounding in the generator basis.
    """
    n = split.shadow.dim
    coords = ginv @ split.shadow.brackets(gmat, gmat).reshape(n, n * n)
    gamma = np.moveaxis(coords.reshape(n, n, n), 0, -1)
    gamma = (gamma - np.swapaxes(gamma, 0, 1)) / 2.0

    # forbid[a, b, m]: component m of [g_a, g_b] breaks either rule.
    w = np.asarray(weights)
    ch = np.asarray(chars, dtype=complex).reshape(n, split.torus.shape[0])
    low_weight = w[None, None, :] < (w[:, None] + w[None, :])[:, :, None]
    off_char = np.abs(ch[None, None] - (ch[:, None] + ch[None, :])[:, :, None])
    size = np.abs(gamma)
    scale = max(1.0, float(np.max(size)))
    forbid = low_weight | np.any(off_char > tolerances.char_match, axis=-1)
    forbid |= size <= tolerances.char_snap * scale
    forbidden = float(np.max(size[forbid], initial=0.0))
    gamma[forbid] = 0.0
    tolerances.check(
        "envelope", {"forbidden_bracket_components": forbidden}, tolerances.num * scale
    )
    return gamma, forbidden


def _enumerate_words(n, weights, cap, max_dim):
    """Normally ordered words of weight at most cap, by length, then lexically.

    Letter weights are positive, so a word over the cap has no kept
    extension and is never extended.
    """
    words = []
    level = [((), 0)]
    while level:
        longer = []
        for word, weight in level:
            words.append(word)
            if len(words) > max_dim:
                raise TruncationOverflow(len(words), max_dim)
            for a in range(word[-1] if word else 0, n):
                w = weight + weights[a]
                if w <= cap:
                    longer.append((word + (a,), w))
        level = longer
    return words


def _order_words(words, weights, chars, t_dim):
    """Sort words by descending weight, then length, character and letters.

    Each word's weight and accumulated torus character are summed once,
    one numpy pass per letter position over the words, padded with a
    letter of weight 0 and character 0, so every character is summed left
    to right from 0 as the letters come. Returns the sorted words with
    one weight and one character row each.
    """
    n = len(weights)
    longest = max(map(len, words), default=0)
    padded = np.array([word + (n,) * (longest - len(word)) for word in words], dtype=int)
    weight_table = np.append(np.asarray(weights, dtype=int), 0)
    char_table = np.zeros((n + 1, t_dim), dtype=complex)
    char_table[:n] = np.asarray(chars, dtype=complex).reshape(n, t_dim)
    word_weights = weight_table[padded].sum(axis=1)
    word_chars = np.zeros((len(words), t_dim), dtype=complex)
    for k in range(longest):
        word_chars += char_table[padded[:, k]]
    summed, rows = word_weights.tolist(), word_chars.tolist()
    order = sorted(
        range(len(words)),
        key=lambda w: (-summed[w], -len(words[w]), linalg.rounded_key(rows[w]), words[w]),
    )
    return [words[w] for w in order], word_weights[order], word_chars[order]


def word_label(word):
    """Printable name of a monomial: its letters joined by '*', or '1'."""
    return "*".join(f"g{a}" for a in word) if word else "1"


def _commute(products, brackets, a, b, rest):
    """Letter a times the word b rest for a > b, as {word id: coefficient}.

    a (b rest) = b (a rest) + [a, b] rest, expanded through products,
    which must already hold a rest, b times each of its words, and every
    bracket letter times rest. Exact zeros are dropped.
    """
    out = {}
    for w2, c2 in products[a][rest].items():
        for w3, c3 in products[b][w2].items():
            out[w3] = out.get(w3, 0.0) + c2 * c3
    for m, coeff in brackets[a][b]:
        for w2, c2 in products[m][rest].items():
            out[w2] = out.get(w2, 0.0) + coeff * c2
    return {w: c for w, c in out.items() if c != 0.0}


def build_enveloping_rep(split, tolerances=DEFAULT, max_dim=512, cap=None):
    """Build the enveloping module truncated at series weight cap, the class by default.

    A cap below 1 would keep only the empty word, on which every letter
    acts as 0, so it raises ValidationError.
    """
    n = split.shadow.dim
    if cap is None:
        cap = max(1, split.shadow_class)
    elif cap < 1:
        raise ValidationError(f"the truncation cap must be at least 1, got {cap}")

    gmat, ginv, weights, chars, gen_resid, cond = _build_generators(split, tolerances)
    gamma, forbidden = _generator_table(split, gmat, ginv, weights, chars, tolerances)

    t_dim = split.torus.shape[0]
    words, word_weights, word_chars = _order_words(
        _enumerate_words(n, weights, cap, max_dim), weights, chars, t_dim
    )
    index = {w: i for i, w in enumerate(words)}
    r = len(words)

    # brackets[a][b]: the nonzero (m, gamma[a, b, m]) in increasing m.
    brackets = [[[] for _ in range(n)] for _ in range(n)]
    for a, b, m in zip(*map(np.ndarray.tolist, np.nonzero(gamma))):
        brackets[a][b].append((m, gamma[a, b, m]))
    # products[a][w]: letter a times word w as {word id: coefficient}.
    # A letter a <= word[0] prepends; the result is dropped when it lies
    # past the truncation. The empty word takes every letter this way.
    products = [[None] * r for _ in range(n)]
    for w, word in enumerate(words):
        for a in range(word[0] + 1 if word else n):
            new = index.get((a,) + word)
            products[a][w] = {} if new is None else {new: 1.0}
    # Every other product commutes a past the first letter. Its terms are
    # products on the shorter tail, or prepends to a word as long as this
    # one, so filling words by increasing length finds them all in place.
    for w in sorted(range(r), key=lambda w: len(words[w])):
        word = words[w]
        if word:
            rest = index[word[1:]]
            for a in range(word[0] + 1, n):
                products[a][w] = _commute(products, brackets, a, word[0], rest)

    # Column c of letter a's matrix is a times word c: one count per
    # (a, c), then the rows and values of that column's entries.
    columns = list(chain.from_iterable(products))
    counts = list(map(len, columns))
    letter, col = np.divmod(np.repeat(np.arange(n * r), counts), r)
    row = np.array(list(chain.from_iterable(columns)), dtype=int)
    value = np.array(list(chain.from_iterable(map(dict.values, columns))), dtype=complex)
    letter_entries = linalg.SparseStack.from_entries(n, r, letter, row, col, value)

    # Strict upper triangularity in the chosen order.
    tri = float(np.max(np.abs(value[row >= col]), initial=0.0))
    if tri > 0.0:
        raise SolvHullError(
            f"monomial order failed to make the action strictly triangular ({tri:.3e})"
        )

    # Left multiplication must be a Lie homomorphism on the quotient.
    hom = linalg.bracket_residual(letter_entries, gamma)

    # The torus acts diagonally and satisfies the Leibniz rule with each
    # generator, shifting it by the generator's character. A zero entry
    # satisfies it exactly, so only the nonzero ones are checked.
    entry = value[:, None]
    lhs = word_chars[row] * entry - entry * word_chars[col]
    shift = np.array(chars, dtype=complex).reshape(n, t_dim)[letter] * entry
    leib = float(np.max(np.abs(lhs - shift), initial=0.0))

    scale = max(1.0, float(np.max(np.abs(value), initial=0.0)))
    residuals = {
        "generator_invariance": gen_resid,
        "forbidden_bracket_components": forbidden,
        "action_homomorphism": hom / scale,
        "torus_leibniz": leib / scale,
    }
    tolerances.check("envelope", residuals)

    return EnvelopingTruncation(
        split=split,
        generators=gmat,
        generator_inverse=ginv,
        gen_weights=weights,
        gen_chars=chars,
        gamma=gamma,
        cap=cap,
        words=tuple(words),
        word_weights=word_weights,
        word_chars=word_chars,
        letter_entries=letter_entries,
        condition=cond,
        residuals=residuals,
    )


def faithful_quotient(env):
    """The quotient of env by the span of the words outside S.

    S, described in the module docstring, starts from the empty word and
    the letters. Entries are strictly upper, so one pass over the rows
    in increasing order closes it. The quotient is faithful on the
    shadow only when env.cap is at least the largest generator weight,
    which the default cap, the shadow's class, is: a lower cap drops the
    letters above it. The generators, their characters, gamma and the
    residuals stay env's; the quotient's own residuals are restrictions
    of them. Returns env itself when S holds every word.
    """
    letters = env.letter_entries
    keep = np.array([len(word) <= 1 for word in env.words])
    ends = np.searchsorted(letters.rows, np.arange(env.r + 1))
    for j in range(env.r):
        if keep[j]:
            keep[letters.cols[ends[j]:ends[j + 1]]] = True
    if keep.all():
        return env
    ids = np.flatnonzero(keep)
    new_id = np.cumsum(keep) - 1
    inside = keep[letters.rows]
    return replace(
        env,
        words=tuple(env.words[w] for w in ids),
        word_weights=env.word_weights[ids],
        word_chars=env.word_chars[ids],
        letter_entries=linalg.SparseStack(
            ids.size,
            new_id[letters.rows[inside]],
            new_id[letters.cols[inside]],
            letters.values[:, inside],
        ),
    )
