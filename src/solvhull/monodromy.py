"""Monodromy of lattice elements and its integral decompositions.

Transport along any path from the identity to a lattice point is path
independent because the connection is flat, so it defines a matrix
valued function of the group element alone. Every matrix entry of that
function decomposes as a finite sum of exponential iterated integrals
over strictly increasing index chains, which is how closedness of those
integrals is certified here: the chain sums are recomputed over several
paths with the same endpoint and compared. The chains depend on the
connection form alone, so each form plans an entry's chains once
(ConnectionForm.chain_plan). A single entry's chains go through
integrals.chain_sums in one call; closedness_residual pads the plans of
all its entries to one chain length and evaluates them in one
integrals.chain_values call (batched at _CHAINS_PER_CALL chains), then
sums each entry's chains. The sums never form the dense exponential,
so they stay a certificate independent of transport.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnknownName, ValidationError
from .integrals import chain_sums, chain_values, stack_paths, transport
from .paths import PathWord

# Chains closedness_residual evaluates in one kernel call. Entries are
# batched in order up to this many chains, so a full upper triangle of a
# large form never builds one huge stack; verify's entries on the
# builtins take one call.
_CHAINS_PER_CALL = 1024


def monodromy(form, model, target):
    """Transport along the canonical path to a group element."""
    return transport(form, model.loop_of(target))


def word_monodromy(form, lattice, word):
    """Transport along the concatenated canonical path of a lattice word."""
    return transport(form, lattice.path_of(word))


@dataclass(frozen=True)
class MonodromyRep:
    """Monodromy matrices of the lattice generators."""

    form: object
    lattice: object
    matrices: tuple

    def generator_matrix(self, name):
        for key, m in zip(self.lattice.names, self.matrices):
            if key == name:
                return m
        raise UnknownName(f"unknown generator {name!r}")

    def of_word(self, word):
        """Product of generator monodromies, using flatness for powers."""
        out = np.eye(self.form.r, dtype=complex)
        for name, exp in word:
            m = self.generator_matrix(name)
            step = m if exp >= 0 else np.linalg.inv(m)
            for _ in range(abs(int(exp))):
                out = out @ step
        return out


def build_monodromy_rep(form, lattice):
    mats = tuple(
        monodromy(form, lattice.model, g) for _, g in lattice.generators
    )
    return MonodromyRep(form=form, lattice=lattice, matrices=mats)


def path_variants(model, target, seed=0, trials=4):
    """Distinct paths from the identity to the same group element.

    Includes the canonical loop, segment subdivisions of it, and detour
    paths that first run along a random direction and then take the
    canonical path of the remaining factor.
    """
    rng = np.random.default_rng(seed)
    base = model.loop_of(target)
    variants = [base]
    for k in (2, 3):
        variants.append(base.subdivide(k))
    complex_fiber = any(np.iscomplexobj(m) and np.max(np.abs(m.imag)) > 0 for m in model.mats)
    for _ in range(trials):
        t_dir = rng.standard_normal(model.k)
        fiber = rng.standard_normal(model.m)
        if complex_fiber:
            fiber = fiber + 1j * rng.standard_normal(model.m)
        y = model.direction_of(t_dir, fiber)
        y = y / max(1.0, float(np.linalg.norm(y)))
        s = float(rng.uniform(0.2, 0.9))
        head = model.exp(y, s)
        rest = model.multiply(model.inverse(head), target)
        detour = PathWord([(y, s)]).concat(model.loop_of(rest, check=False))
        variants.append(detour)
    return variants


def path_independence_residual(form, variants, base):
    """Largest deviation of the endpoint equal variants' transports from base, the first's."""
    scale = max(1.0, float(np.max(np.abs(base))))
    worst = 0.0
    for path in variants[1:]:
        diff = transport(form, path) - base
        worst = max(worst, float(np.max(np.abs(diff))) / scale)
    return worst


def entry_chains(form, p, q):
    """Strictly increasing index chains from p to q with live steps, read off the form's plan."""
    plan = form.chain_plan(p, q)
    return [tuple(row[s:]) for row, s in zip(plan.nodes.tolist(), plan.start.tolist())]


def _entry_sums(form, stacked, p, q):
    """Entry (p, q)'s chain sum on every path of stacked, in one chain_sums call.

    The form plans the chains once, with the rows of the characters and
    the closure entries that they use, and each call hands those tables
    on. The slots in front of a right aligned chain repeat its first
    node; the carried row starts at the chain's first slot, so they
    never contribute.
    """
    plan = form.chain_plan(p, q)
    return chain_sums(plan.exponents, plan.factors, stacked, plan.start)


def entry_chain_value(form, path, p, q):
    """Entry (p, q) of the transport as a sum of exponential integrals.

    Solving the triangular transport equation by variation of parameters
    expands each entry over strictly increasing chains; every chain
    contributes one exponential iterated integral whose exponents are
    the diagonal characters along the chain and whose factors are the
    off diagonal entry functionals of the steps. An entry below the
    diagonal has no chain and is 0; an index outside the form is a
    ValidationError. The chains depend on the form alone, so each form
    plans an entry's chains once (ConnectionForm.chain_plan) and every
    later call only evaluates them, all in one call of
    integrals.chain_sums, which reads only the characters and closure
    entries on those chains. The dense r by r exponential is never
    formed, so the sum stays a certificate independent of transport.
    """
    return complex(_entry_sums(form, stack_paths([path], form.dim), p, q)[0])


def _batches(plans):
    """Slices of consecutive plans holding at most _CHAINS_PER_CALL chains together.

    A plan with more chains than that makes a slice of its own.
    """
    lo, held = 0, 0
    for hi, plan in enumerate(plans):
        chains = len(plan.start)
        if hi > lo and held + chains > _CHAINS_PER_CALL:
            yield slice(lo, hi)
            lo, held = hi, 0
        held += chains
    if plans:
        yield slice(lo, len(plans))


def _batch_sums(stacked, plans):
    """Each plan's chain sum on every path of stacked, shape (paths, plans), in one chain_values call.

    Every chain is right aligned on the longest of the batch as a plan
    aligns its own short chains: the slots put in front repeat the
    chain's first node, so they take its character, and their steps are
    the closure's diagonal, whose table is that same character; start
    moves with the chain. Each plan's values are then summed with
    np.add.reduceat. A plan without chains sums to 0, and a batch without
    chains makes no call.
    """
    counts = np.array([len(plan.start) for plan in plans])
    sums = np.zeros((stacked[0].shape[0], len(plans)), dtype=complex)
    if not counts.any():
        return sums
    size = max(plan.nodes.shape[1] for plan in plans)
    exponents, factors, start = [], [], []
    for plan in plans:
        pad = size - plan.nodes.shape[1]
        front = np.repeat(plan.exponents[:, :1], pad, axis=1)
        exponents.append(np.concatenate([front, plan.exponents], axis=1))
        factors.append(np.concatenate([front, plan.factors], axis=1))
        start.append(plan.start + pad)
    values = chain_values(np.concatenate(exponents), np.concatenate(factors), stacked, np.concatenate(start))
    held = counts > 0
    sums[:, held] = np.add.reduceat(values, (np.cumsum(counts) - counts)[held], axis=-1)
    return sums


def closedness_residual(form, variants, base, entries):
    """Certify that monodromy entries are closed exponential integrals.

    Every (p, q) of entries is evaluated through its chain decomposition
    on the endpoint equal paths of variants and compared against base,
    the transport along the first of them. The paths are stacked once,
    zero padded to the longest, and the entries' chains go through
    integrals.chain_values together, at most _CHAINS_PER_CALL chains a
    call, padded to the longest chain of the call; so values carry the
    rounding of the call's Taylor degree and padding, not of each entry
    alone. Returns the worst spread across paths, 0 for one path, and
    the worst disagreement with the transport entries; no path at all
    is a ValidationError.
    """
    if not variants:
        raise ValidationError("closedness needs at least one path")
    entries = list(entries)
    plans = [form.chain_plan(p, q) for p, q in entries]
    rows, cols = np.array(entries, dtype=int).reshape(-1, 2).T
    scale = max(1.0, float(np.max(np.abs(base))))
    stacked = stack_paths(variants, form.dim)
    spread = 0.0
    mismatch = 0.0
    for batch in _batches(plans):
        values = _batch_sums(stacked, plans[batch])
        mismatch = max(mismatch, float(np.max(np.abs(values - base[rows[batch], cols[batch]]))) / scale)
        spread = max(spread, float(np.max(np.abs(values[1:] - values[0]), initial=0.0)) / scale)
    return spread, mismatch


def separation_demo(form, lattice):
    """Contrast ordinary and exponential iterated integrals on a commutator.

    The commutator of a translation generator with a fiber generator has
    zero displacement, so every ordinary depth one iterated integral of a
    constant form vanishes on its path. Its monodromy is still far from
    the identity. The commutator of two fiber generators is the negative
    control: genuinely trivial, with identity monodromy.
    """
    model = lattice.model
    trans_name = None
    fiber_names = []
    for name, g in lattice.generators:
        if g.t.any():
            if trans_name is None:
                trans_name = name
        else:
            fiber_names.append(name)
    if trans_name is None or not fiber_names:
        raise ValidationError("separation demo needs one translation and one fiber generator")
    fiber_name = None
    for name in fiber_names:
        g = lattice.generator(name)
        conj = model.multiply(
            model.multiply(lattice.generator(trans_name), g),
            model.inverse(lattice.generator(trans_name)),
        )
        if model.distance(conj, g) > model.tolerances.report_limit:
            fiber_name = name
            break
    if fiber_name is None:
        fiber_name = fiber_names[0]

    word = (
        (trans_name, 1),
        (fiber_name, 1),
        (trans_name, -1),
        (fiber_name, -1),
    )
    path = lattice.path_of(word)
    rho = transport(form, path)
    eye = np.eye(form.r, dtype=complex)
    displacement = float(np.linalg.norm(path.displacement()))
    sep = float(np.max(np.abs(rho - eye)))

    control = None
    if len(fiber_names) >= 2:
        other = [n for n in fiber_names if n != fiber_name][0]
        control_word = ((fiber_name, 1), (other, 1), (fiber_name, -1), (other, -1))
        control_rho = word_monodromy(form, lattice, control_word)
        control = float(np.max(np.abs(control_rho - eye)))

    return {
        "word": " ".join(f"{n}^{e}" if e != 1 else n for n, e in word),
        "displacement_norm": displacement,
        "monodromy_distance_from_identity": sep,
        "fiber_commutator_distance": control,
    }
