"""End to end construction and invariant verification.

build_stages runs the full pipeline on a validated problem and returns
every intermediate object. Its envelope is the faithful quotient of the
truncated enveloping module, so every transport, chain sum and
closedness check downstream runs on the quotient. run_verification
re-derives the key invariants with deterministic seeded sampling and
renders them into a plain dict of numbers and booleans, suitable for
canonical JSON output: two runs with the same inputs produce byte
identical reports.
"""

import numpy as np

from . import linalg
from .algebra import derived_series, nilradical, semisimple_adjoint, _jacobi_residual
from .connection import build_connection_form
from .envelope import build_enveloping_rep, faithful_quotient, word_label
from .integrals import (
    IntegralWord,
    _shuffle_terms,
    exp_iterated_integral,
    exp_iterated_integral_series,
    iterated_integral,
    iterated_integral_quadrature,
    transport,
    transport_series,
)
from .monodromy import (
    build_monodromy_rep,
    closedness_residual,
    path_independence_residual,
    path_variants,
    separation_demo,
    word_monodromy,
)
from .paths import PathWord
from .splitting import build_splitting
from .groups import parse_word


def build_stages(problem):
    """Run the pipeline and return all intermediate objects as a dict."""
    alg = problem.algebra
    tol = problem.tolerances
    nil = nilradical(alg, tol)
    ads = semisimple_adjoint(alg, nil, tol)
    split = build_splitting(alg, semisimple=ads, nilrad=nil, tolerances=tol)
    env = faithful_quotient(build_enveloping_rep(split, tol))
    form = build_connection_form(env, tol)
    return {
        "algebra": alg,
        "nilradical": nil,
        "semisimple": ads,
        "splitting": split,
        "envelope": env,
        "form": form,
    }


def _random_path(rng, dim, segments, is_complex, growth_cap, form):
    dirs = []
    durs = []
    for _ in range(segments):
        v = rng.standard_normal(dim)
        if is_complex:
            v = v + 1j * rng.standard_normal(dim)
        v = v / max(1.0, float(np.linalg.norm(v)))
        dirs.append(v)
        durs.append(float(rng.uniform(0.2, 0.8)))
    growth = sum(
        float(np.linalg.norm(form.psi(v), "fro")) * t for v, t in zip(dirs, durs)
    )
    if growth > growth_cap:
        scale = growth_cap / growth
        durs = [t * scale for t in durs]
    return PathWord(list(zip(dirs, durs)))


def _integral_section(problem, form, seed, depth):
    alg = problem.algebra
    n = alg.dim
    rng = np.random.default_rng(seed)
    coords = [np.eye(n)[i] for i in range(n)]

    shuffle_worst = 0.0
    for _ in range(5):
        path = _random_path(rng, n, 3, alg.is_complex, 3.0, form)
        wa = tuple(int(rng.integers(0, n)) for _ in range(2))
        wb = tuple(int(rng.integers(0, n)) for _ in range(int(rng.integers(1, 3))))
        a, b, shuffled = _shuffle_terms(coords, wa, wb, path)
        shuffle_worst = max(shuffle_worst, abs(a * b - shuffled) / max(1.0, abs(a)))

    path = _random_path(rng, n, 4, alg.is_complex, 3.0, form)
    full = transport(form, path)
    series = transport_series(form, path, depth)
    transport_diff = float(np.max(np.abs(full - series.value)))

    # Exponential integral: diagonal characters of the ends of the first
    # live step in row-major order with its entry functional, when one
    # exists.
    steps = form.chain_steps
    p = next((p for p, row in enumerate(steps) if row), None)
    if p is None:
        word = IntegralWord((form.omega[0, :],), ())
    else:
        q = steps[p][0]
        word = IntegralWord(
            (form.omega[p, :], form.omega[q, :]),
            (form.entry_functional(p, q),),
        )
    closed = exp_iterated_integral(word, path)
    ser = exp_iterated_integral_series(word, path, depth)
    exp_diff = abs(closed - ser.value)

    quad_word = [coords[0], coords[min(1, n - 1)]]
    exact = iterated_integral(quad_word, path)
    quad = iterated_integral_quadrature(quad_word, path, points=4000)
    quad_diff = abs(exact - quad)
    quad_tol = 100.0 / 4000.0 * max(1.0, abs(exact))

    ok = (
        shuffle_worst <= problem.tolerances.exact
        and transport_diff <= series.tail_bound
        and exp_diff <= ser.tail_bound
        and quad_diff <= quad_tol
    )
    return {
        "shuffle_residual": shuffle_worst,
        "transport_series_diff": transport_diff,
        "transport_series_tail": series.tail_bound,
        "exp_integral_diff": exp_diff,
        "exp_integral_tail": ser.tail_bound,
        "quadrature_diff": quad_diff,
        "quadrature_tolerance": quad_tol,
        "series_depth": depth,
        "ok": ok,
    }


def _monodromy_section(problem, form, seed):
    lattice = problem.lattice
    model = problem.model
    tol = problem.tolerances
    rep = build_monodromy_rep(form, lattice)

    triangular = 0.0
    for m in rep.matrices:
        triangular = max(triangular, float(np.max(np.abs(np.tril(m, -1)))))

    relation_worst = 0.0
    for lhs, rhs in lattice.relations:
        wl = parse_word(lhs)
        wr = parse_word(rhs)
        ml = word_monodromy(form, lattice, wl)
        mr = word_monodromy(form, lattice, wr)
        scale = max(1.0, float(np.max(np.abs(ml))))
        relation_worst = max(relation_worst, float(np.max(np.abs(ml - mr))) / scale)

    # Generator products against the dedicated word transport.
    hom_worst = 0.0
    names = lattice.names
    test_words = [((names[0], 1), (names[-1], 1))]
    if len(names) >= 2:
        test_words.append(((names[0], 1), (names[1], -1), (names[0], -1)))
    for word in test_words:
        direct = word_monodromy(form, lattice, word)
        composed = rep.of_word(word)
        scale = max(1.0, float(np.max(np.abs(direct))))
        hom_worst = max(hom_worst, float(np.max(np.abs(direct - composed))) / scale)

    pi_worst = 0.0
    for name in names[: min(2, len(names))]:
        variants = path_variants(model, lattice.generator(name), seed=seed)
        pi_worst = max(
            pi_worst,
            path_independence_residual(form, variants, transport(form, variants[0])),
        )
    # The target's paths and base transport serve both checks: four
    # detours for path independence, and the first three of them, which
    # path_variants draws first, for closedness.
    target = lattice.element_of(test_words[0])
    variants = path_variants(model, target, seed=seed, trials=4)
    base = transport(form, variants[0])
    pi_worst = max(pi_worst, path_independence_residual(form, variants, base))

    r = form.r
    entries = [(0, q) for q in range(r)] + [(p, p) for p in range(1, r)]
    entries += [(p, r - 1) for p in range(1, r - 1)]
    spread, mismatch = closedness_residual(form, variants[:-1], base, entries)

    demo = separation_demo(form, lattice)

    limit = tol.report_limit
    ok = (
        triangular <= limit
        and relation_worst <= limit
        and hom_worst <= limit
        and pi_worst <= limit
        and spread <= limit
        and mismatch <= limit
        and demo["displacement_norm"] <= limit
    )
    section = {
        "triangular_residual": triangular,
        "relation_residual": relation_worst,
        "generator_product_residual": hom_worst,
        "path_independence_residual": pi_worst,
        "closedness_spread": spread,
        "closedness_transport_mismatch": mismatch,
        "separation": demo,
        "ok": ok,
    }
    if form.r <= 16:
        section["generator_matrices"] = {
            name: rep.generator_matrix(name) for name in names
        }
    return section


def run_verification(problem, seed=0, depth=20):
    """Full invariant suite; returns (report dict, overall ok)."""
    tol = problem.tolerances
    alg = problem.algebra
    stages = build_stages(problem)
    nil = stages["nilradical"]
    ads = stages["semisimple"]
    split = stages["splitting"]
    env = stages["envelope"]
    form = stages["form"]
    limit = tol.report_limit

    jac = float(np.max(np.abs(_jacobi_residual(alg.structure))))
    validation = {
        "dim": alg.dim,
        "basis_names": list(alg.names),
        "derived_length": len(derived_series(alg, tol)) - 1,
        "jacobi_residual": jac,
        "ok": True,
    }

    # Sampled members of the nilradical must be ad-nilpotent, and samples
    # well outside it must not be; one stacked call checks every adjoint.
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(10):
        v = rng.standard_normal(alg.dim)
        if alg.is_complex:
            v = v + 1j * rng.standard_normal(alg.dim)
        samples.append(v)
    samples = np.array(samples, dtype=complex).T
    basis = nil.basis.astype(complex)
    adjoints, nilpotent = [], []
    if basis.shape[1]:
        adjoints += [alg.adjoint(x) for x in (basis @ (basis.conj().T @ samples)).T]
        nilpotent += [True] * samples.shape[1]
    if basis.shape[1] < alg.dim:
        far = samples[:, linalg.subspace_residuals(samples, basis) > 0.1]
        adjoints += [alg.adjoint(x) for x in far.T]
        nilpotent += [False] * far.shape[1]
    tols = np.where(nilpotent, tol.num, tol.exact)
    stack = np.array(adjoints, dtype=complex).reshape(-1, alg.dim, alg.dim)
    member_ok = bool(np.all((linalg.nilpotency_residuals(stack, tols) < tols) == nilpotent))
    nil_section = {
        "dim": int(nil.dim),
        "trace_residual": nil.trace_residual,
        "membership_sampling_ok": member_ok,
        "ok": bool(member_ok and nil.trace_residual <= limit),
    }

    semi_section = dict(ads.residuals)
    semi_section["cartan_dim"] = int(ads.cartan.shape[1])
    semi_section["condition"] = ads.condition
    semi_section["ok"] = max(ads.residuals.values()) <= limit

    split_section = {
        "shadow_class": split.shadow_class,
        "torus_dim": int(split.torus.shape[0]),
        "ok": max(split.residuals.values()) <= limit,
    }
    split_section.update(split.residuals)

    env_section = {
        "r": env.r,
        "cap": env.cap,
        "monomials": [word_label(w) for w in env.words],
        "generator_weights": [int(w) for w in env.gen_weights],
        "generator_condition": env.condition,
        "ok": max(env.residuals.values()) <= limit,
    }
    env_section.update(env.residuals)

    coeff_rows = sorted({tuple(int(v) for v in row) for row in form.char_coeffs})
    conn_section = {
        "flatness": form.flatness,
        "character_rounding": form.residuals["character_rounding"],
        "char_basis": [np.asarray(b) for b in form.char_basis],
        "coefficient_rows": [list(row) for row in coeff_rows],
        "ok": form.flatness <= limit
        and form.residuals["character_rounding"] <= tol.integer,
    }

    integral_section = _integral_section(problem, form, seed, depth)

    sections = {
        "validation": validation,
        "nilradical": nil_section,
        "semisimple_adjoint": semi_section,
        "splitting": split_section,
        "envelope": env_section,
        "connection": conn_section,
        "integrals": integral_section,
    }
    if problem.lattice is not None:
        sections["monodromy"] = _monodromy_section(problem, form, seed)

    ok = all(bool(s["ok"]) for s in sections.values())
    report = {
        "problem": problem.name,
        "spec_digest": problem.spec_digest,
        "seed": int(seed),
        "sections": sections,
        "ok": ok,
    }
    return report, ok
