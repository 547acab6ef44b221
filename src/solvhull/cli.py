"""Command line interface.

Subcommands cover the pipeline at increasing depth: analyze stops at the
semisimple splitting and reports the algebra level invariants, hull
builds the triangular representation, monodromy and integrate evaluate
transports along lattice words or explicit paths, and verify runs the
whole deterministic invariant suite and emits a canonical JSON report.

Exit codes: 0 success, 1 invariant or internal failure, 2 input
validation failure, 3 resource cap exceeded, 4 loop endpoint mismatch.
"""

import argparse
import functools
import sys
import time

import numpy as np

from .algebra import nilradical, semisimple_adjoint
from .builtin_models import BUILTINS
from .envelope import word_label
from .errors import (
    EndpointMismatch,
    SolvHullError,
    TruncationOverflow,
    ValidationError,
)
from .groups import parse_word
from .integrals import transport, transport_series
from .monodromy import path_independence_residual, path_variants, word_monodromy
from .report import canonical_json, digest
from .specfile import parse_path_file, parse_problem, parse_tolerances, spec_data
from .splitting import build_splitting
from .verify import build_stages, run_verification

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_ENDPOINT = 4


def _load_problem(args):
    """Problem of --example or --spec; each --tol-* flag replaces its own tolerance."""
    if getattr(args, "example", None):
        data = BUILTINS[args.example]()
    elif getattr(args, "spec", None):
        data = spec_data(args.spec)
    else:
        raise ValidationError("provide either --example or --spec")
    given = {name: getattr(args, f"tol_{name}") for name in ("alg", "num", "exact", "integer")}
    given = {k: v for k, v in given.items() if v is not None}
    return parse_problem(data, tolerances=parse_tolerances(data.get("tolerances"), **given))


def cmd_analyze(args):
    problem = _load_problem(args)
    alg = problem.algebra
    tol = problem.tolerances
    nil = nilradical(alg, tol)
    ads = semisimple_adjoint(alg, nil, tol)
    split = build_splitting(alg, semisimple=ads, nilrad=nil, tolerances=tol)
    payload = {
        "problem": problem.name,
        "dim": alg.dim,
        "basis_names": list(alg.names),
        "nilradical_dim": int(nil.dim),
        "nilradical_basis": nil.basis,
        "cartan_dim": int(ads.cartan.shape[1]),
        "shadow_class": split.shadow_class,
        "torus_dim": int(split.torus.shape[0]),
        "residuals": split.residuals,
    }
    if args.json:
        print(canonical_json(payload))
    else:
        print(f"problem: {problem.name}")
        print(f"dimension: {alg.dim}  basis: {' '.join(alg.names)}")
        print(f"nilradical dimension: {nil.dim}")
        print(f"cartan dimension: {ads.cartan.shape[1]}")
        print(f"shadow nilpotency class: {split.shadow_class}")
        print(f"torus dimension: {split.torus.shape[0]}")
        worst = max(payload["residuals"].values())
        print(f"worst residual: {worst:.3e}")
    return EXIT_OK


def cmd_hull(args):
    problem = _load_problem(args)
    stages = build_stages(problem)
    env = stages["envelope"]
    form = stages["form"]
    monomials = [word_label(w) for w in env.words]
    payload = {
        "problem": problem.name,
        "module_dimension": env.r,
        "truncation_cap": env.cap,
        "monomials": monomials,
        "generator_weights": [int(x) for x in env.gen_weights],
        "flatness": form.flatness,
        "char_basis": [np.asarray(b) for b in form.char_basis],
        "char_coefficients": form.char_coeffs,
    }
    if args.json:
        print(canonical_json(payload))
    else:
        print(f"problem: {problem.name}")
        print(f"module dimension: {env.r} (cap {env.cap})")
        print(f"monomial order: {' > '.join(monomials)}")
        print(f"flatness residual: {form.flatness:.3e}")
        print(f"character basis size: {len(form.char_basis)}")
        for i, b in enumerate(form.char_basis):
            print(f"  basis[{i}] = {np.array2string(np.asarray(b), precision=6)}")
        rows = sorted({tuple(int(v) for v in row) for row in form.char_coeffs})
        print(f"integer coefficient rows: {rows}")
    return EXIT_OK


def cmd_monodromy(args):
    problem = _load_problem(args)
    if problem.lattice is None:
        raise ValidationError("this problem has no lattice")
    stages = build_stages(problem)
    form = stages["form"]
    word = parse_word(args.word)
    rho = word_monodromy(form, problem.lattice, word)
    target = problem.lattice.element_of(word)
    variants = path_variants(problem.model, target, seed=args.seed)
    pi = path_independence_residual(form, variants, transport(form, variants[0]))
    payload = {
        "problem": problem.name,
        "word": args.word,
        "monodromy": rho,
        "path_independence_residual": pi,
        "endpoint_translation": target.t,
        "endpoint_fiber": target.v,
    }
    if args.json:
        print(canonical_json(payload))
    else:
        print(f"word: {args.word}")
        print(f"endpoint translation: {tuple(target.t.tolist())}")
        print(f"endpoint fiber: {tuple(target.v.tolist())}")
        print("monodromy matrix:")
        print(np.array2string(rho, precision=8, suppress_small=True))
        print(f"path independence residual: {pi:.3e}")
    return EXIT_OK


def cmd_integrate(args):
    problem = _load_problem(args)
    stages = build_stages(problem)
    form = stages["form"]
    if args.word:
        if problem.lattice is None:
            raise ValidationError("--word needs a lattice")
        path = problem.lattice.path_of(parse_word(args.word))
    elif args.path:
        path = parse_path_file(args.path, problem.algebra.dim)
    else:
        raise ValidationError("provide --word or --path")
    full = transport(form, path)
    series = transport_series(form, path, args.depth)
    diff = float(np.max(np.abs(full - series.value)))
    payload = {
        "problem": problem.name,
        "transport": full,
        "series_depth": args.depth,
        "series_tail_bound": series.tail_bound,
        "series_agreement": diff,
        "series_within_bound": bool(diff <= series.tail_bound),
    }
    if args.json:
        print(canonical_json(payload))
    else:
        print("transport matrix:")
        print(np.array2string(full, precision=8, suppress_small=True))
        print(
            f"series at depth {args.depth}: agreement {diff:.3e}, tail bound {series.tail_bound:.3e}"
        )
    if diff > series.tail_bound:
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_verify(args):
    problem = _load_problem(args)
    started = time.monotonic()
    report, ok = run_verification(problem, seed=args.seed, depth=args.depth)
    text = canonical_json(report)
    elapsed = time.monotonic() - started
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    print(f"verify runtime: {elapsed:.2f}s digest: {digest(text)}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_INVARIANT


def nonnegative_int(text):
    """Type of --seed and --depth; argparse names the flag and exits 2 on a ValueError."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="solvhull",
        description="Triangular hull representations and exponential iterated integrals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--example", choices=sorted(BUILTINS), help="builtin problem")
        p.add_argument("--spec", help="path to a problem JSON file")
        p.add_argument("--seed", type=nonnegative_int, default=0, help="seed for sampled checks")
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        p.add_argument("--tol-alg", type=float, default=None, dest="tol_alg")
        p.add_argument("--tol-num", type=float, default=None, dest="tol_num")
        p.add_argument("--tol-exact", type=float, default=None, dest="tol_exact")
        p.add_argument("--tol-integer", type=float, default=None, dest="tol_integer")

    p = sub.add_parser("analyze", help="algebra level invariants")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("hull", help="build the triangular representation")
    common(p)
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("monodromy", help="monodromy of a lattice word")
    common(p)
    p.add_argument("--word", required=True, help="lattice word, e.g. 'a b1 a^-1'")
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("integrate", help="transport along a word or explicit path")
    common(p)
    p.add_argument("--word", help="lattice word")
    p.add_argument("--path", help="JSON file with a segments list")
    p.add_argument("--depth", type=nonnegative_int, default=20, help="series truncation depth")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("verify", help="full deterministic invariant suite")
    common(p)
    p.add_argument("--depth", type=nonnegative_int, default=20, help="series truncation depth")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser():
    """The parser of main, built on its first call; parse_args returns a fresh namespace."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except TruncationOverflow as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except EndpointMismatch as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ENDPOINT
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolvHullError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
