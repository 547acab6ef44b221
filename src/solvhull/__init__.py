"""Triangular hull representations for solvable Lie groups.

Build pipeline: validate structure constants, extract the nilradical,
split every adjoint operator into commuting semisimple and nilpotent
parts, assemble the semisimple splitting (a torus acting on a nilpotent
shadow algebra), truncate the shadow's enveloping algebra to a strictly
triangular module, keep its smallest faithful quotient, and read off
the flat connection form whose diagonal is integral in a small
character lattice.  On top of that sit Chen
iterated integrals, exponential iterated integrals, and lattice
monodromy with closedness cross checks.
"""

from .algebra import (
    LieAlgebra,
    NilradicalResult,
    SemisimpleAdjoint,
    derived_series,
    lower_central_series,
    nilradical,
    restricted_structure,
    semisimple_adjoint,
    validate_algebra,
)
from .builtin_models import BUILTINS, builtin_problem, sect4_spec, sol_spec
from .connection import ConnectionForm, build_connection_form, integer_lattice_basis
from .envelope import EnvelopingTruncation, build_enveloping_rep, faithful_quotient
from .errors import (
    AntisymmetryViolation,
    BudgetExceeded,
    CartanNotFound,
    EndpointMismatch,
    JacobiViolation,
    NotInLattice,
    NotNilpotent,
    NotSolvable,
    SolvHullError,
    SpecFileError,
    TruncationOverflow,
    UnknownName,
    ValidationError,
)
from .groups import GroupElement, Lattice, SemidirectModel, parse_word
from .integrals import (
    IntegralWord,
    SeriesResult,
    exp_iterated_integral,
    exp_iterated_integral_series,
    iterated_integral,
    iterated_integral_quadrature,
    shuffle_identity_residual,
    shuffle_words,
    transport,
    transport_series,
)
from .monodromy import (
    MonodromyRep,
    build_monodromy_rep,
    closedness_residual,
    entry_chain_value,
    entry_chains,
    monodromy,
    path_independence_residual,
    path_variants,
    separation_demo,
    word_monodromy,
)
from .paths import PathWord
from .report import canonical_json, digest
from .specfile import Problem, parse_problem
from .splitting import SplitAlgebra, build_splitting
from .tolerances import DEFAULT, Tolerances
from .verify import build_stages, run_verification

__version__ = "0.1.0"

__all__ = [
    "AntisymmetryViolation",
    "BUILTINS",
    "BudgetExceeded",
    "CartanNotFound",
    "ConnectionForm",
    "DEFAULT",
    "EndpointMismatch",
    "EnvelopingTruncation",
    "GroupElement",
    "IntegralWord",
    "JacobiViolation",
    "Lattice",
    "LieAlgebra",
    "MonodromyRep",
    "NilradicalResult",
    "NotInLattice",
    "NotNilpotent",
    "NotSolvable",
    "PathWord",
    "Problem",
    "SemidirectModel",
    "SemisimpleAdjoint",
    "SeriesResult",
    "SolvHullError",
    "SpecFileError",
    "SplitAlgebra",
    "Tolerances",
    "TruncationOverflow",
    "UnknownName",
    "ValidationError",
    "build_connection_form",
    "build_enveloping_rep",
    "build_monodromy_rep",
    "build_splitting",
    "build_stages",
    "builtin_problem",
    "canonical_json",
    "closedness_residual",
    "derived_series",
    "digest",
    "entry_chain_value",
    "entry_chains",
    "exp_iterated_integral",
    "exp_iterated_integral_series",
    "faithful_quotient",
    "integer_lattice_basis",
    "iterated_integral",
    "iterated_integral_quadrature",
    "lower_central_series",
    "monodromy",
    "nilradical",
    "parse_problem",
    "parse_word",
    "path_independence_residual",
    "path_variants",
    "restricted_structure",
    "run_verification",
    "sect4_spec",
    "semisimple_adjoint",
    "separation_demo",
    "shuffle_identity_residual",
    "shuffle_words",
    "sol_spec",
    "transport",
    "transport_series",
    "validate_algebra",
    "word_monodromy",
]
