"""Exception types raised by the library.

Every failure that a caller can meaningfully react to gets its own class;
the CLI maps these onto process exit codes. ValidationError and its
subclasses mean the input is bad; every other SolvHullError is an
invariant or internal failure. A build stage whose residual breaks its
budget raises BudgetExceeded, which names the stage, the residual and the
budget.
"""


class SolvHullError(Exception):
    """Base class for all library errors."""


class ValidationError(SolvHullError):
    """Input data failed structural validation."""


class AntisymmetryViolation(ValidationError):
    """Structure constants are not antisymmetric in the first two slots."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"antisymmetry violated at entry {index}")


class JacobiViolation(ValidationError):
    """The Jacobi identity fails for some basis triple."""

    def __init__(self, triple, residual, residual_vector=None):
        self.triple = triple
        self.residual = residual
        self.residual_vector = residual_vector
        super().__init__(
            f"Jacobi identity fails on basis triple {triple}: residual {residual:.3e}"
        )


class UnknownName(ValidationError, KeyError):
    """A generator or builtin problem was asked for by a name it does not have.

    It is a KeyError as well, for lookups that catch one, but prints its
    message without the quotes that KeyError adds.
    """

    __str__ = Exception.__str__


class NotSolvable(ValidationError):
    """The derived series does not terminate at zero."""


class BudgetExceeded(SolvHullError):
    """A build stage left a residual that is not within its budget."""

    def __init__(self, stage, key, value, budget):
        self.stage = stage
        self.key = key
        self.value = value
        self.budget = budget
        super().__init__(
            f"{stage}: residual {key} = {value:.3e} exceeds budget {budget:.3e}"
        )


class CartanNotFound(SolvHullError):
    """No candidate element gave a Cartan subalgebra.

    rejected counts the candidates by the reason each one failed.
    """

    def __init__(self, stage, rejected):
        self.stage = stage
        self.rejected = dict(rejected)
        self.tried = sum(self.rejected.values())
        reasons = ", ".join(f"{why}: {count}" for why, count in sorted(self.rejected.items()))
        super().__init__(
            f"{stage}: no Cartan subalgebra found among {self.tried} deterministic "
            f"candidates ({reasons})"
        )


class NotNilpotent(SolvHullError):
    """The lower central series does not terminate at zero."""


class TruncationOverflow(SolvHullError):
    """The truncated enveloping module exceeds the configured size cap."""

    def __init__(self, size, cap):
        self.size = size
        self.cap = cap
        super().__init__(f"truncated module dimension {size} exceeds cap {cap}")


class NotInLattice(SolvHullError):
    """A diagonal character is not an integer combination of the basis."""

    def __init__(self, residual, tolerance):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"character rounding residual {residual:.3e} exceeds {tolerance:.3e}"
        )


class EndpointMismatch(SolvHullError):
    """A constructed loop word does not reach the requested group element."""

    def __init__(self, deviation, tolerance):
        self.deviation = deviation
        self.tolerance = tolerance
        super().__init__(
            f"loop endpoint deviates by {deviation:.3e} (tolerance {tolerance:.3e})"
        )


class SpecFileError(ValidationError):
    """A problem spec file is malformed."""
