"""Numeric tolerance bundle threaded through the pipeline."""

from dataclasses import dataclass

from .errors import BudgetExceeded


@dataclass(frozen=True)
class Tolerances:
    """Named tolerances used across validation and verification.

    alg controls algebraic identities on input data (Jacobi, brackets),
    num controls derived numerical checks (representations, transports),
    the radius within which the bracket table counts two torus characters
    as the same (char_match) and the size below which a character
    component is snapped to zero (char_snap),
    exact controls identities that hold to rounding error by construction,
    integer controls lattice membership rounding for characters,
    cluster_scale sets the relative eigenvalue clustering width.
    """

    alg: float = 1e-9
    num: float = 1e-8
    exact: float = 1e-10
    integer: float = 1e-6
    cluster_scale: float = 1e-7

    def check(self, stage, residuals, budget=None):
        """Raise BudgetExceeded for the first residual not within budget.

        budget defaults to stage_budget. The test is `not value <= budget`,
        so a NaN residual fails.
        """
        if budget is None:
            budget = self.stage_budget
        for key, value in residuals.items():
            if not value <= budget:
                raise BudgetExceeded(stage, key, value, budget)

    @property
    def stage_budget(self):
        """Largest residual a build stage may leave before it raises."""
        return 1e3 * self.num

    @property
    def report_limit(self):
        """Largest residual a verification report still counts as ok."""
        return 100 * self.num

    @property
    def char_match(self):
        """Distance within which the bracket table counts two characters as the same."""
        return 100 * self.num

    @property
    def char_snap(self):
        """Size below which a component of a torus character is set to zero."""
        return self.num / 10


DEFAULT = Tolerances()
