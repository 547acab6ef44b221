"""Semisimple splitting of a solvable algebra.

The splitting replaces the original bracket with its nilpotent shadow,
obtained by subtracting the semisimple adjoint action, and keeps that
semisimple action around as an abelian algebra of derivations. The
original algebra embeds in the semidirect product of the two, pairing
each element with its semisimple adjoint part.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import (
    LieAlgebra,
    SemisimpleAdjoint,
    _canon_basis,
    _derivation_residual,
    lower_central_series,
    nilradical,
    semisimple_adjoint,
    validate_algebra,
)
from .errors import SolvHullError
from .tolerances import DEFAULT


@dataclass(frozen=True)
class SplitAlgebra:
    """Nilpotent shadow plus the abelian torus acting on it.

    shadow shares the vector space of base but carries the modified
    bracket. torus[b] are matrices acting on shadow coordinates;
    torus_coords expresses each basis vector's semisimple adjoint in the
    torus basis, so column i gives the torus component of basis vector i
    under the embedding x -> (torus part, shadow part).
    """

    base: LieAlgebra
    semisimple: SemisimpleAdjoint
    shadow: LieAlgebra
    shadow_series: tuple = field(repr=False)
    shadow_class: int
    torus: np.ndarray = field(repr=False)
    torus_coords: np.ndarray = field(repr=False)
    residuals: dict

    @property
    def dim(self):
        return self.base.dim

    def torus_part(self, x):
        """Torus coordinates of the embedded image of x."""
        return self.torus_coords @ np.asarray(x)

    def torus_matrix(self, x):
        """Semisimple derivation attached to x, as a matrix on shadow coords."""
        return self.semisimple.apply(x)


def _shadow_table(alg, ads_tensor):
    """Structure constants of the nilpotent shadow bracket.

    The raw table is antisymmetrized by averaging, which is exact in
    floating point and guarantees the table-level symmetry the validator
    requires.
    """
    c = alg.structure
    n = alg.dim
    raw = np.array(c, dtype=ads_tensor.dtype, copy=True)
    for i in range(n):
        for j in range(n):
            raw[i, j, :] = raw[i, j, :] - ads_tensor[i][:, j] + ads_tensor[j][:, i]
    return (raw - np.swapaxes(raw, 0, 1)) / 2.0


def build_splitting(alg, semisimple=None, nilrad=None, tolerances=DEFAULT):
    """Construct the semisimple splitting of a validated solvable algebra."""
    if nilrad is None:
        nilrad = nilradical(alg, tolerances)
    if semisimple is None:
        semisimple = semisimple_adjoint(alg, nilrad, tolerances)
    tensor = semisimple.tensor
    n = alg.dim

    table = _shadow_table(alg, tensor)
    shadow = validate_algebra(table, names=alg.names, tolerances=tolerances)
    series = lower_central_series(shadow, tolerances)
    shadow_class = len(series) - 1

    # Torus: canonical basis of the span of the semisimple adjoints.
    flat = np.stack([tensor[i].ravel() for i in range(n)], axis=1)
    span = _canon_basis(flat, alg.is_complex, tolerances.alg)
    t_dim = span.shape[1]
    torus = np.stack(
        [span[:, b].reshape(n, n) for b in range(t_dim)], axis=0
    ) if t_dim else np.zeros((0, n, n), dtype=span.dtype)

    coords, *_ = np.linalg.lstsq(
        span if t_dim else span.reshape(n * n, 0), flat, rcond=None
    )
    coord_resid = (
        float(np.max(np.abs(span @ coords - flat))) if t_dim else float(np.max(np.abs(flat)))
    ) if flat.size else 0.0

    residuals = dict(semisimple.residuals)
    residuals["torus_coordinates"] = coord_resid

    # Each torus element must be a derivation of the shadow bracket.
    residuals["torus_derivation"] = _derivation_residual(torus, shadow.structure)

    # Torus must preserve every step of the shadow's lower central series.
    lcs_resid = 0.0
    for b in range(t_dim):
        for step in series[1:]:
            if step.shape[1] == 0:
                continue
            image = torus[b] @ step
            lcs_resid = max(lcs_resid, linalg.subspace_residual(image, step))
    residuals["torus_preserves_series"] = lcs_resid

    worst = max(residuals.values()) if residuals else 0.0
    if not worst <= tolerances.stage_budget:
        raise SolvHullError(f"splitting residual {worst:.3e} exceeds tolerance budget")

    return SplitAlgebra(
        base=alg,
        semisimple=semisimple,
        shadow=shadow,
        shadow_series=tuple(series),
        shadow_class=shadow_class,
        torus=torus,
        torus_coords=coords,
        residuals=residuals,
    )
