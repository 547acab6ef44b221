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
    _scaled_jacobi,
    lower_central_series,
    nilradical,
    semisimple_adjoint,
)
from .errors import NotNilpotent
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


def _shadow_table(alg, ads_tensor):
    """Structure constants of the nilpotent shadow bracket.

    The raw table is antisymmetrized by averaging, which is exact in
    floating point, so the table is antisymmetric entry for entry.
    """
    # raw[i, j] = [e_i, e_j] - ads(e_i) e_j + ads(e_j) e_i.
    raw = (
        alg.structure.astype(ads_tensor.dtype)
        - np.swapaxes(ads_tensor, 1, 2)
        + np.transpose(ads_tensor, (2, 0, 1))
    )
    return (raw - np.swapaxes(raw, 0, 1)) / 2.0


def build_splitting(alg, semisimple=None, nilrad=None, tolerances=DEFAULT):
    """Construct the semisimple splitting of a validated solvable algebra."""
    if nilrad is None:
        nilrad = nilradical(alg, tolerances)
    if semisimple is None:
        semisimple = semisimple_adjoint(alg, nilrad, tolerances)
    tensor = semisimple.tensor
    n = alg.dim

    # The shadow is a Lie algebra by construction, so a Jacobi defect is
    # rounding in this stage, not a fault of the input.
    table = _shadow_table(alg, tensor)
    _, jacobi = _scaled_jacobi(table)
    tolerances.check("splitting", {"shadow_jacobi": jacobi}, tolerances.alg)
    table.flags.writeable = False
    shadow = LieAlgebra(structure=table, names=alg.names)
    try:
        series = lower_central_series(shadow, tolerances)
    except NotNilpotent as err:
        raise NotNilpotent(f"splitting: shadow {err}") from err
    shadow_class = len(series) - 1

    # Torus: canonical basis of the span of the semisimple adjoints.
    flat = np.stack([tensor[i].ravel() for i in range(n)], axis=1)
    span = _canon_basis(flat, alg.is_complex, tolerances, "splitting")
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

    tolerances.check("splitting", residuals)

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
