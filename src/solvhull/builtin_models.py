"""Built in example problems with group models and lattices.

sol: three dimensional completely solvable group, the mapping torus of a
hyperbolic integer matrix acting on the plane. The lattice is generated
by the time step and the integer translations, written in the eigenbasis
of the action so the fiber matrices are diagonal.

sect4: one real time direction acting on a two dimensional complex fiber
through a non semisimple matrix with purely imaginary spectrum. The time
two step acts unipotently, and the lattice combines it with the Gaussian
integer translations of the fiber.
"""

import numpy as np

from .errors import UnknownName
from .specfile import parse_problem

_PI = float(np.pi)


def sol_spec():
    """Raw problem dict for the hyperbolic mapping torus example."""
    s5 = float(np.sqrt(5.0))
    lam_plus = (3.0 + s5) / 2.0
    lam_minus = (3.0 - s5) / 2.0
    t0 = float(np.log(lam_plus))
    # Integer translations (1, 0) and (0, 1) in eigenbasis coordinates of
    # [[2, 1], [1, 1]]; conjugation by the time step multiplies the
    # coordinates by the eigenvalues.
    b1 = ((2.0 - lam_minus) / s5, (lam_plus - 2.0) / s5)
    b2 = (1.0 / s5, -1.0 / s5)
    return {
        "name": "sol",
        "basis_names": ["T", "X", "Y"],
        "structure": [
            [0, 1, 1, 1.0, 0.0],
            [0, 2, 2, -1.0, 0.0],
        ],
        "model": {
            "translation_dim": 1,
            "fiber_mats": [
                [
                    [[1.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [-1.0, 0.0]],
                ]
            ],
            "lattice": {
                "generators": {
                    "a": {"translation": [t0], "fiber": [[0.0, 0.0], [0.0, 0.0]]},
                    "b1": {
                        "translation": [0.0],
                        "fiber": [[b1[0], 0.0], [b1[1], 0.0]],
                    },
                    "b2": {
                        "translation": [0.0],
                        "fiber": [[b2[0], 0.0], [b2[1], 0.0]],
                    },
                },
                "relations": [
                    ["a b1 a^-1", "b1^2 b2"],
                    ["a b2 a^-1", "b1 b2"],
                    ["b1 b2 b1^-1 b2^-1", ""],
                ],
            },
        },
    }


def sect4_spec():
    """Raw problem dict for the unipotent time step example."""
    return {
        "name": "sect4",
        "basis_names": ["T", "Z1", "Z2"],
        "structure": [
            [0, 1, 1, 0.0, _PI],
            [0, 2, 1, 1.0, 0.0],
            [0, 2, 2, 0.0, _PI],
        ],
        "model": {
            "translation_dim": 1,
            "fiber_mats": [
                [
                    [[0.0, _PI], [1.0, 0.0]],
                    [[0.0, 0.0], [0.0, _PI]],
                ]
            ],
            "lattice": {
                "generators": {
                    "c": {"translation": [2.0], "fiber": [[0.0, 0.0], [0.0, 0.0]]},
                    "g1": {"translation": [0.0], "fiber": [[1.0, 0.0], [0.0, 0.0]]},
                    "g2": {"translation": [0.0], "fiber": [[0.0, 1.0], [0.0, 0.0]]},
                    "g3": {"translation": [0.0], "fiber": [[0.0, 0.0], [1.0, 0.0]]},
                    "g4": {"translation": [0.0], "fiber": [[0.0, 0.0], [0.0, 1.0]]},
                },
                "relations": [
                    ["c g1 c^-1", "g1"],
                    ["c g2 c^-1", "g2"],
                    ["c g3 c^-1", "g1^2 g3"],
                    ["c g4 c^-1", "g2^2 g4"],
                    ["g1 g3 g1^-1 g3^-1", ""],
                ],
            },
        },
    }


BUILTINS = {
    "sol": sol_spec,
    "sect4": sect4_spec,
}


def builtin_problem(name, tolerances=None):
    """Parse one of the built in problems by name."""
    if name not in BUILTINS:
        raise UnknownName(f"unknown builtin {name!r}, available: {sorted(BUILTINS)}")
    return parse_problem(BUILTINS[name](), tolerances=tolerances)
