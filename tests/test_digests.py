"""Byte identity of the canonical verify report.

The sha256 digests of `solvhull verify --example NAME --seed SEED`
stdout, recorded when the matrix exponential and the ordered Schur
subspaces moved from scipy to numpy, which moved residuals, the two
separation distances and four entries of sol's generator matrices by
rounding. sol's were recorded again when exactly real kernel input
moved to float64 arithmetic, which moved its shuffle_residual and
quadrature_diff by rounding; sect4 takes the complex route and kept its
digests. sect4's were recorded again, at four of the five seeds, when
each shuffle check became one kernel call, which moved its
shuffle_residual by rounding (at most 8.4e-18); sol's did not move, and
neither did the closedness keys. A change that alters a verify output on purpose updates the
digest here and lists the old and new values in CHANGES.md.

The evaluation outputs the filiform-eval benchmark times are pinned the
same way, on the rank 6 graded filiform form (r = 96): for two seeded
4-segment real paths, the transport, the depth 20 series value and tail
bound, and the chain sum of every last-column entry.
"""

import hashlib

import numpy as np
import pytest

from solvhull import cli, entry_chain_value, transport, transport_series
from solvhull.verify import _random_path

DIGESTS = {
    ("sol", 0): "1b6b2b6a581c59e46b493318b9b12fe594662ea963f021bdbdc46268e9e80d42",
    ("sol", 850624): "be7f678e9ccb2303e2257fb0992919588802482e7697f725e2562fb6ebdb8c3a",
    ("sol", 636961): "ccf668261b5e14b09702c16b769482d1e44b0b37526ffbc99af07905a996e041",
    ("sol", 511136): "1a1d22ba1c2ccf34e0fabea2c4105c55cc93e7e1987b69c82a6088fbf318f3d4",
    ("sol", 269786): "2982f6f9ec11021ecbf3f4c555d98666c700be556e6b190e495b947c3eff97a0",
    ("sect4", 0): "36aa0c49e6f778c6fc061bf758b920260e1b33205e0e8405fd630a97a2fb68a8",
    ("sect4", 850624): "96719f3c5474b00bcb2779d55f18f151346f8628275b1ae2922a3fb8a2ec395d",
    ("sect4", 636961): "0e78a73faf5feb01237efb7ccbd7faee1a84da698405797e74205137b3b46e26",
    ("sect4", 511136): "fbd75f17e29453c4fbee0a3ab41cd18ba46ed7d0a1772eadd33e6ab09f419a22",
    ("sect4", 269786): "736a278bc898ee1e509e57566725f7c98788090e48062fde79a609377b94c1e9",
}


@pytest.mark.parametrize("example, seed", sorted(DIGESTS))
def test_verify_stdout_matches_its_recorded_digest(example, seed, capsys):
    assert cli.main(["verify", "--example", example, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[example, seed]


FILIFORM_EVAL_DIGEST = "9e7a46e7e3a0548af479a1d6e49ae8079645a4585a7cbcb77c42b003c8c28175"


def filiform_eval_digest(form, seed=0):
    """sha256 of the transport, series and last-column chain sums on two seeded paths."""
    rng = np.random.default_rng(seed)
    paths = [_random_path(rng, form.dim, 4, False, 3.0, form) for _ in range(2)]
    digest = hashlib.sha256()
    for path in paths:
        series = transport_series(form, path, 20)
        chains = [entry_chain_value(form, path, p, form.r - 1) for p in range(form.r)]
        for a in (transport(form, path), series.value, np.float64(series.tail_bound), np.array(chains)):
            digest.update(a.tobytes())
    return digest.hexdigest()


def test_filiform_eval_outputs_match_their_recorded_digest(filiform_forms):
    form = filiform_forms[6]
    assert form.r == 96 and form.omega.dtype == float
    assert filiform_eval_digest(form) == FILIFORM_EVAL_DIGEST
