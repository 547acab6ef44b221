"""Byte identity of the canonical verify report.

The sha256 digests of `solvhull verify --example NAME --seed SEED`
stdout, recorded when the matrix exponential and the ordered Schur
subspaces moved from scipy to numpy, which moved residuals, the two
separation distances and four entries of sol's generator matrices by
rounding. sol's were recorded again when exactly real kernel input
moved to float64 arithmetic, which moved its shuffle_residual and
quadrature_diff by rounding; sect4 takes the complex route and kept its
digests. A change that alters a verify output on purpose updates the
digest here and lists the old and new values in CHANGES.md.
"""

import hashlib

import pytest

from solvhull import cli

DIGESTS = {
    ("sol", 0): "1b6b2b6a581c59e46b493318b9b12fe594662ea963f021bdbdc46268e9e80d42",
    ("sol", 850624): "be7f678e9ccb2303e2257fb0992919588802482e7697f725e2562fb6ebdb8c3a",
    ("sol", 636961): "ccf668261b5e14b09702c16b769482d1e44b0b37526ffbc99af07905a996e041",
    ("sol", 511136): "1a1d22ba1c2ccf34e0fabea2c4105c55cc93e7e1987b69c82a6088fbf318f3d4",
    ("sol", 269786): "2982f6f9ec11021ecbf3f4c555d98666c700be556e6b190e495b947c3eff97a0",
    ("sect4", 0): "c75b88a821292f002963d8f217f905a6a8f1b81fc78bd76e0f2e78ebeaec6a95",
    ("sect4", 850624): "819139eaba784ec8c37634544cad11d72495281aafcb91e8bfd7b49ebd455cb0",
    ("sect4", 636961): "0b8bc148fe0021c9a19c25c42e5802121e483b9afe0d3db51c9b67539fef6344",
    ("sect4", 511136): "fbd75f17e29453c4fbee0a3ab41cd18ba46ed7d0a1772eadd33e6ab09f419a22",
    ("sect4", 269786): "4ba880a33b39dda29bcb386f9355260e7894fd8d32b4d94a972e181a67d7ce37",
}


@pytest.mark.parametrize("example, seed", sorted(DIGESTS))
def test_verify_stdout_matches_its_recorded_digest(example, seed, capsys):
    assert cli.main(["verify", "--example", example, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[example, seed]
