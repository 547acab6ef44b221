"""Byte identity of the canonical verify report.

The sha256 digests of `solvhull verify --example NAME --seed SEED`
stdout, recorded when the matrix exponential and the ordered Schur
subspaces moved from scipy to numpy, which moved residuals, the two
separation distances and four entries of sol's generator matrices by
rounding. A change that alters a verify output on purpose updates the
digest here and lists the old and new values in CHANGES.md.
"""

import hashlib

import pytest

from solvhull import cli

DIGESTS = {
    ("sol", 0): "485e12e0650f17dd20b2b50c6b50566e5a1771b186366729c6f4ac908e31353e",
    ("sol", 850624): "f8de10f5ef77b75294fe31c6e3616a990d5a1dad0350bf6d9aa3e569bd282181",
    ("sol", 636961): "4ce0a22da796a876dde84dc78a12096d4fc1eebf8978a2fd85cdb9931c0bbac1",
    ("sol", 511136): "e1a2391af50730d1f8be91fd04d17b09386f304f31d2861d8b9f69a0d6d9f9ec",
    ("sol", 269786): "f19e7866983a6b82220c6d86aedb03a995627cbca042e67fcfe1cafac321dc10",
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
