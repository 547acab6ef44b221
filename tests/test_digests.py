"""Byte identity of the canonical verify report.

The sha256 digests of `solvhull verify --example NAME --seed SEED`
stdout: sol's recorded at commit fb817a9, sect4's when the pipeline
moved to the faithful quotient of the enveloping module (r 10 -> 4). A
change that alters a verify output on purpose updates the digest here
and lists the old and new values in CHANGES.md.
"""

import hashlib

import pytest

from solvhull import cli

DIGESTS = {
    ("sol", 0): "b5b6ecd6a0d57a6139640dab43c0467082dbbe427d11e023100aa2e9d4546bea",
    ("sol", 850624): "e5880f0761f5f24ff93dc8cd667d3bf5c4bdf10524ff3f18850cb749bb72df50",
    ("sol", 636961): "ca17e9957ab67549dd236191993d9a80d428e2b423430d16b7d8f60d3334fb6d",
    ("sol", 511136): "6e8fe4adc62f1e045b5c5a3ef88c930ce4072e82b048054a44aafd5c50469e71",
    ("sol", 269786): "2fa7a7665968a20abd5a037466e7735285020bf5a9cf7edecba840e0408c6a60",
    ("sect4", 0): "f9f94ef097ca890ce6c199ab0133dbfa9feafa25cdb741ba1339676ac0a8cac0",
    ("sect4", 850624): "6677efdfd7031501f328522f2b4d12bf5d22c27ff984e23b0cffc57b5078104e",
    ("sect4", 636961): "50c005d8ece9c1aef22b49b6831e65e7669334388721520adeeb4a04d23ca195",
    ("sect4", 511136): "0e29689df90862354dd06efa56ba8f3c823c0f476fbe8cdd2a4658294c21d09b",
    ("sect4", 269786): "4118ab2ac0bb48784aeb8f06b0f4508a9e694698e030a57910ba9b2d4e4696e2",
}


@pytest.mark.parametrize("example, seed", sorted(DIGESTS))
def test_verify_stdout_matches_its_recorded_digest(example, seed, capsys):
    assert cli.main(["verify", "--example", example, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[example, seed]
