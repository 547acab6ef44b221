"""Byte identity of the canonical verify report.

The sha256 digests of `solvhull verify --example NAME --seed SEED`
stdout, recorded at commit fb817a9. A change that alters a verify
output on purpose updates the digest here and lists the old and new
values in CHANGES.md.
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
    ("sect4", 0): "7e701ed120072b5faf7af7451f2de1e3b792af7bab5bbaa267956852bde1d6a5",
    ("sect4", 850624): "dc1beef8f5c4ba148f12335b657b9646f1a361ccd1d02c21ce847bced4b7a0b0",
    ("sect4", 636961): "a4f6b34072b64daafe6fa78ba4aead5dbb61d9fe4cc3f60b9e9893739c66df80",
    ("sect4", 511136): "a24cfe591fbf1e6e2a1250d2b9898b7aa91e8faf8195b81bea5124eb188a48e0",
    ("sect4", 269786): "153c529335a53f8a5ce7bfea497dbfa7da91406a782826b2bb076a4bc89751b1",
}


@pytest.mark.parametrize("example, seed", sorted(DIGESTS))
def test_verify_stdout_matches_its_recorded_digest(example, seed, capsys):
    assert cli.main(["verify", "--example", example, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[example, seed]
