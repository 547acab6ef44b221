"""Byte identity of the canonical verify report.

The sha256 digests of `solvhull verify --example NAME --seed SEED`
stdout, recorded when the envelope section lost its "mode" key (the
module is always truncated by series weight). A change that alters a
verify output on purpose updates the digest here and lists the old and
new values in CHANGES.md.
"""

import hashlib

import pytest

from solvhull import cli

DIGESTS = {
    ("sol", 0): "979c0ed3f7531327216eeb6e57fbf83b010af3cf41817869c2ffd420ccee81f4",
    ("sol", 850624): "f541de5e62c7c1e9f133918c5fe75000f2ac3614c468d98455aa962849b2416b",
    ("sol", 636961): "50fa79ae6ed377d65656241e7d6f8b3599cedbe9e11221babd5e51af718f8cf9",
    ("sol", 511136): "0f1097df0565a5b9ae8ad6fd3f0445728692a9222560ea1a10aa8f387322653a",
    ("sol", 269786): "bed4280e0382838dddca9ddb06b746142bfaf593bcfffff2b378ad81dc91ed0c",
    ("sect4", 0): "a978c3d083444e7595e8657b54bed11a9813e58006159f6270fc32a650626b5c",
    ("sect4", 850624): "eb81cb43eaa8ee29cb34fdb9bfffccc69ec8de84496b09185a287dd1a56fa3dc",
    ("sect4", 636961): "cca0b673ad54ab8515e086e523c04fe7dd05d90a42caea0c50a61348b05e9451",
    ("sect4", 511136): "fb98c8bb78dc8c8e4905dad91eea5d4e19b9fe2ae5e37f2ad433a2098db335db",
    ("sect4", 269786): "df21f0ccd334a0640a5a85aa9e7df4b8119b76294cab52a598e507702283c443",
}


@pytest.mark.parametrize("example, seed", sorted(DIGESTS))
def test_verify_stdout_matches_its_recorded_digest(example, seed, capsys):
    assert cli.main(["verify", "--example", example, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[example, seed]
