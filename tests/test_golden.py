"""Golden JSON reports: SHA-256 and exit code of `--format json` runs.

The hashes were recorded before identity testing moved to compiled
projective evaluation.  The sampled points are the same, so every verdict,
witness and byte of output must be the same; the `--no-constraint` runs
fail with witnesses.
"""

import contextlib
import hashlib
import io

import pytest

import qpweyl.cli as cli

GOLDEN = [
    ("verify-relations --family D5 --seed 0 --format json", 0,
     "77881c7dcd37fef0300f01601e8560304a92b0c8a91b09b3d677e7b0965e7cf1"),
    ("verify-theorem --family D5 --seed 0 --format json", 0,
     "6682ef741589a370fd997dc46b2c150de0f30e0c53d96443987b4cece8a4faae"),
    ("verify-gauge --family D5 --seed 0 --format json", 0,
     "d881083e9ff7df28c60541221ea4a5d7e795b2025e3ec3928fd0e86af503ccc9"),
    ("verify-theorem --no-constraint --family D5 --seed 0 --format json", 1,
     "6afa3dd81d39100b06f530a0ce536398a7087e341fcd1da5c32934f35b0168a8"),
    ("verify-relations --family D5 --seed 7 --format json", 0,
     "eef8cf80bee039b6d3516c0ebb7343b3902ebb74dcfcb75eea8ae1a125a75297"),
    ("verify-theorem --family D5 --seed 7 --format json", 0,
     "61e5d8a0732a2cd2de0ade1137c7aec50e0f1b852b52615ad8ebcc97d78ba612"),
    ("verify-gauge --family D5 --seed 7 --format json", 0,
     "b894225305778abaa5e8b0ee7745bf0695b3eb8a2c9a4002b652d60e1bc17ca3"),
    ("verify-theorem --no-constraint --family D5 --seed 7 --format json", 1,
     "f3fbe44b6f855bbbbfe54cdc41ad1f23a04e5d2aade854f2ce6d6c645b07e08c"),
    ("verify-relations --family E6 --seed 0 --format json", 0,
     "e749c47503b635724a48b9d79aa2e5224c52c7dd72136c028552016464accee8"),
    ("verify-theorem --family E6 --seed 0 --format json", 0,
     "248e8e301ff2471ee420846198f994bd68879d1dfd4ec4ebe4534179211225fa"),
    ("verify-gauge --family E6 --seed 0 --format json", 0,
     "4c018035c408603e4700085432de32b0547f651b5cd8a79929df2d4572178701"),
    ("verify-theorem --no-constraint --family E6 --seed 0 --format json", 1,
     "514bd67982d29c97be367a1de2a2bddee37a019966833313b342af162f46197a"),
    ("verify-relations --family E6 --seed 7 --format json", 0,
     "0937566a4a8c57d6385dc74c626658b262d32a98e58856211dc2a00cb0d64b77"),
    ("verify-theorem --family E6 --seed 7 --format json", 0,
     "f0d7da3518f5f4a59f114ffdcf8f9992ae4a0b81c3a04607e8709ac1eee8ca24"),
    ("verify-gauge --family E6 --seed 7 --format json", 0,
     "2e1c00c9e594d9ef34c7833e00154464e3292912b4800e264802a3306ffedaa0"),
    ("verify-theorem --no-constraint --family E6 --seed 7 --format json", 1,
     "414e9c646dc9eff34633d6f864b812e7121626116ad28fdd156dad1fc8fe0e56"),
    ("verify-relations --family E7 --seed 0 --format json", 0,
     "1af6fa93c6d24cd13d3c6873fb14a1bfcde820a3573b9edc3ab130f2a13bdccc"),
    ("verify-theorem --family E7 --seed 0 --format json", 0,
     "9eff48cdbe8a6c86f26c5241db613e042f462e931893da160224e0b6981f9935"),
    ("verify-gauge --family E7 --seed 0 --format json", 0,
     "f4945be5eb45ce89e6cf93bed1c8eedc8e3d6a208b2b7285bee96d1feaeba096"),
    ("verify-theorem --no-constraint --family E7 --seed 0 --format json", 1,
     "f9ebde465c6c0cb69312ef6454d78dd286dce52b21148a9fe4c1c59675a5870c"),
    ("verify-relations --family E7 --seed 7 --format json", 0,
     "3acaecd9498360d99eb446077e84d7c73f1fd0c6d607b077c992a53bd7f488e6"),
    ("verify-theorem --family E7 --seed 7 --format json", 0,
     "d21fc54bb14dc8eccd75ac2a0a7496b647f23ddc98319353ff5179fd8fbcef38"),
    ("verify-gauge --family E7 --seed 7 --format json", 0,
     "8a8e3ab7661f8311c3729f67f921eff971e750bdc1a3b30f954133af825a3829"),
    ("verify-theorem --no-constraint --family E7 --seed 7 --format json", 1,
     "da00a60f5c914df10dfa75d1bcc2498f9bd9234097595186cdcdba84767141e0"),
]


@pytest.mark.parametrize("argv, code, sha256", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_json_report_bytes_unchanged(argv, code, sha256):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main(argv.split())
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == sha256
