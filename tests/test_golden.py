"""Golden reports: SHA-256 and exit code of `--format json` and text runs.

The hashes were recorded before identity testing moved to compiled
projective evaluation.  The sampled points are the same, so every verdict,
witness and byte of output must be the same; the `--no-constraint` runs
fail with witnesses.  The `--exact` hashes were recorded before every suite
took its verdict from `weyl.check`; they pin the `exact` marks of the
theorem suites.  The E7 theorem, the relation and the gauge `--exact` hashes
were recorded before the exact normalizer moved to packed-integer monomials
with integer coefficients: the same term counts reach the term cap, so the
same checks are marked `exact`.  The gauge suite marks none, so its hashes
are those of the runs without `--exact`; the E6 and E7 gauge `--exact` hashes
were recorded before the exact normalizer remembered the nodes that trip its
term cap, a skip that E7's gauge residuals take.  The gauge
`--no-constraint` hashes were recorded when the gauge suite began passing
its comparison's result through: they pin the witness of each failed claim,
and apart from the witnesses the reports are those of the runs before.  The
D5 one was re-recorded when dilated and inverted equations stayed in z: the
failed `d5.inversion` witness names z where it named u, and every other
byte is the same.

The text hashes were recorded when text reports stopped printing elapsed
times: they pin every byte of three text reports, the witnesses of the
failed D5 theorem checks and the E7 gauge checks run with `--exact`
included.

The `apply` hashes were recorded while the printers still recursed over the
tree; they pin every byte of the text, JSON and LaTeX images the post-order
printers now build, up to 3.8 MB for D5 `(s2 s3 s1 s4)^6`.  The five LaTeX
ones were re-recorded when both printers came to share one rule set, so a
LaTeX product led by the constant -1 prints a bare minus sign, as text does;
those signs are the only bytes that changed (D5 `(s2 s3 s1 s4)^6` fell to
3.5 MB).

The `evolve` hashes were recorded before the orbit steppers cancelled the
factors that always cancel ahead of the one reduction per coordinate; they
pin every byte of the longest orbits from `sample-params.json` that still
print under the default int-to-str digit limit.  They also held, unchanged,
when each cancelled pair went from a gcd and two divisions to one long
division.

The `list` hashes were recorded before the paper's tables moved out of
`weyl`, `lax` and `evolution` into `paper.py`; they pin every byte of the
family summaries and of the LaTeX generator tables built from them.
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
    ("verify-theorem --family D5 --seed 0 --exact --format json", 0,
     "70043d1928765773a44f61300ca7ea218007a99c22dfc0b98162842ecbbd8f1d"),
    ("verify-theorem --family E6 --seed 0 --exact --format json", 0,
     "1b390720980a66fc14a01509093ba25dff59b1ef98df7794d10a06f8e872159b"),
    ("verify-theorem --family E7 --seed 0 --exact --format json", 0,
     "53fd53317e4776a030fe403643459d84bbbb3f76a201d954df3ceb84f634c716"),
    ("verify-relations --family D5 --seed 0 --exact --format json", 0,
     "f2a43cf928cbdcc50fe02bef22fb9614d4414008ea7989df5e5ed3c86bd3c29d"),
    ("verify-relations --family E6 --seed 0 --exact --format json", 0,
     "0d718ee1d68862f9360f64578a6bce32276e032ce4277c08025ad1e8f7d67cf8"),
    ("verify-relations --family E7 --seed 0 --exact --format json", 0,
     "d5a32d31b356e751b295fec61a6484143e8e0a773103d013c25dcb7202b22b09"),
    ("verify-gauge --family D5 --seed 0 --exact --format json", 0,
     "d881083e9ff7df28c60541221ea4a5d7e795b2025e3ec3928fd0e86af503ccc9"),
    ("verify-gauge --family E6 --seed 0 --exact --format json", 0,
     "4c018035c408603e4700085432de32b0547f651b5cd8a79929df2d4572178701"),
    ("verify-gauge --family E7 --seed 0 --exact --format json", 0,
     "f4945be5eb45ce89e6cf93bed1c8eedc8e3d6a208b2b7285bee96d1feaeba096"),
    ("verify-gauge --no-constraint --family D5 --seed 0 --format json", 1,
     "c41d23778f8cca352a89244e9109ab6a0f324138bf6f1b14c282c3009d6f6b66"),
    ("verify-gauge --no-constraint --family E6 --seed 0 --format json", 1,
     "5316cca85e4a48263edbddf3df0b22af4fbd9d423ee3d22a6cb4b74dea84c6f3"),
    ("verify-gauge --no-constraint --family E7 --seed 0 --format json", 1,
     "1d6e7848f9eb4d5d05819d93aad836d545af378337f09fdd8b69eb31ee417f7e"),
]


@pytest.mark.parametrize("argv, code, sha256", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_json_report_bytes_unchanged(argv, code, sha256):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main(argv.split())
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == sha256


TEXT_GOLDEN = [
    ("verify-relations --family E6 --seed 0", 0,
     "e5a794c565f16e978d281d47d3885ea87954d64dbfb19f8c1128efaafb2d2d6c"),
    ("verify-theorem --no-constraint --family D5 --seed 0", 1,
     "46348ddf0caedff9f4a0ee04e36f90953b051ba7e7b93bf68300741520af6c37"),
    ("verify-gauge --family E7 --seed 0 --exact", 0,
     "f4a473ef4f280d69c059b380b8dfb94294aa9b6b2f5ea710c268f3ce4a5f938a"),
]


@pytest.mark.parametrize("argv, code, sha256", TEXT_GOLDEN, ids=[g[0] for g in TEXT_GOLDEN])
def test_text_report_bytes_unchanged(argv, code, sha256):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main(argv.split())
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == sha256


#: The E7 evolution word, squared.
_E7_EVOLUTION_SQUARED = "(s4 s5 s3 s4 s6 s5 s2 s3 s4 s7 s6 s5 s1 s2 s3 s4 s0)^2"

APPLY_GOLDEN = [
    ("D5", "(s2 s3 s1 s4)^2", "f", "text", 0,
     "4cd82c58b62982c858e9d97471efab87b393f99e0c0ed338069158aa41e272bf"),
    ("D5", "(s2 s3 s1 s4)^2", "f", "json", 0,
     "1a956d80451e24505639bce2426fcc8c63138744e9da3fc45054bd770b77f526"),
    ("D5", "(s2 s3 s1 s4)^2", "f", "latex", 0,
     "31224f5b7a3c99bab7fadbe52138b808ecb3a8a2a0c0e226b3aaca80846f5ebf"),
    ("D5", "(s2 s3 s1 s4)^4", "f", "text", 0,
     "140b944daae5bdc668d00e06d4a1c0955f57fca8d5a48491a5bfe73b8a8fa757"),
    ("D5", "(s2 s3 s1 s4)^4", "f", "json", 0,
     "f492b0d0f6b0acec921d669ed9b4875a2daa9ad11857f5bfbcb3f34b24687ad2"),
    ("D5", "(s2 s3 s1 s4)^4", "f", "latex", 0,
     "3368abe7d2f3aea080123195567f5f5ee4c4ac6f8490891f3880fa7602e972f9"),
    ("D5", "(s2 s3 s1 s4)^6", "f", "text", 0,
     "6383aa83ee42a2d9e2a196bc5f2753cb37a2b015fbe70abb41effd4a7b572c60"),
    ("D5", "(s2 s3 s1 s4)^6", "f", "json", 0,
     "9c1b6e1d61e4c5319fba85486ff324aa37d912f5bcdbeacc4cb9406953c5d13e"),
    ("D5", "(s2 s3 s1 s4)^6", "f", "latex", 0,
     "276a1ce40606029323cc05adc1d0dfb4a09ad05626a0d4f7504fafbd7ba9faaf"),
    ("E7", _E7_EVOLUTION_SQUARED, "f", "text", 0,
     "035536f70701a61ff5d0fb61da6b09c37a0d32dca4dd6d0b697f61e10e3cfa2d"),
    ("E7", _E7_EVOLUTION_SQUARED, "f", "json", 0,
     "f3be56cb0a7e65f37fba1733df67a3eb40d3be8f5d29331fab709439a4b3ec6b"),
    ("E7", _E7_EVOLUTION_SQUARED, "f", "latex", 0,
     "27b7587ffc8f3926d1778b5a1f585882ca6f229de50c0a94b2cd9935ff988b4f"),
    ("E7", _E7_EVOLUTION_SQUARED, "g", "text", 0,
     "fb1df06cc10ea9f116dc300a37bdf7a8aebce11e1226141b0d8c8786ef5a9e9f"),
    ("E7", _E7_EVOLUTION_SQUARED, "g", "json", 0,
     "062c02de247d95df0da84aa5b349e1d82c919cf9b8a15aa9f2c37475d8bfbe0f"),
    ("E7", _E7_EVOLUTION_SQUARED, "g", "latex", 0,
     "2b7897a3c7554e1f3f47e0f7fecea0dcdaca7b37384e52f69c7ca8121efc15c7"),
]


@pytest.mark.parametrize("family, word, expr, fmt, code, sha256", APPLY_GOLDEN,
                         ids=[f"{g[0]} {g[1]} {g[2]} {g[3]}" for g in APPLY_GOLDEN])
def test_apply_bytes_unchanged(family, word, expr, fmt, code, sha256):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main(["apply", "--family", family, "--word", word,
                        "--expr", expr, "--format", fmt])
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == sha256


EVOLVE_GOLDEN = [
    ("D5", 21, "a899c165a6684cf23c52e65801e23a2a61dde6d56e2a518a7fd4f03c4d811dea"),
    ("E6", 16, "c36f3769e86c28f2f5104b9c6c44ac854d1f8574243a24cb7d10134caa10b84f"),
    ("E7", 11, "8e7ca0cef2ffd91aa539cca63078c6e40377d00bd4f4fb598ae35dccf5047ff7"),
]


@pytest.mark.parametrize("family, steps, sha256", EVOLVE_GOLDEN,
                         ids=[f"{g[0]} {g[1]}" for g in EVOLVE_GOLDEN])
def test_evolve_bytes_unchanged(family, steps, sha256):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = cli.main(["evolve", "--family", family, "--params",
                        "sample-params.json", "--steps", str(steps)])
    assert got == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == sha256


LIST_GOLDEN = [
    ("list", "7b2f5588f7ff69369153ad30937a2445788b28556c2b7e2529761f349846e2f2"),
    ("list --family D5", "886ade3d237ec5c7bbb7ff8c3c558b97aaa7e9d0b3c7da7d6b593d14b8f72c1c"),
    ("list --family E6", "62c6b58a8466b1df2f78f817247b4b73a1373a08f526c8edeefb213f318ff8c6"),
    ("list --family E7", "d39d5cf9f123035b6dc2ff8a60de2f543013e97c6aa059c116783bab73f4f07a"),
    ("list --family D5 --format latex",
     "4753b4af4610e9c753cd1a38c7a918d9b98d6322ee501f4e6fe9d516e07e33d3"),
    ("list --family E6 --format latex",
     "b9fce9a18c618f9f723db56117fe70e28dc6394d12c497713e308b487659773b"),
    ("list --family E7 --format latex",
     "d7509c9bb70176605bdc1c8c06af1abe4f06d03e6bf12ab337ab139801a213a0"),
]


@pytest.mark.parametrize("argv, sha256", LIST_GOLDEN, ids=[g[0] for g in LIST_GOLDEN])
def test_list_bytes_unchanged(argv, sha256):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main(argv.split())
    assert got == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == sha256
