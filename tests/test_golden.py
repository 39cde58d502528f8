"""Golden reports: SHA-256 and exit code of `--format json` and text runs.

The hashes were recorded before identity testing moved to compiled
projective evaluation.  The sampled points are the same, so every verdict,
witness and byte of output must be the same; the `--no-constraint` runs
fail with witnesses.  The `--exact` hashes were recorded before every suite
took its verdict from `weyl.check`; they pin the `exact` marks of the
theorem suites.  The E7 theorem, the relation and the gauge `--exact` hashes
were recorded before the exact normalizer moved to packed-integer monomials
with integer coefficients: the same term counts reach the term cap, so the
same checks are marked `exact`.  The E7 gauge suite marks none, so its hash
is that of the run without `--exact`; the E6 and E7 gauge `--exact` hashes
were recorded before the exact normalizer remembered the nodes that trip its
term cap, a skip that E7's gauge residuals take.  The D5 and E6 gauge
`--exact` hashes were re-recorded when gauge claims came to be compared by
their 2x2 minors and a pass kept its `exact` mark: d5.s2, d5.G, d5.D,
d5.inversion and e6.S are marked, and every other byte is that of the runs
without `--exact`.  The gauge
`--no-constraint` hashes were recorded when the gauge suite began passing
its comparison's result through: they pin the witness of each failed claim,
and apart from the witnesses the reports are those of the runs before.  The
D5 one was re-recorded when dilated and inverted equations stayed in z: the
failed `d5.inversion` witness names z where it named u, and every other
byte is the same.  Every JSON hash was re-recorded when the default
modulus became 2^89 - 1, sampled with the 11 trials derived from it, and the
header gained "prime" and took "trials" from the count run: once "trials",
"prime" and the witness values are stripped, each report is the one before.
The nine `--no-constraint` JSON hashes were re-recorded again when every
comparison of a suite call came to read one set of points, point j of
symbol x being the j-th value of x's own stream: with each witness reduced
to its sorted symbol names, these reports, and the verify reports of
D5, E6 and E7 at seeds 0, 7 and 123, are the ones before.

The text hashes were recorded when text reports stopped printing elapsed
times: they pin every byte of three text reports, the witnesses of the
failed D5 theorem checks and the E7 gauge checks run with `--exact`
included.  The D5 `--no-constraint` one was re-recorded with the JSON
hashes, both times: only its witness values changed.

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
     "5e11a85cc3d1a479c03e1f00e374ed13d37c02cb6e66833ee77f6b0217038d9d"),
    ("verify-theorem --family D5 --seed 0 --format json", 0,
     "f375d3930064958d304c6f83a03f412961f7b67883e9189912fda6a96526b271"),
    ("verify-gauge --family D5 --seed 0 --format json", 0,
     "ccaf0af4571931607e76bbd645f60dd56671c10fbdb14ea7d68158203eb2bfdd"),
    ("verify-theorem --no-constraint --family D5 --seed 0 --format json", 1,
     "60f0517f8b12cb717e32d024a204779d358e43a5582ec3d559643c3d567e3622"),
    ("verify-relations --family D5 --seed 7 --format json", 0,
     "c0626c0fe7e2f7f89f5d5cb4ed8bd1ffb1f0017e0e42fcf3a70111dccbed01ba"),
    ("verify-theorem --family D5 --seed 7 --format json", 0,
     "56806fbe302f81619fc67674f47834a327e953a1aec5b292a871a4b255e8bf9f"),
    ("verify-gauge --family D5 --seed 7 --format json", 0,
     "5bba766e341d5bc8b2fa9a353c769866aff46c9d36e0a570def902b420015a10"),
    ("verify-theorem --no-constraint --family D5 --seed 7 --format json", 1,
     "be746e4210fa1747077816027d1a6ee9db139094833e1c6499f9d6aaac30f60e"),
    ("verify-relations --family E6 --seed 0 --format json", 0,
     "6eab9d072de6bcdc500473dfead64ad0efb93858881d2096604f6f401aac653a"),
    ("verify-theorem --family E6 --seed 0 --format json", 0,
     "de8685d77d63b7a84f7251919d8a0781dcc1c46ca24a9226905fd2b3759c10da"),
    ("verify-gauge --family E6 --seed 0 --format json", 0,
     "c2acbe19a43d2e83ef00dba58eae52e1af62adb2df996e4d36fae887124dd16d"),
    ("verify-theorem --no-constraint --family E6 --seed 0 --format json", 1,
     "30c7f7e813db241ebd9fc3918db3af7c4767ee6febf1edd4a461d3fee00329ae"),
    ("verify-relations --family E6 --seed 7 --format json", 0,
     "2f76e2f81d3da509bfddc249966afbc55c0c946bf48d01087c23bc721660bafe"),
    ("verify-theorem --family E6 --seed 7 --format json", 0,
     "c3a47ed55e4f7acc50040cac443ad9baeecb9eb9df819778f12663656250e238"),
    ("verify-gauge --family E6 --seed 7 --format json", 0,
     "fc973cc4abb1e6f2814e72d72a90e6fdc95f8156d88f39cc4699fbead02bcc4f"),
    ("verify-theorem --no-constraint --family E6 --seed 7 --format json", 1,
     "4519aa3523c28b0e9d16a943c746220c0d9e20f4ef477a68b424efe362c5a905"),
    ("verify-relations --family E7 --seed 0 --format json", 0,
     "6abede9e918b0eac68cbc67162a7f7f803478abe0e8e1dfc5bcfd81340c00e36"),
    ("verify-theorem --family E7 --seed 0 --format json", 0,
     "08edd6cac0c0fee07621a597ed89f8a6fd5b12e32ebffd51bf405d0ad1de3def"),
    ("verify-gauge --family E7 --seed 0 --format json", 0,
     "311edc9603fe6c829d77fb84cc635bf2460f0c2326b9053cb0251adcc2a60f17"),
    ("verify-theorem --no-constraint --family E7 --seed 0 --format json", 1,
     "a8c422af7e3170c2f7eac4f1aa8bb1c7a0ca90d53f64e4158f8e9d6977c40881"),
    ("verify-relations --family E7 --seed 7 --format json", 0,
     "534c28f0c554df484a5795840b1d74423046fbac4ba06a7dc3ecb29837211335"),
    ("verify-theorem --family E7 --seed 7 --format json", 0,
     "ed4fbce2fbd495a2b5cde303c381553cfcf04fd550d45200937ecc3cc62b94c2"),
    ("verify-gauge --family E7 --seed 7 --format json", 0,
     "9f3d47fa88490683a1fff8473ea459d2c2906ef03130fd71317f50951041f6e3"),
    ("verify-theorem --no-constraint --family E7 --seed 7 --format json", 1,
     "09504b7fc9f7d211d16d52ae3571099301a11e19f85f416aa34cca66d8e37d01"),
    ("verify-theorem --family D5 --seed 0 --exact --format json", 0,
     "29c353c0fcbdbb2b2bd3bda32709ae795ca5440f437632beeca6a6a6ab638146"),
    ("verify-theorem --family E6 --seed 0 --exact --format json", 0,
     "9e77448592cca78f87203c62a4601df4aca4a2fe8ad9e502ed4f0184f1a95ddb"),
    ("verify-theorem --family E7 --seed 0 --exact --format json", 0,
     "8029595feb0440672e9c10a9516d9bc4ed631258680b8a33ae265115ee690b15"),
    ("verify-relations --family D5 --seed 0 --exact --format json", 0,
     "6589a6c25e781505c5b630fb635713e1309fe362b10db2cf37451cda80b323e2"),
    ("verify-relations --family E6 --seed 0 --exact --format json", 0,
     "825066d748f53861bcd6e39246d5834a05b32392e6ac4c1b9f416d0bdcc4dbfd"),
    ("verify-relations --family E7 --seed 0 --exact --format json", 0,
     "73ccf8d086dc828fdf13e617104fa5dcc23ead456c024ca160dbf78912bf9af2"),
    ("verify-gauge --family D5 --seed 0 --exact --format json", 0,
     "8e05e9985642b4f382a1c01811dbc2f9101a0139d0181a13b45067df753259dc"),
    ("verify-gauge --family E6 --seed 0 --exact --format json", 0,
     "9789caf119c015d2ef79d1b191f7bee25acda5e97486c5537dba0df4dacee3e4"),
    ("verify-gauge --family E7 --seed 0 --exact --format json", 0,
     "311edc9603fe6c829d77fb84cc635bf2460f0c2326b9053cb0251adcc2a60f17"),
    ("verify-gauge --no-constraint --family D5 --seed 0 --format json", 1,
     "813e7602117ad983be8e607d24a5c97ea4b385c154337340c0317c8102e11098"),
    ("verify-gauge --no-constraint --family E6 --seed 0 --format json", 1,
     "95f0fa2a796613ee59b77718ce3bb6c88d69a850cc99973662f20db4588295db"),
    ("verify-gauge --no-constraint --family E7 --seed 0 --format json", 1,
     "a4b000ea0520edd19631abaac9d00a84410e102e715288737594840b02807fe8"),
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
     "72955b1ced2b9cca79328b3d47631b3e20b2de8d87534abd9650224f75e6167f"),
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
