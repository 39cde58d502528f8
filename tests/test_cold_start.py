"""A fresh process that imports qpweyl and builds the tables loads no heavy
standard module the package does not need at start-up.

The record classes are built without `dataclasses` (which pulls in
`inspect`, `ast`, `dis` and `tokenize`), and `hashlib` (which loads OpenSSL)
and `json` are imported by the functions that use them.  The start-up steps
are those of the benchmark's set-up probe, plus building the CLI parser.  A
module that a bare interpreter already loads (through `site` and its `.pth`
files, which differ between machines) is not counted.

Run as a script, `python tests/test_cold_start.py` makes the same check for
the qpweyl that the interpreter imports without help, such as an installed
package, and exits 1 naming the modules loaded.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNWANTED = ("dataclasses", "inspect", "hashlib", "json")

START_UP = """
import sys
import qpweyl
import qpweyl.cli
for name in qpweyl.FAMILY_NAMES:
    family = qpweyl.make_family(name)
    qpweyl.build_L1(family)
    qpweyl.time_evolution(family)
qpweyl.cli.build_parser()
print(" ".join(sys.modules))
"""

VERIFY = """
import sys
from qpweyl import cli
before = set(sys.modules)
code = cli.main(["verify-theorem", "--family", "D5", "--format", "json"])
sys.stdout.flush()
print(code, *sorted(set(sys.modules) - before), file=sys.stderr)
"""


def _python(code: str, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120, check=True)


def _loaded(code: str, env: dict) -> set[str]:
    return set(_python(code, env).stdout.decode().split())


def unwanted_at_start_up(env: dict) -> list[str]:
    """The UNWANTED modules the start-up steps load and a bare interpreter
    does not."""
    bare = _loaded("import sys; print(' '.join(sys.modules))", env)
    return sorted((_loaded(START_UP, env) - bare).intersection(UNWANTED))


def _with_src() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}


def test_start_up_loads_no_heavy_module():
    assert unwanted_at_start_up(_with_src()) == []


def test_json_report_loads_hashlib_and_json_when_it_needs_them():
    from test_golden import GOLDEN

    pin = {argv: sha for argv, _, sha in GOLDEN}["verify-theorem --family D5 --seed 0 --format json"]
    done = _python(VERIFY, _with_src())
    assert hashlib.sha256(done.stdout).hexdigest() == pin
    code, *loaded = done.stderr.decode().split()
    assert code == "0"
    # Loaded by the run, unless the bare interpreter had them already.
    bare = _loaded("import sys; print(' '.join(sys.modules))", _with_src())
    assert {"hashlib", "json"} - bare <= set(loaded)


if __name__ == "__main__":
    found = unwanted_at_start_up(dict(os.environ))
    print("unwanted modules at start-up:", " ".join(found) or "none")
    sys.exit(1 if found else 0)
