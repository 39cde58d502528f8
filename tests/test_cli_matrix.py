"""BENCH_cli.json, the per-command matrix that tools/matrix.py writes.

The file must hold a row for every command, family and flag set of the
matrix, and each recorded exit status and stdout SHA-256 must be what
cli.main returns and prints now, so the file pins every row's output bytes:
a change to an output must re-record the file (python3 tools/matrix.py).
No timing is asserted: the times are the host's.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from qpweyl import cli

ROOT = Path(__file__).resolve().parents[1]


def _load_matrix():
    spec = importlib.util.spec_from_file_location("matrix", ROOT / "tools" / "matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MATRIX = _load_matrix()
DOC = json.loads((ROOT / "BENCH_cli.json").read_text(encoding="utf-8"))
ROWS = {row["id"]: row for row in DOC["rows"]}


def test_every_command_family_and_flag_set_has_a_row():
    wanted = {f"{cmd} {fam}{flag}" for cmd in ("verify-relations", "verify-theorem", "verify-gauge")
              for fam in ("D5", "E6", "E7") for flag in ("", " --exact")}
    wanted |= {f"apply D5 (s2 s3 s1 s4)^{n} f" for n in (2, 4, 6)}
    wanted |= {"evolve D5 5 steps", "evolve D5 20 steps", "list", "python -c pass"}
    assert set(ROWS) == wanted
    assert [row_id for row_id, _ in MATRIX.ROWS] == [row["id"] for row in DOC["rows"]]
    for row_id, args in MATRIX.ROWS:
        assert ROWS[row_id]["argv"] == args


def test_the_file_is_stamped_and_each_row_has_its_statistics():
    assert DOC["rounds"] >= 7 and DOC["warmup_rounds"] == 1
    assert {"python", "nproc", "git_sha"} <= set(DOC["stamp"])
    assert ROWS["python -c pass"]["status"] == 0   # the reference row
    for row in DOC["rows"]:
        assert row["runs"] == DOC["rounds"]
        assert row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
        assert len(row["stdout_sha256"]) == 64


@pytest.mark.parametrize("row_id", [row_id for row_id, args in MATRIX.ROWS
                                    if args[:2] == ["-m", "qpweyl"]])
def test_each_recorded_exit_status_is_what_the_command_returns_now(row_id, capsys,
                                                                   monkeypatch):
    monkeypatch.chdir(ROOT)   # evolve reads sample-params.json from the root
    assert cli.main(ROWS[row_id]["argv"][2:]) == ROWS[row_id]["status"]
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == ROWS[row_id]["stdout_sha256"]
