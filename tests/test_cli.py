"""Command-line behavior: exit codes, formats, determinism."""

import ast
import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_golden import GOLDEN

import qpweyl.cli as cli
from qpweyl import evolution
from qpweyl.expr import shown
from qpweyl.identity import MAX_PRIME_BITS, MAX_TRIALS
from qpweyl.weyl import MAX_WORD_LETTERS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# apply

def test_apply_word_to_nu1(capsys):
    code, out, _ = run(capsys, "apply", "--family", "D5",
                       "--word", "pi2 pi1 s2 s1 s0 s2", "--expr", "nu1")
    assert code == 0
    assert out.strip() == "nu7"


def test_apply_e7_s0_on_f(capsys):
    code, out, _ = run(capsys, "apply", "--family", "E7", "--word", "s0",
                       "--expr", "f")
    assert code == 0
    assert out.strip() == "1/g"


def test_apply_identity_word(capsys):
    code, out, _ = run(capsys, "apply", "--family", "D5", "--word", "",
                       "--expr", "f")
    assert code == 0
    assert out.strip() == "f"


def test_apply_grouped_word(capsys):
    code, out, _ = run(capsys, "apply", "--family", "D5",
                       "--word", "(pi1 pi2)^4", "--expr", "nu5")
    assert code == 0
    assert out.strip() == "nu5"


def test_apply_prints_a_negative_power_as_a_quotient(capsys):
    images = [run(capsys, "apply", "--family", "D5", "--word", "s2", "--expr", text)
              for text in ("g^-2", "1/g^2")]
    assert images[0] == images[1]
    assert run(capsys, "apply", "--family", "D5", "--expr", "f^-1")[1] == "1/f\n"


def test_apply_unknown_generator_prints_the_message(capsys):
    code, out, err = run(capsys, "apply", "--family", "D5", "--word", "s9",
                         "--expr", "f")
    assert (code, out) == (2, "")
    assert err == "error: unknown generator 's9' for family D5\n"


LONG = "x" * 50_000


@pytest.mark.parametrize("word, expr, message", [
    ("(s0)^5000 (", "f", "malformed word 's0 s0 s0 s0 s0 s0 s0...'"),
    (f"s{LONG}", "f", "unknown generator 'sxxxxxxxxxxxxxxxxxxx...' for family D5"),
    ("s0", f"f + {LONG}", "unknown symbol 'xxxxxxxxxxxxxxxxxxxx...' at offset 4"),
    ("s0", f"f {LONG}", "trailing input 'xxxxxxxxxxxxxxxxxxxx...' at offset 2"),
    ("s0", "f " + "1" * 4000, "trailing input '11111111111111111111...' at offset 2"),
    ("(s0)^2 (", "f", "malformed word 's0 s0 ('"),
    ("s0", "f + pi1", "unknown symbol 'pi1' at offset 4"),
], ids=["long-malformed-word", "long-generator", "long-symbol", "long-trailing-name",
        "long-trailing-integer", "short-malformed-word", "short-symbol"])
def test_apply_error_quotes_at_most_24_characters_of_input(capsys, word, expr, message):
    # A long input is cut to its first 20 characters and "..."; a short
    # one is quoted whole, as before.
    code, out, err = run(capsys, "apply", "--family", "D5", "--word", word, "--expr", expr)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("key, value, message", [
    ("f", "1/" + "0" * 30, "f = '1/000000000000000000...' has a zero denominator"),
    ("f", "a" * 50_000, "Invalid literal for Fraction: 'aaaaaaaaaaaaaaaaaaaa...'"),
    ("f", "abc", "Invalid literal for Fraction: 'abc'"),
    ("t", LONG, "t must be a JSON integer, got 'xxxxxxxxxxxxxxxxxxxx...'"),
    ("nu", {"a": LONG}, "'nu' must be a list of rationals, got {'a': 'xxxxxxxxxxxxx..."),
    ("q", [1] * 10_000, "q must be a string like '3/4', got [1, 1, 1, 1, 1, 1, 1..."),
], ids=["long-zero-denominator", "long-literal", "short-literal", "long-t", "long-nu",
        "long-q"])
def test_evolve_error_quotes_at_most_24_characters_of_input(capsys, tmp_path, key, value, message):
    path = write_params(tmp_path, **{key: value})
    code, out, err = run(capsys, "evolve", "--family", "D5", "--params", path)
    assert (code, out, err) == (2, "", f"error: bad params file: {message}\n")


def test_apply_word_at_the_letter_budget(capsys):
    code, out, _ = run(capsys, "apply", "--family", "D5",
                       "--word", f"(s0)^{MAX_WORD_LETTERS}", "--expr", "f")
    assert code == 0
    assert out == "f\n"


@pytest.mark.parametrize("word", [
    f"(s0)^{MAX_WORD_LETTERS + 1}",
    "s1 " + "s0 " * MAX_WORD_LETTERS,
    f"s1 (s0)^{MAX_WORD_LETTERS}",
    "((s0 s1)^100)^51",
    # 10^9 copies would be a list of about 8 GB: the budget is checked
    # before any expansion is built.
    "(s0)^1000000000",
])
def test_apply_word_past_the_letter_budget_exit_2(capsys, word):
    code, out, err = run(capsys, "apply", "--family", "D5", "--word", word,
                         "--expr", "f")
    assert code == 2
    assert out == ""
    assert err == f"error: word expands to more than {MAX_WORD_LETTERS} letters\n"


def test_apply_blank_group_of_a_huge_power_is_the_identity(capsys):
    # 10^20 copies of nothing once ended in an OverflowError traceback.
    assert run(capsys, "apply", "--family", "D5", "--word", "()^100000000000000000000",
               "--expr", "f") == (0, "f\n", "")


def test_apply_latex_format(capsys):
    code, out, _ = run(capsys, "apply", "--family", "D5", "--word", "s2",
                       "--expr", "kappa2", "--format", "latex")
    assert code == 0
    assert r"\kappa_{1}" in out and r"\nu_{3}" in out
    assert out.count("{") == out.count("}")


def test_apply_bad_expression_is_usage_error(capsys):
    code, _, err = run(capsys, "apply", "--family", "D5", "--word", "s0",
                       "--expr", "nu1 + + nu2")
    assert code == 2
    assert "error" in err


def test_apply_deeply_nested_expression_is_usage_error(capsys):
    # 1,200 parentheses used to end in a RecursionError traceback.
    code, out, err = run(capsys, "apply", "--family", "D5", "--word", "s1",
                         "--expr", "(" * 1200 + "f" + ")" * 1200)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: nesting deeper than") and "at offset" in err


def test_apply_unknown_symbol_reports_name(capsys):
    code, _, err = run(capsys, "apply", "--family", "D5", "--word", "s0",
                       "--expr", "bogus")
    assert code == 2
    assert "bogus" in err


def test_apply_unknown_generator(capsys):
    code, _, err = run(capsys, "apply", "--family", "D5", "--word", "s9",
                       "--expr", "f")
    assert code == 2


# ---------------------------------------------------------------------------
# verification commands

def test_verify_relations_d5_passes(capsys):
    code, out, _ = run(capsys, "verify-relations", "--family", "D5",
                       "--seed", "7")
    assert code == 0
    assert "32/32 checks passed" in out


def test_verify_relations_unknown_family_exit_2(capsys):
    code, out, err = run(capsys, "verify-relations", "--family", "X9")
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: [^\n]*X9[^\n]*\n", err)


def test_verify_theorem_all_families(capsys):
    for family, total in (("D5", 22), ("E6", 22), ("E7", 23)):
        code, out, _ = run(capsys, "verify-theorem", "--family", family)
        assert code == 0
        assert f"{total}/{total} checks passed" in out


def test_verify_theorem_no_constraint_fails(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--family", "E7",
                       "--no-constraint")
    assert code == 1
    assert "fail" in out


def test_verify_gauge(capsys):
    code, out, _ = run(capsys, "verify-gauge", "--family", "D5")
    assert code == 0
    assert "5/5 checks passed" in out


def test_corrupted_table_fails_via_cli(capsys, monkeypatch, d5):
    mutant = d5.with_generator("s0", {"nu7": "nu8", "nu8": "nu1"})
    monkeypatch.setattr(cli, "make_family", lambda name: mutant)
    code, out, _ = run(capsys, "verify-relations", "--family", "D5")
    assert code == 1
    assert "fail" in out
    assert "witness" in out


def test_json_reports_are_byte_identical_for_same_seed(capsys):
    args = ("verify-relations", "--family", "D5", "--seed", "11",
            "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1
    assert doc["summary"]["fail"] == 0
    assert all("elapsed" not in c for c in doc["checks"])


def test_exact_flag_marks_proved_checks(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--family", "D5", "--exact")
    assert code == 0
    assert "(exact)" in out
    code, out, _ = run(capsys, "verify-relations", "--family", "D5", "--exact",
                       "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 32
    assert all(c.get("detail") == "exact" for c in checks)


def _pole_at_every_sample(capsys, monkeypatch, d5, *flags):
    mutant = d5.with_generator("s0", {"nu7": "nu8", "nu8": "nu8/(nu1 - nu1)"})
    monkeypatch.setattr(cli, "make_family", lambda name: mutant)
    code, out, err = run(capsys, "verify-relations", "--family", "D5",
                         "--trials", "2", "--format", "json", *flags)
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    degenerate = [c for c in doc["checks"] if c["status"] == "degenerate"]
    assert {c["id"] for c in degenerate} == {
        "D5:invol:s0", "D5:braid:s0,s2", "D5:pi:pi1 s0 = s1 pi1",
        "D5:pi:pi2 s0 = s4 pi2",
        *(f"D5:commute:s0,s{j}" for j in (1, 3, 4, 5)),
    }
    assert all("exhausted" in c["detail"] for c in degenerate)
    assert doc["summary"] == {"pass": 24, "fail": 0, "degenerate": 8, "total": 32}


def test_pole_at_every_sample_is_degenerate_not_a_traceback(capsys, monkeypatch, d5):
    _pole_at_every_sample(capsys, monkeypatch, d5)


def test_pole_at_every_sample_is_degenerate_under_exact_too(capsys, monkeypatch, d5):
    # A probe at a pole asks the exact path only after the trials, so the
    # comparisons that find no point off the poles stay degenerate.
    _pole_at_every_sample(capsys, monkeypatch, d5, "--exact")


def test_list_families(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "D5 E6 E7" in out
    assert "e7.s0s4s0" in out


def python_m(module, *argv, unbuffered=None, **streams):
    """python -m module in a subprocess, with PYTHONUNBUFFERED unset or set."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return subprocess.run([sys.executable, "-m", module, *argv], env=env, text=True,
                          timeout=120, **streams)


def test_python_dash_m_runs_the_cli():
    for module in ("qpweyl", "qpweyl.cli"):
        proc = python_m(module, "list", capture_output=True)
        assert proc.returncode == 0, (module, proc.stderr)
        assert "families: D5 E6 E7" in proc.stdout


@contextlib.contextmanager
def closed_pipe():
    """The write end of a real pipe whose read end is already closed, so the
    first write to it fails with EPIPE, whatever the buffering.  (A fake
    stream has no file descriptor to point at os.devnull.)"""
    read, write = os.pipe()
    os.close(read)
    try:
        yield write
    finally:
        os.close(write)


_UNBUFFERED = pytest.mark.parametrize("unbuffered", [None, "1"],
                                      ids=["buffered", "unbuffered"])


@_UNBUFFERED
@pytest.mark.parametrize("argv, want", [
    (("verify-theorem", "--family", "D5", "--no-constraint"), 1),
    (("verify-theorem", "--family", "D5"), 0),
    (("evolve", "--family", "D5", "--steps", "1"), 1),
    (("--help",), 0),
    (("verify-theorem", "--help"), 0),
], ids=["failing-verify", "passing-verify", "pole", "help", "command-help"])
def test_a_closed_stdout_keeps_the_exit_status(capsys, tmp_path, argv, want, unbuffered):
    """A reader that closes stdout before the report is written changes
    neither the verdict nor stderr: no traceback, no "Exception ignored"."""
    if argv[0] == "evolve":
        argv += ("--params", write_params(tmp_path, g="1/2"))   # a pole at step 0
    code, _, err = run(capsys, *argv)
    assert code == want
    with closed_pipe() as stdout:
        proc = python_m("qpweyl", *argv, unbuffered=unbuffered, stdout=stdout,
                        stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (want, err)


@_UNBUFFERED
@pytest.mark.parametrize("argv, want", [
    (("evolve", "--family", "D5", "--params", "sample-params.json", "--steps", "1"), 0),
    (("apply", "--family", "D5", "--word", "s9", "--expr", "f"), 2),
], ids=["evolve", "usage-error"])
def test_a_closed_stderr_keeps_the_exit_status(capsys, argv, want, unbuffered):
    # A traceback would exit 1, and a failed flush at exit 120.
    code, out, _ = run(capsys, *argv)
    assert code == want
    with closed_pipe() as stderr:
        proc = python_m("qpweyl", *argv, unbuffered=unbuffered, stdout=subprocess.PIPE,
                        stderr=stderr)
    assert (proc.returncode, proc.stdout) == (want, out)


def test_only_cli_main_writes():
    """print and the standard streams are named in the package only inside
    cli.main: the commands return their lines."""
    package = Path(cli.__file__).resolve().parent
    outside = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "cli.py":
            main = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "main")
            allowed = {id(node) for node in ast.walk(main)}
        for node in ast.walk(tree):
            writes = (isinstance(node, ast.Name) and node.id == "print"
                      or isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"))
            if writes and id(node) not in allowed:
                outside.append(f"{path.name}:{node.lineno}")
    assert outside == []


def test_list_family_details(capsys):
    code, out, _ = run(capsys, "list", "--family", "E7")
    assert code == 0
    assert "s4 s5 s3 s4 s6 s5 s2 s3 s4 s7 s6 s5 s1 s2 s3 s4 s0" in out


_KNOWN_LATEX = re.compile(
    r"\\(nu|kappa|delta|frac|cdot|mapsto|left|right|overline)\b|[{}_^]|[0-9A-Za-z(), \\]"
)


def test_list_latex_tables_are_well_formed(capsys):
    for family in ("D5", "E6", "E7"):
        code, out, _ = run(capsys, "list", "--family", family,
                           "--format", "latex")
        assert code == 0
        assert out.count("{") == out.count("}")
        commands = set(re.findall(r"\\([A-Za-z]+)", out))
        assert commands <= {"nu", "kappa", "delta", "frac", "cdot",
                            "mapsto", "left", "right", "overline"}, commands


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
def test_list_latex_tables_write_no_unit_factor(capsys, family):
    code, out, _ = run(capsys, "list", "--family", family, "--format", "latex")
    assert code == 0
    assert not re.search(r"(^|[^0-9])1 \\cdot", out, re.MULTILINE), out


# ---------------------------------------------------------------------------
# evolve

def write_params(tmp_path, **overrides):
    rec = {"q": "2", "nu": ["2", "3", "5", "7", "11", "13", "17"],
           "kappa1": "3", "kappa2": "5", "f": "4", "g": "9"}
    rec.update(overrides)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(rec))
    return str(path)


def test_evolve_zero_steps_echoes_input(capsys, tmp_path):
    path = write_params(tmp_path)
    code, out, _ = run(capsys, "evolve", "--family", "D5", "--params", path,
                       "--steps", "0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 1
    assert doc["states"][0]["f"] == "4/1"


def test_evolve_twenty_steps_d5(capsys, tmp_path):
    path = write_params(tmp_path)
    code, out, _ = run(capsys, "evolve", "--family", "D5", "--params", path,
                       "--steps", "20")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 21
    from fractions import Fraction
    for rec in doc["states"]:
        vals = [Fraction(v) for v in rec["nu"]]
        residual = (Fraction(rec["kappa1"]) ** 2 * Fraction(rec["kappa2"]) ** 2
                    - Fraction(rec["q"]) * __import__("math").prod(vals))
        assert residual == 0


def test_evolve_writes_out_file(capsys, tmp_path):
    path = write_params(tmp_path)
    out_path = tmp_path / "orbit.json"
    code, out, err = run(capsys, "evolve", "--family", "D5", "--params", path,
                         "--steps", "3", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["states"]) == 4
    assert "final state t=3" in err


def test_evolve_summary_is_one_short_line(capsys):
    # The summary used to print the last f and g in full: 15,355 bytes here.
    code, out, err = run(capsys, "evolve", "--family", "D5", "--params",
                         "sample-params.json", "--steps", "21")
    assert code == 0
    from fractions import Fraction
    last = json.loads(out)["states"][-1]
    heights = [v.numerator.bit_length() + v.denominator.bit_length()
               for v in (Fraction(last["f"]), Fraction(last["g"]))]
    assert err == (f"final state t=21: heights f {heights[0]} bits, "
                   f"g {heights[1]} bits\n")
    assert len(err) < 80


def test_evolve_pole_exit_1(capsys, tmp_path):
    path = write_params(tmp_path, g="1/2")  # g = 1/nu1 poles immediately
    code, out, err = run(capsys, "evolve", "--family", "D5", "--params", path,
                         "--steps", "5")
    assert code == 1
    doc = json.loads(out)
    assert doc["pole"]["step"] == 0
    assert len(doc["states"]) == 1


def test_evolve_malformed_params_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "evolve", "--family", "D5", "--params",
                       str(path), "--steps", "1")
    assert code == 2
    code, _, err = run(capsys, "evolve", "--family", "D5", "--steps", "1")
    assert code == 2


@pytest.mark.parametrize("content, message", [
    ({"f": "1/0"}, "zero denominator"),
    ([1, 2], "JSON object"),
    ({"nu": "2357111"}, "'nu' must be a list"),
    ({"kappa1": "0"}, "nonzero"),
    ({"kappa2": "0/5"}, "nonzero"),
])
def test_evolve_bad_params_values_exit_2(capsys, tmp_path, content, message):
    if isinstance(content, dict):
        path = write_params(tmp_path, **content)
    else:
        path = tmp_path / "params.json"
        path.write_text(json.dumps(content))
    code, out, err = run(capsys, "evolve", "--family", "D5", "--params",
                         str(path), "--steps", "1")
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: bad params file: [^\n]+\n", err)
    assert message in err


@pytest.mark.parametrize("key, raw, message", [
    ("t", "1e400", "t must be a JSON integer, got inf"),
    ("t", "1.5", "t must be a JSON integer, got 1.5"),
    ("t", "true", "t must be a JSON integer, got True"),
    ("q", "true", "q must be a string like '3/4', got True"),
    ("nu", '["2", "3", "5", "7", "11", "13", "17", "999"]',
     "nu8 = '999' contradicts the constraint, which gives 15/68068"),
    ("q", None, "missing field 'q'"),
    ("nu", "[]", "'nu' must list nu1..nu7, or nu1..nu8, got 0 values"),
    ("nu", '["2", "3", "5", "7", "11", "13"]',
     "'nu' must list nu1..nu7, or nu1..nu8, got 6 values"),
    ("nu", '["2", "3", "5", "7", "11", "13", "17", "19", "23"]',
     "'nu' must list nu1..nu7, or nu1..nu8, got 9 values"),
])
def test_evolve_bad_params_field_is_named(capsys, tmp_path, key, raw, message):
    # The JSON text is written by hand: 1e400 reads as a float infinity.
    rec = json.loads(Path(write_params(tmp_path)).read_text())
    rec.pop(key, None)
    text = json.dumps(rec)
    if raw is not None:
        text = f'{{"{key}": {raw}, {text[1:]}'
    path = tmp_path / "params.json"
    path.write_text(text)
    start = time.monotonic()
    code, out, err = run(capsys, "evolve", "--family", "D5", "--params", str(path))
    assert time.monotonic() - start < 1
    assert (code, out, err) == (2, "", f"error: bad params file: {message}\n")


def test_evolve_deeply_nested_params_exit_2(capsys, tmp_path):
    path = tmp_path / "params.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "evolve", "--family", "D5", "--params", str(path))
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: bad params file: maximum recursion depth [^\n]+\n", err)


def test_evolve_reads_the_records_it_writes(capsys, tmp_path):
    code, out, _ = run(capsys, "evolve", "--family", "D5", "--params",
                       "sample-params.json", "--steps", "3")
    assert code == 0
    last = json.loads(out)["states"][-1]
    path = tmp_path / "last.json"
    path.write_text(json.dumps(last))
    code, out, _ = run(capsys, "evolve", "--family", "D5", "--params", str(path))
    assert code == 0
    assert json.loads(out)["states"] == [last]


def test_evolve_rejects_float_rationals(capsys, tmp_path):
    path = write_params(tmp_path, f=1.5)
    code, _, err = run(capsys, "evolve", "--family", "D5", "--params", path,
                       "--steps", "1")
    assert code == 2


def test_evolve_negative_steps_exit_2(capsys, tmp_path):
    path = write_params(tmp_path)
    code, out, err = run(capsys, "evolve", "--family", "D5", "--params", path,
                         "--steps", "-3")
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: [^\n]*steps[^\n]*\n", err)


def test_evolve_past_the_step_budget_exit_2_at_once(capsys, tmp_path):
    # A period-2 orbit never grows, so only the budget stops it.
    path = write_params(tmp_path, q="1", nu=["1"] * 7, kappa1="1", kappa2="1",
                        f="2", g="3")
    start = time.monotonic()
    code, out, err = run(capsys, "evolve", "--family", "D5", "--params", path,
                         "--steps", "1000000000")
    assert time.monotonic() - start < 1
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: [^\n]*steps[^\n]*100000[^\n]*\n", err)


def test_evolve_past_int_str_limit_names_step(capsys):
    # D5 from sample-params.json: state 22 has a numerator past 4300 digits.
    # Stepping stops there, so 200 steps end as fast as 22.
    for steps in ("22", "200"):
        code, out, err = run(capsys, "evolve", "--family", "D5", "--params",
                             "sample-params.json", "--steps", steps)
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"error: state t=22 [^\n]*\n", err)


@pytest.mark.parametrize("expr", ["2^3000000000", "*".join(["3^660000"] * 64)])
def test_apply_huge_constant_exit_2_at_once(capsys, expr):
    start = time.monotonic()
    code, out, err = run(capsys, "apply", "--family", "D5", "--expr", expr)
    assert time.monotonic() - start < 1
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: constant folds to more than \d+ bits\n", err)


@pytest.mark.parametrize("value", ["1e200000000", "1e2000000"])
def test_evolve_params_past_int_str_limit_names_field(capsys, tmp_path, value):
    # Fraction("1e200000000") would build 10^200000000: refused before.
    path = write_params(tmp_path, nu=["2", "3", "5", "7", "11", "13", value])
    start = time.monotonic()
    code, out, err = run(capsys, "evolve", "--family", "D5", "--params", path)
    assert time.monotonic() - start < 1
    assert code == 2
    assert out == ""
    assert err == (f"error: bad params file: nu7 = '{value}' has a numerator or "
                   f"denominator past evolution.MAX_DIGITS ({evolution.MAX_DIGITS} digits)\n")


def test_evolve_params_past_a_lower_int_str_limit_names_field(capsys, tmp_path):
    # The interpreter's limit, below MAX_DIGITS, refuses the text's digits,
    # not its syntax.
    path = write_params(tmp_path, f="7" * 1000)
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out, err = run(capsys, "evolve", "--family", "D5", "--params", path)
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 2
    assert out == ""
    assert err == ("error: bad params file: f = '77777777777777777777...' has a numerator "
                   "or denominator past Python's int-to-str digit limit\n")


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_apply_image_past_int_str_limit_exit_2(capsys, fmt):
    # 2^20000 has 6,021 digits, past the default limit of 4,300, which
    # printing the image follows whatever it is set to.
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        code, out, err = run(capsys, "apply", "--family", "D5", "--expr", "2^20000*f",
                             "--format", fmt)
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: the image has a number past [^\n]*digit limit\n", err)


def test_evolve_unwritable_out_exit_2(capsys, tmp_path):
    path = write_params(tmp_path)
    out_path = tmp_path / "missing-dir" / "orbit.json"
    code, out, err = run(capsys, "evolve", "--family", "D5", "--params", path,
                         "--steps", "1", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: cannot write --out: [^\n]+\n", err)


# ---------------------------------------------------------------------------
# options and usage errors

_FAMILIES = ["D5", "E6", "E7"]
_VERIFY_OPTIONS = {"--family": _FAMILIES, "--trials": None, "--prime": None,
                   "--seed": None, "--exact": None, "--no-constraint": None,
                   "--format": ["text", "json"]}

#: Every option of every command, with its choices; each one is read.
OPTION_TABLE = {
    "verify-relations": _VERIFY_OPTIONS,
    "verify-theorem": _VERIFY_OPTIONS,
    "verify-gauge": _VERIFY_OPTIONS,
    "apply": {"--family": _FAMILIES, "--word": None, "--expr": None,
              "--format": ["text", "json", "latex"]},
    "evolve": {"--family": _FAMILIES, "--params": None, "--steps": None,
               "--out": None},
    "list": {"--family": _FAMILIES, "--format": ["text", "latex"]},
}

REQUIRED = {"verify-relations": {"--family"}, "verify-theorem": {"--family"},
            "verify-gauge": {"--family"}, "apply": {"--family", "--expr"},
            "evolve": {"--family", "--params"}, "list": set()}


def test_parser_options_are_exactly_the_table():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    options = {name: [a for a in p._actions if a.dest != "help"]
               for name, p in sub.choices.items()}
    assert {name: {a.option_strings[-1]: a.choices and list(a.choices) for a in acts}
            for name, acts in options.items()} == OPTION_TABLE
    assert {name: {a.option_strings[-1] for a in acts if a.required}
            for name, acts in options.items()} == REQUIRED
    assert sum(map(len, options.values())) == 31


@pytest.mark.parametrize("argv", [
    ("apply", "--family", "D5", "--expr", "f", "--seed", "3"),
    ("apply", "--family", "D5", "--expr", "f", "--exact"),
    ("evolve", "--family", "D5", "--params", "sample-params.json", "--trials", "4"),
    ("evolve", "--family", "D5", "--params", "sample-params.json", "--format", "json"),
    ("list", "--no-constraint"),
    ("list", "--format", "json"),
    ("list", "--family", "D5", "--trials", "0"),
    ("list", "--format", "latex"),
    ("verify-gauge", "--family", "D5", "--format", "latex"),
    (),
    ("frobnicate",),
    ("verify-theorem",),
    ("verify-theorem", "--family", "X9"),
    ("verify-theorem", "--family", "D5", "--trials", "abc"),
    ("evolve", "--family", "D5"),
    ("evolve", "--family", "D5", "--params", "no-such-params.json"),
    ("evolve", "--family", "D5", "--params", "sample-params.json", "--steps", "-1"),
    ("apply", "--family", "D5", "--word", "s9", "--expr", "f"),
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_usage_error_is_one_line_and_exit_2(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        pytest.fail(f"SystemExit({exc.code}) escaped main")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]+\n", captured.err)


_PARAMS = ("--family", "D5", "--params", "sample-params.json")


@pytest.mark.parametrize("argv, quoted", [
    (("apply", "--family", LONG, "--expr", "f"), LONG),
    (("apply", f"--family={LONG}", "--expr", "f"), LONG),
    (("verify-theorem", "--family", "D5", "--trials", LONG), LONG),
    (("evolve", *_PARAMS, "--steps", LONG), LONG),
    (("list", "--format", LONG), LONG),
    ((LONG,), LONG),
    (("list", LONG), LONG),
    (("verify-gauge", "--family", "D5", f"--{LONG}"), f"--{LONG}"),
    (("evolve", "--family", "D5", "--params", LONG), LONG),
    (("evolve", *_PARAMS, "--out", f"/nonexistent/{LONG}"), f"/nonexistent/{LONG}"),
], ids=["family", "family=", "trials", "steps", "format", "command", "positional",
        "option", "params", "out"])
def test_usage_error_cuts_a_long_argument(capsys, argv, quoted):
    # argparse and OSError quote an argument whole; main cuts it as
    # expr.shown cuts the input an error message quotes.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: [^\n]+\n", err)
    assert len(err.encode()) <= 200
    assert shown(quoted) in err


@pytest.mark.parametrize("args", [
    ("--params", "{}"), ("--params={}",), ("--par", "{}"), ("--p={}",),
    (*_PARAMS[2:], "--out", "{}"), (*_PARAMS[2:], "--ou={}"),
], ids=["params", "params=", "par", "p=", "out", "ou="])
def test_usage_error_quotes_a_path_whole_up_to_120_characters(capsys, args):
    # The last part of a path is the one usually wrong, so it is not cut,
    # nor is the part after an "=" in it.
    for length in (40, 120, 121):
        path = "/no-such=directory/" + "p" * (length - 31) + "/params.json"
        assert len(path) == length
        code, out, err = run(capsys, "evolve", "--family", "D5",
                             *[arg.format(path) for arg in args])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: [^\n]+\n", err)
        assert (repr(path) if length <= 120 else shown(path)) in err


@pytest.mark.parametrize("argv", [
    ("evolve", *_PARAMS, "--steps", "x" * 40),
    ("verify-theorem", "--family", "D5", "--p", "x" * 40),
    ("apply", "--family", "D5", "--expr", "x" * 40),
], ids=["evolve-steps", "verify-p", "apply-expr"])
def test_usage_error_cuts_a_non_path_argument_past_24_characters(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert shown("x" * 40) in err and "x" * 21 not in err


@pytest.mark.parametrize("argv", [("--help",), ("evolve", "--help")])
def test_help_prints_usage_and_exits_0(capsys, argv):
    # main prints the help as a command's output and returns, so a closed
    # stdout keeps the status as it does for a report.
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: qpweyl")
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_one_parser_serves_every_call_without_leaking_options(capsys):
    # The parser is built once per process.  A usage error part-way through
    # the options, then a report with --exact, leave nothing behind: the
    # report without --exact is the pinned one, and each namespace equals
    # the one a parser built afresh returns.
    assert cli.build_parser() is cli.build_parser()
    code, out, err = run(capsys, "verify-theorem", "--family", "E7", "--exact", "--seed", "7",
                         "--no-constraint", "--format", "json", "--trials", "abc")
    assert (code, out) == (2, "") and err.startswith("error: ")
    code, out, _ = run(capsys, "verify-theorem", "--family", "D5", "--exact", "--format", "json")
    assert code == 0 and all(c["detail"] == "exact" for c in json.loads(out)["checks"])
    code, out, _ = run(capsys, "verify-theorem", "--family", "D5", "--format", "json")
    assert code == 0
    assert not any(c.get("detail") == "exact" for c in json.loads(out)["checks"])
    pin = next(sha for argv, _, sha in GOLDEN
               if argv == "verify-theorem --family D5 --seed 0 --format json")
    assert hashlib.sha256(out.encode()).hexdigest() == pin
    for argv in (["verify-theorem", "--family", "D5"], ["verify-gauge", "--family", "E6"],
                 ["apply", "--family", "D5", "--expr", "f"], ["list"],
                 ["evolve", "--family", "D5", "--params", "p.json"]):
        assert (vars(cli.build_parser().parse_args(argv))
                == vars(cli.build_parser.__wrapped__().parse_args(argv)))


# ---------------------------------------------------------------------------
# sampling options

@pytest.mark.parametrize("argv", [
    ("--prime", "7"),
    ("--prime", str(1 << 60)),
    ("--prime", "1000000000000000000000"),   # composite
    ("--prime", str((1 << 61) + 1)),         # composite, divisible by 3
    ("--trials", "0"),
    ("--trials", "-2"),
])
@pytest.mark.parametrize("command", ["verify-theorem", "verify-relations", "apply"])
def test_bad_sampling_options_exit_2(capsys, command, argv):
    extra = ("--expr", "f") if command == "apply" else ()
    code, out, err = run(capsys, command, "--family", "D5", *argv, *extra)
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: [^\n]+\n", err)


def test_trials_past_the_budget_exit_2_at_once(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "verify-theorem", "--family", "D5",
                         "--trials", "99999999999999999999")
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: trials must be at most {MAX_TRIALS}, "
                   f"got 99999999999999999999\n")


def test_prime_past_the_budget_exit_2_at_once(capsys):
    # A Mersenne prime of 3,376 digits: within argparse's digit limit, but
    # Miller-Rabin on it would run for minutes.
    start = time.monotonic()
    code, out, err = run(capsys, "verify-theorem", "--family", "D5",
                         "--prime", str((1 << 11213) - 1))
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: prime must be at most {MAX_PRIME_BITS} bits wide, "
                   f"got 11213 bits\n")


def test_larger_prime_is_accepted(capsys):
    code, _, _ = run(capsys, "verify-theorem", "--family", "D5",
                     "--prime", str((1 << 89) - 1), "--format", "json")
    assert code == 0
