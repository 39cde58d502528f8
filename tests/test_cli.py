"""Command-line behavior: exit codes, formats, determinism."""

import json
import re

import pytest

import qpweyl.cli as cli


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
    with pytest.raises(SystemExit) as err:
        cli.main(["verify-relations", "--family", "X9"])
    assert err.value.code == 2


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


def test_list_families(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "D5 E6 E7" in out
    assert "e7.s0s4s0" in out


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


def test_evolve_past_int_str_limit_names_step(capsys):
    # D5 from sample-params.json: state 22 has a numerator past 4300 digits.
    code, out, err = run(capsys, "evolve", "--family", "D5", "--params",
                         "sample-params.json", "--steps", "22")
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: state t=22 [^\n]*\n", err)


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


def test_larger_prime_is_accepted(capsys):
    code, _, _ = run(capsys, "verify-theorem", "--family", "D5",
                     "--prime", str((1 << 89) - 1), "--format", "json")
    assert code == 0
